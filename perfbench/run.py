"""The padicval benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan|queries|series --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports padicval from
``src/``.  A single client issues requests through ``padicval.cli.main``
in this process, each after the previous one returned (a closed loop), in
whole rounds until the next round would pass ``--seconds`` divided by
PASSES; then it replays those rounds once more.  The host's speed swings
by tens of percent within seconds, so every execution's time is scaled to
a reference speed by a calibration loop timed around it (``HostSpeed``),
and each request counts the median of its scaled times.  Every answer is
checked against ``reference``, which does not use the program.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under ``--trace 0``, and its
per-layer metrics under ``--trace 1``.  The traced run replays a fixed
number of rounds twice, untraced and then traced, so its counts repeat
exactly for a seed; ``trace.overhead_s`` is the difference of the two
timed phases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

# The calibration loop (HostSpeed.loop): fixed pure-Python integer work,
# about 1 ms on a 2-core shared host at its fastest.  Its time, taken
# around and during each execution, is the host's speed at that moment.
CALIBRATION_ITERS = 4500
REFERENCE_LOOP_S = 0.001
SAMPLE_EVERY_S = 0.1

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "_out")
SETUP_REPEATS = 21
PASSES = 2  # executions of each request in an untraced run
# What a fresh process does before it can issue its first request.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import padicval.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ok_ops = 0
        self.run_s = 0.0  # every execution, scaled, for pacing
        self.timed_s = 0.0  # sum over requests of each one's median scaled time
        self.raw_timed_s = 0.0  # the same in wall time
        self.latencies: list[float] = []  # each answered request's median scaled time
        self.raw_latencies: list[float] = []  # the same in wall time
        self.correct = True
        self.rounds = 0

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct = self.correct and other.correct


class HostSpeed:
    """Times the calibration loop around and during executions.

    A shared host's speed can drift by up to half in phases of seconds, so an
    execution's wall time is scaled by REFERENCE_LOOP_S over the mean time
    of the loop just before it, just after it and, once sampling is on,
    every SAMPLE_EVERY_S during it (from a SIGALRM handler, whose own time
    is taken out of the execution's).  The result reads as the time the
    execution would take with the host at its reference speed.  The loop
    after one execution serves as the loop before the next.
    """

    def __init__(self) -> None:
        self.last: float | None = None
        self.sampling = False
        self.during: list[float] = []
        self.paused = 0.0

    @staticmethod
    def loop() -> float:
        t0 = perf_counter()
        x, m = 1, (1 << 127) - 1
        for i in range(CALIBRATION_ITERS):
            x = (x * 6364136223846793005 + i) % m
        return perf_counter() - t0

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self.sampling = True

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.during.append(self.loop())
        self.paused += perf_counter() - t0

    def time(self, fn, sample: bool = True):
        """(fn(), wall seconds, scaled seconds)."""
        before = self.last if self.last is not None else self.loop()
        self.during, self.paused = [], 0.0
        sample = sample and self.sampling
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0 - self.paused
        self.last = self.loop()
        speed = statistics.fmean([before, *self.during, self.last])
        return result, elapsed, elapsed * REFERENCE_LOOP_S / speed



def execute(cli, host: HostSpeed, argv: list[str]) -> tuple[int, str, str, float, float]:
    """One request through cli.main.

    Returns (exit code, stdout, stderr, wall seconds, scaled seconds).
    """
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        try:
            return cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            return e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a failed request, not a crashed run
            err.write(traceback.format_exc())
            return -1

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, elapsed, scaled = host.time(call)
    return code, out.getvalue(), err.getvalue(), elapsed, scaled


def execute_round(cli, host: HostSpeed, requests, tally: Tally,
                  times: list[list[tuple[float, float]]], answered: list[bool],
                  between_requests=None) -> None:
    """Every request of a round once, each answer checked after it returns."""
    for j, req in enumerate(requests):
        if between_requests:
            between_requests(tally)
        code, out, err, elapsed, scaled = execute(cli, host, req.argv)
        tally.run_s += scaled
        times[j].append((scaled, elapsed))
        tally.attempted += req.ops
        if code != 0:
            tally.failed += req.ops
            answered[j] = False
            if not (req.known_fault and "identically zero mod" in err):
                print(f"failed {req.kind} (exit {code}): {req.argv} {err.strip()[-300:]}",
                      file=sys.stderr)
            continue
        try:
            reason = req.check(out)
        except Exception as e:  # unreadable output is a wrong answer
            reason = f"{req.kind}: output not understood: {e!r}"
        if reason:
            tally.correct = False
            answered[j] = False
            print(f"WRONG {reason} for {req.argv}", file=sys.stderr)


def run_rounds(cli, host: HostSpeed, workload, tally: Tally, seconds: float | None = None,
               rounds: int | None = None, passes: int = 1, between_requests=None) -> None:
    """Whole rounds, ``passes`` times over; a request's time is the median of its scaled times.

    The first pass runs a fixed number of rounds, or whole rounds until the
    next would pass seconds/passes of scaled execution time.  Later passes replay the
    same rounds in the same order.
    """
    plan = []
    while True:
        requests = workload.round(len(plan))
        times, answered = [[] for _ in requests], [True] * len(requests)
        before = tally.run_s
        execute_round(cli, host, requests, tally, times, answered, between_requests)
        plan.append((requests, times, answered))
        if rounds is not None:
            if len(plan) >= rounds:
                break
        elif 2 * tally.run_s - before > seconds / passes:
            break
    for _ in range(passes - 1):
        for requests, times, answered in plan:
            execute_round(cli, host, requests, tally, times, answered, between_requests)
    tally.rounds = len(plan)
    for requests, times, answered in plan:
        for req, samples, ok in zip(requests, times, answered):
            latency = statistics.median(scaled for scaled, _ in samples)
            raw = statistics.median(elapsed for _, elapsed in samples)
            tally.timed_s += latency
            tally.raw_timed_s += raw
            if ok:
                tally.ok_ops += req.ops
                tally.latencies.append(latency)
                tally.raw_latencies.append(raw)


def measure_setup(host: HostSpeed) -> float:
    """Time from spawning a process to padicval being ready in it, scaled."""
    with contextlib.ExitStack() as stack:  # its exit waits for the process

        def spawn():
            proc = stack.enter_context(
                subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                 stdout=subprocess.PIPE))
            return proc, proc.stdout.readline()

        (proc, line), _, scaled = host.time(spawn, sample=False)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("set-up process did not import padicval")
    return scaled


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(cli, workload, seconds: int) -> tuple[Tally, dict[str, float]]:
    tally, host = Tally(), HostSpeed()
    setup = []

    def sample_setup(t: Tally) -> None:
        # spread the set-up samples over the run, since machine speed drifts
        while len(setup) < SETUP_REPEATS * min(1.0, t.run_s / seconds):
            setup.append(measure_setup(host))

    host.start_sampling()
    run_rounds(cli, host, workload, tally, seconds=seconds, passes=PASSES,
               between_requests=sample_setup)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(host))
    if not tally.latencies:
        raise RuntimeError("no request was answered")
    return tally, {
        "setup_s": statistics.median(setup),
        "ops_per_s": tally.ok_ops / tally.timed_s,
        "latency_p50_ms": 1000 * statistics.median(tally.latencies),
        "latency_p99_ms": 1000 * percentile(tally.latencies, 99),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # unscaled wall-time figures, for the progress line only
        "wall.ops_per_s": tally.ok_ops / tally.raw_timed_s,
        "wall.latency_p50_ms": 1000 * statistics.median(tally.raw_latencies),
        "wall.latency_p99_ms": 1000 * percentile(tally.raw_latencies, 99),
    }


def per_layer(cli, workload) -> tuple[Tally, dict[str, float]]:
    untraced, traced = Tally(), Tally()
    host = HostSpeed()
    run_rounds(cli, host, workload, untraced, rounds=workload.trace_rounds)
    tracer = Tracer()
    tracer.install()
    try:
        run_rounds(cli, host, workload, traced, rounds=workload.trace_rounds)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}"))
    values = tracer.summary()
    values["trace.overhead_s"] = traced.raw_timed_s - untraced.raw_timed_s
    untraced.merge(traced)
    return untraced, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "padicval", "__init__.py")):
        print(f"no padicval source under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import padicval.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"padicval imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.trace:
        tally, values = per_layer(cli, workload)
        wanted = spec["per_layer"]
    else:
        tally, values = end_to_end(cli, workload, args.seconds)
        wanted = spec["end_to_end"]
    progress = [f"{args.workload} seed={args.seed} rounds={tally.rounds}",
                f"attempted={tally.attempted} failed={tally.failed} correct={tally.correct}"]
    progress += [f"{k}={v:.6g}" for k, v in values.items() if k.startswith("wall.")]
    print(" ".join(progress), file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
