"""Two sets of benchmark runs of the same code, and whether they agree.

    python3 perfbench/compare.py [--runs 10] [--first-seed 1]

Run it from the root of a source checkout.  It runs two sets; each runs
every workload of BENCHMARK.json ``--runs`` times in turn, each run with
its own seed, untraced, for the run length BENCHMARK.json gives.  For every
end-to-end metric of BENCHMARK.json and every workload it prints each
set's median and spread (the distance between the first and third
quartiles, by ``statistics.quantiles(values, n=4)``, as a share of the
median) and checks that:

- every spread is within the metric's bound;
- the second set's median is no worse than the first's by more than the bound;
- every run reports the same share of failed operations, and correct answers.

A spread above a third of its bound is flagged as not steady.  The raw
results go to perfbench/_out/compare.json.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for k in range(2):
        for w in workloads:
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(w, seed, spec["run_seconds"]))
                seed += 1
                print(f"set {k + 1} {w} seed {seed - 1}: "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in runs[-1]["metrics"].items()),
                      file=sys.stderr)
            results[w].append(runs)
    os.makedirs("perfbench/_out", exist_ok=True)
    with open("perfbench/_out/compare.json", "w") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    print(f"{'workload':8} {'metric':15} {'bound':>6} " + " ".join(
        f"{'median' + str(k + 1):>12} {'spread' + str(k + 1):>8}" for k in range(2))
        + f" {'worse':>7}  verdict")
    for w in workloads:
        sets = results[w]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, notes = [], []
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                s = spread(values)
                cols.append(f"{medians[-1]:12.6g} {s:8.4f}")
                if s > bound:
                    notes.append("spread over bound")
                    ok = False
                elif s > bound / 3:
                    notes.append("not steady")
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (medians[1] - medians[0]) / medians[0]
            worse = f"{change:7.4f}"
            if change > bound:
                notes.append("second set worse by more than the bound")
                ok = False
            print(f"{w:8} {name:15} {bound:6.3f} {' '.join(cols)} {worse:>7}  "
                  + ("; ".join(notes) or "ok"))
        print(f"{w:8} failed shares {sorted(str(s) for s in shares)}, correct={correct}")
        if len(shares) != 1 or not correct:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
