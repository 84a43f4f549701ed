"""The benchmark's span tracer must find every function it names.

perfbench/spans.py wraps each name in its TRACED table by getattr on the
padicval module that defines it; a name deleted or renamed in the package
would crash every traced benchmark run, so it fails here instead.
"""

import importlib.util
import os
import sys

import padicval.cli  # noqa: F401  (loads every module the tracer patches)

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions(spans):
    """The object each TRACED entry names now, resolved the way install() resolves it."""
    found = []
    for module_name, attr, _ in spans.TRACED:
        owner = sys.modules[module_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        found.append(owner)
    return found


def test_tracer_installs_and_uninstalls_every_traced_name():
    spans = _load_spans()
    originals = _traced_functions(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()  # an AttributeError here names the missing function
        for original, wrapped in zip(originals, _traced_functions(spans)):
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert _traced_functions(spans) == originals
