"""The benchmark's tracer (perfbench/tracing.py) wraps library functions and
methods by name.  Installing and applying its wrappers here makes a traced
name that is deleted, renamed or inherited fail this suite, not only a
traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_patches_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patches = list(tracer._patches)
    assert patches
    tracer.patch()
    try:
        for owner, attr, _, wrapper in patches:
            assert vars(owner)[attr] is wrapper, (owner, attr)
    finally:
        tracer.unpatch()
    for owner, attr, orig, _ in patches:
        assert vars(owner)[attr] is orig, (owner, attr)
