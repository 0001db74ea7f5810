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


def test_cli_witness_searches_reach_the_benchmark_tracer(monkeypatch, capsys):
    # the CLI must call the searches through names the tracer rebinds, not
    # through objects it captured at import
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from lieideals import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    heis = str(Path(__file__).resolve().parent / "data" / "heis.alg")
    tracer.patch()
    try:
        for predicate in ("weak-c-ideal", "c-ideal"):
            assert cli.main(["check", heis, "--predicate", predicate, "--subspace", "W"]) == 0
    finally:
        tracer.unpatch()
    capsys.readouterr()
    assert tracer.stat("ideals.find_weak_c_witness").calls >= 1
    assert tracer.stat("ideals.find_c_witness").calls >= 1
