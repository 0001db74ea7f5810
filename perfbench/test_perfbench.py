"""Tests for the benchmark's seeded generator, judges and tracer.

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from lieideals.liecore import LieAlgebra  # noqa: E402
from lieideals.verify import PASS, check_example_3_4  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

POOL = workloads.load_expected("query_pool.json")["algebras"]
N_SEARCH = sum(len(entries) for entries in POOL.values())


def _member(members, member_id):
    return next(m for m in members if m.member_id == member_id)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = gen.write_queries(gen.query_stream(5, POOL, 12), tmp_path / "a")
    b = gen.write_queries(gen.query_stream(5, POOL, 12), tmp_path / "b")
    assert len(a) == len(b) == N_SEARCH + 24
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    c = gen.query_stream(6, POOL, 12)
    assert [q.doc_text for q in c] != [q.doc_text for q in gen.query_stream(5, POOL, 12)]

    def tables(seed):
        return [(m.member_id, gen.algebra_table(m.algebra),
                 {k: S.rows for k, S in m.built.subspaces.items()})
                for m in gen.verify_corpus_members(seed)]

    assert tables(3) == tables(3)
    assert tables(3) != tables(4)


def test_seed_zero_is_the_identity():
    from lieideals.verify import default_corpus

    for old, new in zip(default_corpus(), gen.verify_corpus_members(0)):
        assert gen.algebra_table(old.algebra) == gen.algebra_table(new.algebra)
        assert old.algebra.labels == new.algebra.labels


@pytest.mark.parametrize("seed", [1, 2])
def test_basis_changed_tables_pass_the_jacobi_check(seed):
    rng = random.Random(seed)
    for build in gen.SEARCH_ALGEBRAS.values():
        L = build().algebra
        basis = gen.dense_basis(gen.arith_of(L.field), L.dim, rng)
        table = gen.transform_table(basis.ar, L.dim, gen.algebra_table(L), basis)
        assert table  # dense bases leave no nonabelian table sparse and empty
        LieAlgebra(L.field, L.dim, table, check=True)
    for built, _ in gen._q_templates():
        L = built.algebra
        basis = gen.dense_basis(gen.Arith(0), L.dim, rng)
        table = gen.transform_table(basis.ar, L.dim, gen.algebra_table(L), basis)
        LieAlgebra(L.field, L.dim, table, check=True)


def test_basis_change_round_trips():
    rng = random.Random(0)
    for p in (2, 3, 5, 0):
        ar = gen.Arith(p)
        basis = gen.dense_basis(ar, 4, rng)
        for i in range(4):
            col = tuple(basis.P[r][i] for r in range(4))
            assert basis.to_new(col) == tuple(ar.norm(int(j == i)) for j in range(4))


@pytest.mark.parametrize("seed", [1, 7])
def test_monomial_change_maps_example34_consistently(seed):
    m = _member(gen.verify_corpus_members(seed), "example34-3")
    L = m.algebra
    A, M, Splus = (m.built.subspaces[k] for k in ("A", "M", "Splus"))
    um1 = m.built.vectors["um1"]
    assert gen.algebra_table(L) != gen.algebra_table(
        _member(gen.verify_corpus_members(0), "example34-3").algebra)
    assert (A.dim, M.dim, Splus.dim) == (9, 7, 6)
    assert L.is_ideal(A) and L.is_subalgebra(M) and not A <= M
    assert L.product_space(A, Splus) <= Splus
    assert um1 in A and um1 not in Splus + M
    assert check_example_3_4(m)[0] == PASS


def test_tampered_witnesses_stay_well_formed():
    for q in gen.query_stream(9, POOL, 48):
        if q.cls == "search":
            continue
        chain = q.witness if q.pred == "subideal" else q.witness.get("chain", [[]])
        assert chain, q.qid


def test_smoke_verify_corpus():
    for seed in (0, 1):
        wl = workloads.verify_corpus(members={"heisenberg-gf2", "sl2-gf3"})
        wl.setup(seed, None)
        res = wl.run_pass()
        assert len(res.items) == 50 and res.failed == 0


def test_smoke_lattice_ladder_and_its_judge():
    wl = workloads.lattice_ladder(members={"sum-sl2-abelian1-gf3"})
    wl.setup(2, None)
    assert wl.run_pass().failed == 0
    wl.expected["statuses"]["sum-sl2-abelian1-gf3/lemma-2.7"] = "fail"
    assert wl.run_pass().failed == 1


def test_smoke_query_stream_and_its_judge(tmp_path):
    wl = workloads.QueryStream(per_class=24)
    wl.setup(3, tmp_path)
    res = wl.run_pass()
    assert len(res.items) == N_SEARCH + 48 and res.failed == 0
    assert wl.recheck_certificates() == 0
    q = next(q for q in wl.queries if q.cls == "recheck")
    q.expect["verdict"] = {"yes": "no", "no": "yes"}[q.expect["verdict"]]
    assert wl.run_pass().failed == 1


def test_traced_pass_reports_every_per_layer_metric():
    import lieideals.linspace as linspace
    import lieideals.verify as verify

    rref, run_check = linspace.rref, verify.run_check
    wl = workloads.lattice_ladder(members={"sum-sl2-abelian1-gf3"})
    wl.setup(1, None)
    tracer = tracing.Tracer()
    counts, check_s = tracing.install(tracer)
    assert linspace.rref is rref  # install prepares the wrappers, pair applies them
    try:
        paired = wl.run_pass(tracer)
    finally:
        tracer.unpatch()
    assert linspace.rref is rref and verify.run_check is run_check
    assert paired.failed == 0 and paired.attempted == 2 * len(paired.items) == 50
    metrics = run.per_layer(tracer, counts, check_s, paired)
    spec = run.spec()
    assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    assert metrics["linspace.rref.calls"] > 0 and metrics["verify.lemma-2.7.s"] > 0
    assert metrics["trace.spans"] == len(tracer.spans) > 0
    assert metrics["trace.wall_s"] == paired.traced > 0


def test_traced_query_pass_runs_each_query_traced_and_untraced(tmp_path):
    wl = workloads.QueryStream(per_class=8)
    wl.setup(4, tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        paired = wl.run_pass(tracer)
    finally:
        tracer.unpatch()
    assert paired.failed == 0 and paired.traced > 0
    assert tracer.stats["cli.main"].calls == len(paired.items) == N_SEARCH + 16


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_contract():
    spec = run.spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    json.dumps(spec)
