"""Harness plumbing and selected check outcomes on known members.

The three-dimensional witness test pins down why the nilpotent-plus-
subideal variant of the power statement is excluded from the hard checks:
both of its clauses genuinely fail on a corpus member, so only the ideal
form is checked.
"""

import ast
from pathlib import Path

import pytest

from lieideals import verify as V
from lieideals.corpus import (
    BuiltAlgebra,
    _sum_built,
    abelian,
    heisenberg,
    sl2,
    two_dim_nonabelian,
)
from lieideals.exactfield import GF, QQ
from lieideals.ideals import subideal_chain
from lieideals.liecore import LOWER_CENTRAL, LieAlgebra
from lieideals.structure import minimal_ideals


def member(member_id, built):
    return V.CorpusMember(member_id, built)


def heis_member():
    return member("heisenberg-gf2", heisenberg(GF(2)))


# -- runner plumbing --------------------------------------------------------


def test_registry_is_disjoint_and_sorted():
    assert not set(V.HARD_CHECKS) & set(V.OBSERVATIONAL_CHECKS)
    assert V.ALL_CHECK_IDS == sorted(V.ALL_CHECK_IDS)
    assert len(V.ALL_CHECK_IDS) == len(V.HARD_CHECKS) + len(V.OBSERVATIONAL_CHECKS)


def test_run_check_rejects_unknown_ids():
    with pytest.raises(KeyError):
        V.run_check("lemma-0.0", heis_member())


def test_check_result_json_keys():
    r = V.run_check("lemma-5.1", heis_member())
    doc = r.to_json()
    assert set(doc) == {"check", "algebra", "status", "hypotheses", "details"}
    assert doc["status"] == V.PASS
    assert doc["hypotheses"] == 7  # projective lines of GF(2)^3


def test_run_check_maps_budget_blowups_to_unsupported():
    from lieideals.corpus import example34

    m = member("example34-3", example34(GF(3), 3))
    r = V.run_check("lemma-2.4-1", m)
    assert r.status == V.UNSUPPORTED
    assert "budget" in r.details["reason"]


def test_an_undecided_predicate_reports_unsupported_with_its_bound():
    # GF(2)^20 has 1,048,575 lines, over the default budget of 10^6, so
    # is_simple gives up before the weak c-simplicity scan starts
    r = V.run_check("lemma-2.4-2", member("abelian20-gf2", abelian(GF(2), 20)))
    assert r.status == V.UNSUPPORTED and r.hypotheses == 0
    assert r.details["reason"] == (
        "enumeration needs 1048575 subspaces, budget is 1000000"
    )


GIVE_UP_ERRORS = {"BudgetExceededError", "EnumerationUnsupportedError"}


def test_only_the_front_ends_catch_the_give_up_errors():
    # a predicate or search that cannot decide raises; only these functions
    # turn the raise into "unsupported" (or exit code 3)
    catchers = set()
    for path in sorted(Path(V.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.ExceptHandler) or node.type is None:
                    continue
                names = {
                    getattr(n, "id", None) or getattr(n, "attr", None)
                    for n in ast.walk(node.type)
                }
                if names & GIVE_UP_ERRORS:
                    catchers.add(f"{path.stem}.{top.name}")
    assert catchers == {
        "verify.run_check",
        "cli.cmd_check",
        "structure.flags",
        "structure.structure_report",
        "structure.classify_one_dim_weak_c",
    }


def test_observational_statuses(monkeypatch):
    monkeypatch.setitem(
        V.OBSERVATIONAL_CHECKS, "always-false", lambda m: (False, 3, {"k": 1})
    )
    r = V.run_check("always-false", heis_member())
    assert r.status == V.OBSERVED_FALSE and r.hypotheses == 3
    r = V.run_check("corollary-3.3", heis_member())
    assert r.status == V.OBSERVED_TRUE


def test_try_member_wraps_and_captures():
    ok = V.try_member("plain", lambda: heisenberg(GF(2)).algebra)
    assert isinstance(ok, V.CorpusMember)
    assert isinstance(ok.built, BuiltAlgebra)
    bad = V.try_member(
        "bad-jacobi",
        lambda: LieAlgebra(GF(2), 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)}),
    )
    assert isinstance(bad, V.BrokenMember)
    assert "Jacobi" in str(bad.error)


def test_broken_member_becomes_one_construction_row():
    bad = V.try_member(
        "bad-jacobi",
        lambda: LieAlgebra(GF(2), 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)}),
    )
    report = V.run_suite(members=[bad], check_ids=["lemma-2.4-1"])
    assert len(report.results) == 1
    row = report.results[0]
    assert row.check_id == "construction" and row.status == V.FAIL
    assert "Jacobi identity fails" in row.details["error"]
    assert report.exit_code == 1
    assert report.counts == {"fail": 1}


def test_suite_row_order_and_report_shape():
    members = [
        member("nonabelian2-gf3", two_dim_nonabelian(GF(3))),
        heis_member(),
    ]
    ids = ["lemma-2.4-1", "corollary-3.3"]
    report = V.run_suite(members=members, check_ids=ids)
    keys = [(r.algebra, r.check_id) for r in report.results]
    assert keys == [
        ("heisenberg-gf2", "corollary-3.3"),
        ("heisenberg-gf2", "lemma-2.4-1"),
        ("nonabelian2-gf3", "corollary-3.3"),
        ("nonabelian2-gf3", "lemma-2.4-1"),
    ]
    assert report.exit_code == 0
    doc = report.to_json()
    assert set(doc) == {"results", "counts"}
    assert report.json_text().endswith("\n")
    table = report.text_table()
    assert "total=4" in table and "fail=0" in table


def test_suite_subset_is_deterministic():
    texts = []
    for _ in range(2):
        report = V.run_suite(
            members=[heis_member()],
            check_ids=["lemma-2.4-1", "lemma-2.7", "theorem-3.2"],
        )
        texts.append(report.json_text())
    assert texts[0] == texts[1]


def test_default_corpus_ids():
    members = V.default_corpus()
    ids = [m.member_id for m in members]
    assert len(ids) == 16 and len(set(ids)) == 16
    assert "example34-3" in ids
    assert "solvable-not-supersolvable-gf2" in ids
    assert all(isinstance(m, V.CorpusMember) for m in members)
    ex = next(m for m in members if m.member_id == "example34-3")
    assert set(ex.built.subspaces) == {"A", "M", "Splus"}


# -- selected outcomes ------------------------------------------------------


def test_lemma_2_4_1_hypothesis_count_on_heisenberg():
    r = V.run_check("lemma-2.4-1", heis_member())
    assert r.status == V.PASS
    # 6 ideals plus 12 c-ideal upgrades: every subalgebra has a c-witness
    assert r.hypotheses == 18


def test_lemma_2_4_2_simple_and_degenerate_and_unsupported():
    r = V.run_check("lemma-2.4-2", member("sl2-gf3", sl2(GF(3))))
    assert r.status == V.PASS and r.details["simple"] == "true"
    r = V.run_check("lemma-2.4-2", member("abelian1-gf2", abelian(GF(2), 1)))
    assert r.status == V.PASS and r.hypotheses == 0
    r = V.run_check("lemma-2.4-2", member("sl2-q", sl2(QQ)))
    assert r.status == V.UNSUPPORTED


def test_theorem_4_5_vacuous_on_non_solvable():
    r = V.run_check("theorem-4.5", member("sl2-gf3", sl2(GF(3))))
    assert r.status == V.PASS
    assert r.details["note"] == "not solvable, hypothesis empty"


def test_example_3_4_facts_pass_and_skip():
    from lieideals.corpus import example34

    r = V.run_check("example-3.4", member("example34-3", example34(GF(3), 3)))
    assert r.status == V.PASS and r.hypotheses == 9
    assert r.details["core_M_zero"] is True
    assert r.details["um1_outside_Splus_plus_M"] is True
    r = V.run_check("example-3.4", heis_member())
    assert r.status == V.PASS and r.hypotheses == 0


def test_subideal_witness_defeats_the_power_statement():
    """The central-line-plus-nonabelian algebra: K = <z + y> is a genuine
    two-step subideal and B = <z, x> a nilpotent complement, yet no
    lower-central power of L reaches K and the minimal ideal <y> violates
    the dichotomy.  The ideal-quantified check still passes."""
    f = GF(2)
    built = _sum_built(f, abelian(f, 1), two_dim_nonabelian(f))
    L = built.algebra  # basis z, x, y with [x, y] = y
    K = L.span([(1, 0, 1)])
    B = L.span([(1, 0, 0), (0, 1, 0)])
    chain = subideal_chain(L, K)
    assert chain is not None and len(chain.terms) == 3
    LB = L.restrict(B)[0]
    assert LB.product_space(LB.full_space(), LB.full_space()).is_zero()
    assert B + K == L.full_space()
    assert L.series(LOWER_CENTRAL).min_index_inside(K) is None
    y_line = L.span([(0, 0, 1)])
    assert y_line in minimal_ideals(L)
    assert not y_line <= K
    assert L.product_space(L.full_space(), y_line) == y_line
    r = V.run_check("lemma-4.2", member("sum-abelian1-nonabelian2-gf2", built))
    assert r.status == V.PASS


def test_observational_checks_on_sl2():
    m = member("sl2-gf3", sl2(GF(3)))
    for cid in ["theorem-3.6", "theorem-3.7", "theorem-3.8", "corollary-4.7"]:
        r = V.run_check(cid, m)
        assert r.status == V.OBSERVED_TRUE, cid
