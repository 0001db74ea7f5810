"""Acceptance gate.

Nine end-to-end criteria, one test each: the subspace enumerator against
an independent Gaussian-binomial count, the core and subideal decisions
against brute-force oracles over the small corpus members, the lemma
suite on the default corpus, the characteristic-3 example, byte
determinism of the JSON report, and the CLI contract on the golden files.
Criteria with a stated runtime budget assert it; every test prints a
one-line summary for the log.
"""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

from lieideals import (
    GF,
    classify_one_dim_weak_c,
    core,
    default_corpus,
    enumerate_subspaces,
    example34,
    find_weak_c_witness,
    ideals_of,
    run_check,
    subalgebras,
    subideal_chain,
)
from lieideals.cli import main
from lieideals.document import parse_document, render_document
from lieideals.verify import FAIL, PASS, UNSUPPORTED

DATA = Path(__file__).parent / "data"

# the one corpus member whose subspace lattice exceeds the enumeration
# budget on purpose; checks that need the lattice report unsupported there
OVER_BUDGET = "example34-3"

# SHA-256 of the `verify --json` bytes: the behaviour contract that a
# refactor must keep unless it says why the report changed
VERIFY_JSON_SHA256 = "8b07bcb64e0495870c1ce57b6add1db04a9531e99e53ecc62ad7468beb4b1282"


def _stamp(label, t0, bound=None):
    dt = time.monotonic() - t0
    suffix = "" if bound is None else f" (budget {bound:.0f}s)"
    print(f"[acceptance] {label}: PASS in {dt:.2f}s{suffix}")
    if bound is not None:
        assert dt < bound, f"{label} took {dt:.2f}s, budget {bound:.0f}s"


def _members(field_repr=None, max_dim=None):
    out = []
    for m in default_corpus():
        L = m.algebra
        if field_repr is not None and repr(L.field) != field_repr:
            continue
        if max_dim is not None and L.dim > max_dim:
            continue
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# criterion 1: lattice oracle
# ---------------------------------------------------------------------------

def _q_binomial(n, k, q):
    # independent oracle: plain product formula in exact rationals
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
    assert out.denominator == 1
    return out.numerator


def _lattice_size(n, q):
    return sum(_q_binomial(n, k, q) for k in range(n + 1))


def test_criterion_1_subspace_counts_match_gaussian_binomials():
    t0 = time.monotonic()
    assert _lattice_size(3, 2) == 16
    assert _lattice_size(4, 2) == 67
    for q, top in ((2, 5), (3, 4)):
        f = GF(q)
        for n in range(top + 1):
            got = sum(1 for _ in enumerate_subspaces(f, n))
            assert got == _lattice_size(n, q), (q, n, got)
    _stamp("1 subspace counts vs Gaussian binomials", t0, 5.0)


# ---------------------------------------------------------------------------
# criterion 2: core against enumerated ideals
# ---------------------------------------------------------------------------

def test_criterion_2_core_is_the_largest_enumerated_ideal():
    t0 = time.monotonic()
    seen = 0
    for m in _members("GF(2)", max_dim=4):
        L = m.algebra
        ideals = list(ideals_of(L))
        for B in subalgebras(L):
            inside = [I for I in ideals if I <= B]
            best = max(inside, key=lambda I: I.dim)
            for I in inside:
                assert I <= best  # a maximum under inclusion, not just top dim
            assert core(L, B) == best, (m.member_id, B.basis_strings())
            seen += 1
    assert seen > 50
    _stamp(f"2 core vs enumerated ideals, {seen} subalgebras", t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 3: subideal decision against brute force
# ---------------------------------------------------------------------------

def _brute_subideal(L, B):
    """Search all strictly increasing subalgebra chains from B to L with
    each term an ideal in the next.  Independent of the ideal-closure
    series used by subideal_chain."""
    full = L.full_space()
    subs = list(subalgebras(L))
    dead = set()

    def climb(C):
        if C == full:
            return True
        if C.rows in dead:
            return False
        dead.add(C.rows)
        for D in subs:
            if C.dim < D.dim and C <= D and L.product_space(D, C) <= C:
                if climb(D):
                    return True
        return False

    return climb(B)


def test_criterion_3_subideal_decision_matches_brute_force():
    t0 = time.monotonic()
    checked = 0
    for m in _members("GF(2)", max_dim=3):
        L = m.algebra
        for B in subalgebras(L):
            chain = subideal_chain(L, B)
            assert (chain is not None) == _brute_subideal(L, B), (
                m.member_id,
                B.basis_strings(),
            )
            if chain is not None:
                assert not chain.problems(L)
            checked += 1
    assert checked > 40
    _stamp(f"3 subideal chain vs brute force, {checked} subalgebras", t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 4: the 2.x lemma family on the default corpus
# ---------------------------------------------------------------------------

BASIC_CHECKS = [
    "lemma-2.4-1",
    "lemma-2.4-2",
    "lemma-2.4-3",
    "lemma-2.4-4",
    "proposition-2.5",
    "lemma-2.7",
]


def test_criterion_4_basic_weak_c_checks_pass_exhaustively():
    t0 = time.monotonic()
    totals = {cid: 0 for cid in BASIC_CHECKS}
    for m in default_corpus():
        if repr(m.algebra.field) not in ("GF(2)", "GF(3)"):
            continue
        for cid in BASIC_CHECKS:
            r = run_check(cid, m)
            assert r.status != FAIL, (m.member_id, cid, r.details)
            if r.status == UNSUPPORTED:
                assert m.member_id == OVER_BUDGET, (m.member_id, cid)
                continue
            assert r.status == PASS
            totals[cid] += r.hypotheses
    for cid, n in totals.items():
        assert n > 0, cid
    _stamp("4 basic weak c-ideal checks over GF(2)/GF(3)", t0, 300.0)


# ---------------------------------------------------------------------------
# criterion 5: one-dimensional classification
# ---------------------------------------------------------------------------

def test_criterion_5_one_dim_classification_reproduced():
    t0 = time.monotonic()
    corpus = default_corpus()
    cases = {}
    for m in corpus:
        for cid in ("lemma-5.1", "theorem-5.2"):
            r = run_check(cid, m)
            assert r.status != FAIL, (m.member_id, cid, r.details)
            if r.status == UNSUPPORTED:
                assert m.member_id == OVER_BUDGET, (m.member_id, cid)
                continue
            assert r.status == PASS
            if cid == "theorem-5.2":
                cases[m.member_id] = r.details["case"]
    assert cases["heisenberg-gf2"] == "case-i"
    assert cases["heisenberg-gf3"] == "case-i"
    assert cases["sum-abelian1-nonabelian2-gf2"] == "case-ii"
    assert cases["sum-abelian1-almostabelian3-gf3"] == "case-ii"
    assert cases["sl2-gf3"] == "neither"
    assert cases["sl2-gf5"] == "neither"

    # the simple member over GF(5) must exhibit a concrete line that has
    # no weak c-ideal witness at all
    L = next(m for m in corpus if m.member_id == "sl2-gf5").algebra
    verdict = classify_one_dim_weak_c(L)
    assert verdict.case == "neither"
    assert verdict.all_one_dim_weak_c is False
    assert verdict.non_witness is not None
    assert verdict.non_witness.dim == 1
    assert find_weak_c_witness(L, verdict.non_witness) is None
    _stamp("5 one-dimensional weak c-ideal classification", t0, 120.0)


# ---------------------------------------------------------------------------
# criterion 6: the characteristic-3 example
# ---------------------------------------------------------------------------

def test_criterion_6_characteristic_three_example_facts():
    t0 = time.monotonic()
    built = example34(GF(3), 3)  # Jacobi is validated at construction
    L = built.algebra
    assert L.dim == 10
    A = built.subspaces["A"]
    M = built.subspaces["M"]
    Splus = built.subspaces["Splus"]
    um1 = built.vectors["um1"]
    assert A.dim == 9 and L.is_ideal(A)
    assert M.dim == 7 and L.is_subalgebra(M)
    assert core(L, M).is_zero()
    assert um1 not in (Splus + M)

    member = next(m for m in default_corpus() if m.member_id == OVER_BUDGET)
    r = run_check("example-3.4", member)
    assert r.status == PASS and r.hypotheses == 9, r.details
    _stamp("6 characteristic-3 example facts", t0, 10.0)


# ---------------------------------------------------------------------------
# criterion 7: ideal statements over the whole corpus
# ---------------------------------------------------------------------------

def test_criterion_7_ideal_statements_never_violated():
    t0 = time.monotonic()
    corpus = default_corpus()
    for m in corpus:
        for cid in ("theorem-4.5", "lemma-4.2"):
            r = run_check(cid, m)
            assert r.status != FAIL, (m.member_id, cid, r.details)
            if r.status == UNSUPPORTED:
                assert m.member_id == OVER_BUDGET, (m.member_id, cid)
    solvable_seen = 0
    for m in corpus:
        L = m.algebra
        if repr(L.field) not in ("GF(2)", "GF(3)") or not L.is_solvable():
            continue
        r = run_check("corollary-3.3-forward", m)
        assert r.status == PASS, (m.member_id, r.status, r.details)
        assert r.hypotheses > 0, m.member_id
        solvable_seen += 1
    assert solvable_seen == 13
    _stamp("7 ideal statements over the corpus", t0, 300.0)


# ---------------------------------------------------------------------------
# criterion 8: report determinism
# ---------------------------------------------------------------------------

def test_criterion_8_verify_json_is_byte_deterministic(capsys):
    t0 = time.monotonic()
    code1 = main(["verify", "--json"])
    first = capsys.readouterr().out
    code2 = main(["verify", "--json"])
    second = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert first
    assert first.encode("utf-8") == second.encode("utf-8")
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == VERIFY_JSON_SHA256
    _stamp("8 verify --json byte determinism", t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 9: CLI contract on the golden files
# ---------------------------------------------------------------------------

def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_9_cli_contract_on_golden_files(capsys):
    t0 = time.monotonic()
    # round trip: parse -> render -> parse is a fixed point
    for name in ("heis.alg", "sl2q.alg", "ex34.alg", "sum.alg"):
        built = parse_document((DATA / name).read_text(encoding="utf-8"))
        text = render_document(built)
        again = parse_document(text)
        assert again.algebra.to_json() == built.algebra.to_json()
        assert again.algebra.labels == built.algebra.labels
        assert set(again.subspaces) == set(built.subspaces)
        for key, S in built.subspaces.items():
            assert again.subspaces[key] == S
        assert render_document(again) == text

    heis = str(DATA / "heis.alg")
    sl2q = str(DATA / "sl2q.alg")
    bad = str(DATA / "bad_jacobi.alg")

    # verdicts, both polarities, exit 0
    code, out, _ = _run_cli(
        capsys, "check", heis, "--predicate", "weak-c-ideal", "--subspace", "P"
    )
    assert code == 0 and json.loads(out)["verdict"] == "yes"
    code, out, _ = _run_cli(capsys, "check", sl2q, "--predicate", "solvable")
    assert code == 0 and json.loads(out)["verdict"] == "no"

    # unsupported enumeration over the rationals, exit 3
    code, out, _ = _run_cli(capsys, "check", sl2q, "--predicate", "simple")
    assert code == 3 and json.loads(out)["verdict"] == "unsupported"

    # usage errors, exit 2
    code, _, err = _run_cli(capsys, "check", heis, "--predicate", "core")
    assert code == 2 and "--subspace" in err
    code, _, err = _run_cli(
        capsys, "check", heis, "--predicate", "core", "--subspace", "Q9"
    )
    assert code == 2 and "Q9" in err

    # a table that is not a Lie algebra is rejected with the basis triple
    code, _, err = _run_cli(capsys, "check", bad, "--predicate", "nilpotent")
    assert code == 2 and "(1,2,3)" in err
    _stamp("9 CLI contract on golden files", t0)
