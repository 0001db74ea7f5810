"""Executable checks for the statements the library is built around, run
over a fixed corpus of small algebras.

Two kinds of check: hard invariants hold over every supported field, so any
fail is a bug in the library (each fail carries a re-checkable payload);
observational checks are statements proved only in characteristic zero,
evaluated over finite fields for the record.  They report observed-true or
observed-false and never fail.  Checks whose exhaustive search would blow
the enumeration budget report unsupported instead of guessing.

The lattice checks whose outer loop runs over every subalgebra or every
ideal (``lemma-2.4-1``, ``lemma-2.4-3``, ``lemma-2.4-4``,
``proposition-2.5``, ``lemma-2.7`` and ``lemma-3.5``) run it over one
representative per orbit of ``ideals.automorphisms(L)``
(``Lattice.orbits``) and add the orbit size where they counted one
hypothesis, so their counts stay exact; inner loops stay complete.  A fail
row names the first failing representative.
"""

import json
from dataclasses import dataclass, field as dc_field

from .corpus import (
    BuiltAlgebra,
    _sum_built,
    abelian,
    almost_abelian,
    example34,
    heisenberg,
    sl2,
    two_dim_nonabelian,
)
from .errors import BudgetExceededError, EnumerationUnsupportedError, LieIdealsError
from .exactfield import GF
from .ideals import (
    CIdealCertificate,
    core,
    find_c_witness,
    find_weak_c_witness,
    ideals_of,
    is_weak_c_ideal,
    lattice,
    subalgebras,
    subideal_chain,
    subideal_complement_mod_core,
)
from .liecore import DERIVED, LOWER_CENTRAL, LieAlgebra
from .linspace import count_subspaces, projective_points
from .structure import (
    cartan_subalgebras,
    classify_one_dim_weak_c,
    frattini,
    is_simple,
    is_supersolvable,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    minimal_ideals,
)

PASS = "pass"
FAIL = "fail"
UNSUPPORTED = "unsupported"
OBSERVED_TRUE = "observed-true"
OBSERVED_FALSE = "observed-false"


@dataclass
class CheckResult:
    check_id: str
    algebra: str
    status: str
    hypotheses: int
    details: dict = dc_field(default_factory=dict)

    def to_json(self):
        return {
            "check": self.check_id,
            "algebra": self.algebra,
            "status": self.status,
            "hypotheses": self.hypotheses,
            "details": self.details,
        }


@dataclass
class CorpusMember:
    member_id: str
    built: object  # BuiltAlgebra

    @property
    def algebra(self):
        return self.built.algebra


@dataclass
class BrokenMember:
    """A corpus entry whose construction failed.  The suite reports the
    error as a single row instead of crashing."""

    member_id: str
    error: Exception


def try_member(member_id, builder):
    """Build a corpus member, capturing construction errors (a table that
    fails Jacobi validation, bad preset parameters) as a BrokenMember."""
    try:
        built = builder()
        if not isinstance(built, BuiltAlgebra):
            built = BuiltAlgebra(built)
        return CorpusMember(member_id, built)
    except LieIdealsError as e:
        return BrokenMember(member_id, e)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _max_subs_of_max_nilp(L):
    """(C, M) pairs: C a maximal nilpotent subalgebra, M maximal in C."""
    lat = lattice(L)
    return [
        (C, M) for C in maximal_nilpotent_subalgebras(L) for M in lat.maximal_below(C)
    ]


def _premise_max_nilp_max_weak_c(L):
    """Whether every maximal subalgebra of each maximal nilpotent subalgebra
    of L is a weak c-ideal of L; also the number of pairs and the first
    violating pair."""
    pairs = _max_subs_of_max_nilp(L)
    for C, M in pairs:
        if not is_weak_c_ideal(L, M):
            return False, len(pairs), (C, M)
    return True, len(pairs), None


def _minimal_abelian_ideals(L):
    return [A for A in minimal_ideals(L) if L.product_space(A, A).is_zero()]


def _rows(S):
    return S.basis_strings()


def _flag(b):
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# hard checks: the 2.x family
# ---------------------------------------------------------------------------

def check_lemma_2_4_1(m):
    """Every ideal is a c-ideal; every c-ideal certificate upgrades to a
    valid weak c-ideal certificate."""
    L = m.algebra
    lat = lattice(L)
    hyp = 0
    for I, size in lat.orbits(ideals_of(L)):
        hyp += size
        bad = CIdealCertificate(I, L.full_space(), core(L, I)).problems(L)
        if bad:
            return FAIL, hyp, {"ideal": _rows(I), "problems": bad}
    for B, size in lat.orbits():
        cert = find_c_witness(L, B)
        if cert is None:
            continue
        hyp += size
        up = cert.to_weak(L)
        bad = up.problems(L)
        if bad or find_weak_c_witness(L, B) is None:
            return FAIL, hyp, {"B": _rows(B), "problems": bad}
    return PASS, hyp, {}


def check_lemma_2_4_2(m):
    """Weak c-simplicity coincides with simplicity (dim >= 2)."""
    L = m.algebra
    if L.dim < 2:
        return PASS, 0, {"note": "degenerate dimension, statement vacuous"}
    simple = is_simple(L)
    hyp = 0
    weak_c_simple = True
    witness = None
    for B in subalgebras(L):
        hyp += 1
        if B.dim in (0, L.dim):
            continue
        if is_weak_c_ideal(L, B):
            weak_c_simple = False
            witness = B
            break
    if weak_c_simple != simple:
        return FAIL, hyp, {
            "simple": _flag(simple),
            "weak_c_simple": weak_c_simple,
            "witness": None if witness is None else _rows(witness),
        }
    return PASS, hyp, {"simple": _flag(simple)}


def check_lemma_2_4_3(m):
    """A weak c-ideal of L is a weak c-ideal of every intermediate
    subalgebra."""
    L = m.algebra
    lat = lattice(L)
    hyp = 0
    for B, size in lat.orbits():
        if not is_weak_c_ideal(L, B):
            continue
        for K in lat.containing(B):
            hyp += size
            Lk, smap = L.restrict(K)
            if find_weak_c_witness(Lk, smap.project_subspace(B)) is None:
                return FAIL, hyp, {"B": _rows(B), "K": _rows(K)}
    return PASS, hyp, {}


def check_lemma_2_4_4(m):
    """For an ideal I inside B: B is a weak c-ideal of L iff B/I is one of
    L/I."""
    L = m.algebra
    lat = lattice(L)
    hyp = 0
    for I, size in lat.orbits(ideals_of(L)):
        Lq, smap = L.quotient(I)
        for B in lat.containing(I):
            hyp += size
            below = is_weak_c_ideal(L, B)
            Bq = smap.project_subspace(B)
            above = find_weak_c_witness(Lq, Bq) is not None
            if below != above:
                return FAIL, hyp, {
                    "I": _rows(I),
                    "B": _rows(B),
                    "weak_c_in_L": below,
                    "weak_c_in_quotient": above,
                }
    return PASS, hyp, {}


def check_proposition_2_5(m):
    """B <= F(C) and B a weak c-ideal force B an ideal inside phi(L)."""
    L = m.algebra
    phi_L = frattini(L)[1]
    lat = lattice(L)
    hyp = 0
    for C, size in lat.orbits():
        FC = C
        for M in lat.maximal_below(C):
            FC = FC & M
        for B in lat.inside(FC):
            if not is_weak_c_ideal(L, B):
                continue
            hyp += size
            if not L.is_ideal(B) or not B <= phi_L:
                return FAIL, hyp, {
                    "C": _rows(C),
                    "frattini_of_C": _rows(FC),
                    "B": _rows(B),
                    "is_ideal": L.is_ideal(B),
                    "phi_L": _rows(phi_L),
                }
    return PASS, hyp, {}


def check_lemma_2_7(m):
    """Weak c-ideal existence coincides with a subideal complement modulo
    the core."""
    L = m.algebra
    hyp = 0
    for B, size in lattice(L).orbits():
        hyp += size
        has_witness = is_weak_c_ideal(L, B)
        K = subideal_complement_mod_core(L, B)
        if has_witness != (K is not None):
            return FAIL, hyp, {
                "B": _rows(B),
                "weak_c": has_witness,
                "complement": None if K is None else _rows(K),
            }
        if K is not None:
            core_B = core(L, B)
            ok = (B + K) == L.full_space() and (B & K) <= core_B
            if not ok:
                return FAIL, hyp, {"B": _rows(B), "complement": _rows(K)}
    return PASS, hyp, {}


# ---------------------------------------------------------------------------
# hard checks: the 3.x/4.x families, field-independent directions
# ---------------------------------------------------------------------------

def check_theorem_3_2_forward(m):
    """For a solvable ideal B, every maximal subalgebra not containing B is
    a c-ideal (the construction via derived powers of B)."""
    L = m.algebra
    maxes = maximal_subalgebras(L)
    hyp = 0
    for B in ideals_of(L):
        if not L.is_solvable(B):
            continue
        for M in maxes:
            if B <= M:
                continue
            hyp += 1
            if find_c_witness(L, M) is None:
                return FAIL, hyp, {"B": _rows(B), "M": _rows(M)}
    return PASS, hyp, {}


def check_corollary_3_3_forward(m):
    """Solvable algebras: every maximal subalgebra is a weak c-ideal."""
    L = m.algebra
    if not L.is_solvable():
        return PASS, 0, {"note": "not solvable, hypothesis empty"}
    hyp = 0
    for M in maximal_subalgebras(L):
        hyp += 1
        if not is_weak_c_ideal(L, M):
            return FAIL, hyp, {"M": _rows(M)}
    return PASS, hyp, {}


def check_lemma_3_5(m):
    """L = U + C with U solvable and C a subideal puts some derived power
    of L inside C."""
    L = m.algebra
    lat = lattice(L)
    derived = L.series(DERIVED)
    hyp = 0
    for C, size in lat.orbits():
        if subideal_chain(L, C) is None:
            continue
        for U in lat.complements(C, C):
            if not L.is_solvable(U):
                continue
            hyp += size
            if derived.min_index_inside(C) is None:
                return FAIL, hyp, {"U": _rows(U), "C": _rows(C)}
    return PASS, hyp, {}


def check_lemma_4_1(m):
    """Maximal nilpotent subalgebras of L/A lift: U = C + A with C maximal
    nilpotent in L."""
    L = m.algebra
    maxnilp = maximal_nilpotent_subalgebras(L)
    hyp = 0
    for A in ideals_of(L):
        Lq, smap = L.quotient(A)
        for Ubar in maximal_nilpotent_subalgebras(Lq):
            hyp += 1
            U = smap.preimage_subspace(Ubar)
            if not any(C + A == U for C in maxnilp):
                return FAIL, hyp, {"A": _rows(A), "U": _rows(U)}
    return PASS, hyp, {}


def check_lemma_4_2(m):
    """L = B + K, B nilpotent, K an ideal: a lower-central power of L lands
    in K, and every minimal ideal A has A <= K or [L, A] = 0.

    K ranges over ideals, not subideals: for K merely a subideal both
    clauses can fail, and a three-dimensional witness exists (a central
    line z added to the nonabelian algebra [x, y] = y, with B = <z, x> and
    K = <z + y>, a two-step subideal; every lower-central power of L is
    <y>).  With K an ideal, L/K is a homomorphic image of the nilpotent B,
    which gives the power clause, and a minimal ideal A with [L, A] = A
    satisfies A <= L^s for every s.
    """
    L = m.algebra
    full = L.full_space()
    lat = lattice(L)
    mins = minimal_ideals(L)
    lower = L.series(LOWER_CENTRAL)
    hyp = 0
    for K in ideals_of(L):
        for B in lat.complements(K, K):
            if not L.is_nilpotent(B):
                continue
            hyp += 1
            if lower.min_index_inside(K) is None:
                return FAIL, hyp, {"B": _rows(B), "K": _rows(K), "clause": "power"}
            for A in mins:
                if not A <= K and not L.product_space(full, A).is_zero():
                    return FAIL, hyp, {
                        "B": _rows(B),
                        "K": _rows(K),
                        "A": _rows(A),
                        "clause": "minimal-ideal",
                    }
    return PASS, hyp, {}


def check_lemma_4_3(m):
    """The weak c-ideal property for maximal subalgebras of maximal
    nilpotent subalgebras passes to quotients by minimal abelian ideals."""
    L = m.algebra
    holds, _, _ = _premise_max_nilp_max_weak_c(L)
    if not holds:
        return PASS, 0, {"note": "hypothesis fails, statement vacuous"}
    hyp = 0
    for A in _minimal_abelian_ideals(L):
        ok, pairs, violation = _premise_max_nilp_max_weak_c(L.quotient(A)[0])
        hyp += pairs
        if not ok:
            C, M = violation
            return FAIL, hyp, {
                "A": _rows(A),
                "C_in_quotient": _rows(C),
                "M_in_quotient": _rows(M),
            }
    return PASS, hyp, {}


def check_lemma_4_4(m):
    """Under the maximal-nilpotent weak c-ideal hypothesis, a minimal
    abelian ideal is one dimensional whenever L has a core-free maximal
    subalgebra.

    The hypothesis used here is the one the argument actually consumes:
    every maximal subalgebra of each maximal nilpotent subalgebra is a weak
    c-ideal.
    """
    L = m.algebra
    holds, _, _ = _premise_max_nilp_max_weak_c(L)
    if not holds:
        return PASS, 0, {"note": "hypothesis fails, statement vacuous"}
    corefree = [M for M in maximal_subalgebras(L) if core(L, M).is_zero()]
    if not corefree:
        return PASS, 0, {"note": "no core-free maximal subalgebra"}
    hyp = 0
    for A in _minimal_abelian_ideals(L):
        for M in corefree:
            hyp += 1
            if A.dim != 1:
                return FAIL, hyp, {"A": _rows(A), "M": _rows(M), "dim_A": A.dim}
    return PASS, hyp, {}


def check_theorem_4_5(m):
    """Solvable algebras satisfying the maximal-nilpotent weak c-ideal
    hypothesis are supersolvable."""
    L = m.algebra
    if not L.is_solvable():
        return PASS, 0, {"note": "not solvable, hypothesis empty"}
    holds, pairs, _ = _premise_max_nilp_max_weak_c(L)
    if not holds:
        return PASS, pairs, {"note": "hypothesis fails, statement vacuous"}
    if not is_supersolvable(L):
        return FAIL, pairs, {"supersolvable": "false"}
    return PASS, pairs, {}


# ---------------------------------------------------------------------------
# hard checks: the 5.x family and the characteristic-p example
# ---------------------------------------------------------------------------

def _lines(L):
    """The one-dimensional subalgebras of L, one per projective point."""
    for v in projective_points(L.field, L.dim):
        yield L.span_vecs([v])


def check_lemma_5_1(m):
    """One-dimensional subalgebras: weak c-ideal iff c-ideal."""
    L = m.algebra
    hyp = 0
    for B in _lines(L):
        hyp += 1
        weak = is_weak_c_ideal(L, B)
        strong = find_c_witness(L, B) is not None
        if weak != strong:
            return FAIL, hyp, {"B": _rows(B), "weak": weak, "c_ideal": strong}
    return PASS, hyp, {}


def check_theorem_5_2(m):
    """All one-dimensional subalgebras are weak c-ideals iff L^3 = 0 or
    L splits as abelian ideal + almost abelian ideal: the structural
    classification against the scan over every line."""
    L = m.algebra
    verdict = classify_one_dim_weak_c(L)
    try:
        non_witness = next((B for B in _lines(L) if not is_weak_c_ideal(L, B)), None)
    except BudgetExceededError:
        return UNSUPPORTED, 0, {
            "case": verdict.case,
            "reason": "one-dimensional scan out of budget",
        }
    all_weak = non_witness is None
    hyp = count_subspaces(L.field, L.dim, (1,))
    if (verdict.case != "neither") != all_weak:
        return FAIL, hyp, {
            **verdict.to_json(),
            "all_one_dim_weak_c": all_weak,
            "non_witness": None if all_weak else non_witness.basis_strings(),
        }
    return PASS, hyp, {"case": verdict.case, "all_one_dim_weak_c": all_weak}


def check_example_3_4(m):
    """The stated linear-algebra facts of the characteristic-p example:
    A is an ideal of dimension 3p not inside the (2p+1)-dimensional
    subalgebra M, the core of M is zero, Splus is an ideal of A (hence a
    subideal of L), and u_{-1} ox 1 avoids Splus + M.

    The last two facts are what defeat any candidate witness C for M: a
    subideal meeting M trivially is forced inside Splus, and then C + M
    misses u_{-1} ox 1, so it is never the whole algebra.
    """
    if "A" not in m.built.subspaces:
        return PASS, 0, {"note": "not the example-3.4 construction"}
    L = m.algebra
    A = m.built.subspaces["A"]
    M = m.built.subspaces["M"]
    Splus = m.built.subspaces["Splus"]
    um1 = m.built.vectors["um1"]
    p = L.field.p
    facts = [
        ("A_dim", A.dim == 3 * p),
        ("A_ideal", L.is_ideal(A)),
        ("A_not_inside_M", not A <= M),
        ("M_dim", M.dim == 2 * p + 1),
        ("M_subalgebra", L.is_subalgebra(M)),
        ("core_M_zero", core(L, M).is_zero()),
        ("Splus_ideal_of_A", L.product_space(A, Splus) <= Splus),
        ("Splus_subideal", subideal_chain(L, Splus) is not None),
        ("um1_outside_Splus_plus_M", um1 not in (Splus + M)),
    ]
    failed = [name for name, ok in facts if not ok]
    if failed:
        return FAIL, len(facts), {"failed": failed}
    return PASS, len(facts), {name: True for name, _ in facts}


# ---------------------------------------------------------------------------
# observational checks (characteristic-zero statements)
# ---------------------------------------------------------------------------

def observe_theorem_3_2(m):
    """For every ideal B: B solvable iff every maximal subalgebra not
    containing B is a weak c-ideal."""
    L = m.algebra
    maxes = maximal_subalgebras(L)
    hyp = 0
    for B in ideals_of(L):
        hyp += 1
        lhs = L.is_solvable(B)
        rhs = all(is_weak_c_ideal(L, M) for M in maxes if not B <= M)
        if lhs != rhs:
            return False, hyp, {"B": _rows(B), "solvable": lhs, "all_weak_c": rhs}
    return True, hyp, {}


def observe_corollary_3_3(m):
    """L solvable iff every maximal subalgebra is a weak c-ideal."""
    L = m.algebra
    maxes = maximal_subalgebras(L)
    rhs = all(is_weak_c_ideal(L, M) for M in maxes)
    lhs = L.is_solvable()
    ok = lhs == rhs
    return ok, len(maxes), {} if ok else {"solvable": lhs, "all_weak_c": rhs}


def observe_theorem_3_6(m):
    """A solvable maximal subalgebra that is a weak c-ideal exists iff L is
    solvable."""
    L = m.algebra
    maxes = maximal_subalgebras(L)
    lhs = any(L.is_solvable(M) and is_weak_c_ideal(L, M) for M in maxes)
    rhs = L.is_solvable()
    ok = lhs == rhs
    return ok, len(maxes), {} if ok else {"witness_exists": lhs, "solvable": rhs}


def observe_theorem_3_7(m):
    """All maximal nilpotent subalgebras weak c-ideals forces solvability."""
    L = m.algebra
    nilps = maximal_nilpotent_subalgebras(L)
    if not all(is_weak_c_ideal(L, U) for U in nilps):
        return True, 0, {"note": "hypothesis fails, statement vacuous"}
    ok = L.is_solvable()
    return ok, len(nilps), {} if ok else {"solvable": False}


def observe_theorem_3_8(m):
    """All Cartan subalgebras weak c-ideals forces solvability."""
    L = m.algebra
    cartans = cartan_subalgebras(L)
    if not all(is_weak_c_ideal(L, H) for H in cartans):
        return True, 0, {"note": "hypothesis fails, statement vacuous"}
    ok = L.is_solvable()
    return ok, len(cartans), {} if ok else {"solvable": False}


def observe_corollary_4_6(m):
    """Maximal nilpotent subalgebras all of dimension at least two plus the
    weak c-ideal hypothesis forces supersolvability."""
    L = m.algebra
    nilps = maximal_nilpotent_subalgebras(L)
    if any(C.dim < 2 for C in nilps):
        return True, 0, {"note": "a maximal nilpotent subalgebra is a line"}
    holds, pairs, _ = _premise_max_nilp_max_weak_c(L)
    if not holds:
        return True, 0, {"note": "hypothesis fails, statement vacuous"}
    ok = is_supersolvable(L)
    return ok, pairs, {} if ok else {"supersolvable": "false"}


def observe_corollary_4_7(m):
    """The weak c-ideal hypothesis forces supersolvable or three-dimensional
    simple."""
    L = m.algebra
    holds, pairs, _ = _premise_max_nilp_max_weak_c(L)
    if not holds:
        return True, 0, {"note": "hypothesis fails, statement vacuous"}
    ss = is_supersolvable(L)
    simple3 = not ss and L.dim == 3 and is_simple(L)
    ok = ss or simple3
    return ok, pairs, {} if ok else {"supersolvable": "false", "simple3": simple3}


def observe_example34_minimal(m):
    """Spinning oracle on the example: is A the unique minimal ideal over
    the non-closed prime field?  The hypothesis count is the number of
    projective points of L, the space the answer covers, not the number
    of points spun."""
    if "A" not in m.built.subspaces:
        return True, 0, {"note": "not the example-3.4 construction"}
    L = m.algebra
    mins = minimal_ideals(L)
    A = m.built.subspaces["A"]
    ok = mins == [A]
    return ok, count_subspaces(L.field, L.dim, (1,)), {
        "minimal_ideal_dims": [S.dim for S in mins],
        "unique_and_equals_A": ok,
    }


# ---------------------------------------------------------------------------
# registry and runners
# ---------------------------------------------------------------------------

HARD_CHECKS = {
    "lemma-2.4-1": check_lemma_2_4_1,
    "lemma-2.4-2": check_lemma_2_4_2,
    "lemma-2.4-3": check_lemma_2_4_3,
    "lemma-2.4-4": check_lemma_2_4_4,
    "proposition-2.5": check_proposition_2_5,
    "lemma-2.7": check_lemma_2_7,
    "theorem-3.2-forward": check_theorem_3_2_forward,
    "corollary-3.3-forward": check_corollary_3_3_forward,
    "example-3.4": check_example_3_4,
    "lemma-3.5": check_lemma_3_5,
    "lemma-4.1": check_lemma_4_1,
    "lemma-4.2": check_lemma_4_2,
    "lemma-4.3": check_lemma_4_3,
    "lemma-4.4": check_lemma_4_4,
    "theorem-4.5": check_theorem_4_5,
    "lemma-5.1": check_lemma_5_1,
    "theorem-5.2": check_theorem_5_2,
}

OBSERVATIONAL_CHECKS = {
    "theorem-3.2": observe_theorem_3_2,
    "corollary-3.3": observe_corollary_3_3,
    "theorem-3.6": observe_theorem_3_6,
    "theorem-3.7": observe_theorem_3_7,
    "theorem-3.8": observe_theorem_3_8,
    "corollary-4.6": observe_corollary_4_6,
    "corollary-4.7": observe_corollary_4_7,
    "example34-minimal-ideals": observe_example34_minimal,
}

ALL_CHECK_IDS = sorted(list(HARD_CHECKS) + list(OBSERVATIONAL_CHECKS))


def run_check(check_id, member):
    """Run one check on one corpus member.  A predicate or search that gives
    up raises BudgetExceededError or EnumerationUnsupportedError; the cell
    then reports unsupported, with the bound that stopped it as reason."""
    try:
        if check_id in HARD_CHECKS:
            status, hyp, details = HARD_CHECKS[check_id](member)
        elif check_id in OBSERVATIONAL_CHECKS:
            ok, hyp, details = OBSERVATIONAL_CHECKS[check_id](member)
            status = OBSERVED_TRUE if ok else OBSERVED_FALSE
        else:
            raise KeyError(f"unknown check id {check_id!r}")
        return CheckResult(check_id, member.member_id, status, hyp, details)
    except (BudgetExceededError, EnumerationUnsupportedError) as e:
        return CheckResult(
            check_id, member.member_id, UNSUPPORTED, 0, {"reason": str(e)}
        )


def default_corpus():
    """The fixed suite corpus: small algebras over GF(2)/GF(3)/GF(5) plus
    the dimension-10 characteristic-3 example."""
    g2, g3, g5 = GF(2), GF(3), GF(5)
    # solvable but not supersolvable: ad(x) acts irreducibly on span(a, b)
    torus = LieAlgebra(
        g2,
        3,
        {(0, 1): (0, 0, 1), (0, 2): (0, 1, 1)},
        labels=["x", "a", "b"],
    )
    members = [
        CorpusMember("abelian1-gf2", abelian(g2, 1)),
        CorpusMember("abelian2-gf2", abelian(g2, 2)),
        CorpusMember("abelian2-gf3", abelian(g3, 2)),
        CorpusMember("nonabelian2-gf2", two_dim_nonabelian(g2)),
        CorpusMember("nonabelian2-gf3", two_dim_nonabelian(g3)),
        CorpusMember("heisenberg-gf2", heisenberg(g2)),
        CorpusMember("heisenberg-gf3", heisenberg(g3)),
        CorpusMember("almostabelian3-gf2", almost_abelian(g2, 3)),
        CorpusMember("almostabelian3-gf3", almost_abelian(g3, 3)),
        CorpusMember(
            "sum-abelian1-nonabelian2-gf2",
            _sum_built(g2, abelian(g2, 1), two_dim_nonabelian(g2)),
        ),
        CorpusMember(
            "sum-abelian1-almostabelian3-gf3",
            _sum_built(g3, abelian(g3, 1), almost_abelian(g3, 3)),
        ),
        CorpusMember(
            "sum-heisenberg-abelian1-gf2",
            _sum_built(g2, heisenberg(g2), abelian(g2, 1)),
        ),
        CorpusMember("solvable-not-supersolvable-gf2", BuiltAlgebra(torus)),
        CorpusMember("sl2-gf3", sl2(g3)),
        CorpusMember("sl2-gf5", sl2(g5)),
        CorpusMember("example34-3", example34(g3, 3)),
    ]
    return members


@dataclass
class Report:
    results: list

    @property
    def counts(self):
        out = {}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    @property
    def exit_code(self):
        return 1 if any(r.status == FAIL for r in self.results) else 0

    def to_json(self):
        return {
            "results": [r.to_json() for r in self.results],
            "counts": dict(sorted(self.counts.items())),
        }

    def json_text(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def text_table(self):
        lines = []
        wid = max((len(r.check_id) for r in self.results), default=10) + 2
        aid = max((len(r.algebra) for r in self.results), default=10) + 2
        for r in self.results:
            lines.append(
                f"{r.check_id:<{wid}}{r.algebra:<{aid}}{r.status:<16}"
                f"hypotheses={r.hypotheses}"
            )
        c = self.counts
        lines.append("")
        lines.append(
            "total={} pass={} fail={} unsupported={} observed-true={} "
            "observed-false={}".format(
                len(self.results),
                c.get(PASS, 0),
                c.get(FAIL, 0),
                c.get(UNSUPPORTED, 0),
                c.get(OBSERVED_TRUE, 0),
                c.get(OBSERVED_FALSE, 0),
            )
        )
        return "\n".join(lines) + "\n"


def run_suite(members=None, check_ids=None):
    """Run every registered check over every corpus member; deterministic
    row order by (algebra, check).  A BrokenMember contributes one
    construction row and is otherwise skipped."""
    if members is None:
        members = default_corpus()
    if check_ids is None:
        check_ids = ALL_CHECK_IDS
    results = []
    for member in sorted(members, key=lambda m: m.member_id):
        if isinstance(member, BrokenMember):
            results.append(
                CheckResult(
                    "construction", member.member_id, FAIL, 0,
                    {"error": str(member.error)},
                )
            )
            continue
        for check_id in sorted(check_ids):
            results.append(run_check(check_id, member))
    return Report(results)
