"""Structure-theoretic predicates: nilpotency, solvability, supersolvability,
simplicity, minimal ideals, maximal and Cartan subalgebras, the Frattini
subalgebra, and the classifier for algebras whose one-dimensional subalgebras
are all weak c-ideals.

Predicates that need exhaustive search are restricted to prime fields within
an explicit budget; everything else works over any supported field.  A
predicate that cannot decide raises BudgetExceededError or
EnumerationUnsupportedError rather than guessing; the front ends turn the
raise into "unsupported".

Norton's test works in L's coordinates: its test element is the list of
its images of V's basis, and its dual step is the closure under
``L.transposed_ad_images`` that ``ideals.core`` runs.  The characteristic
polynomial and eigenspaces of ad(x) keep a matrix as the list of its
columns.  All of it runs on vectors of ``field.space(n)`` through the
``linspace`` kernel.  Over Q the root search factors coefficients by trial
division, at most ``budget`` steps each.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BudgetExceededError, EnumerationUnsupportedError
from .exactfield import PrimeField
from .ideals import core, find_weak_c_witness, lattice, subalgebras
from .liecore import LOWER_CENTRAL
from .linspace import (
    DEFAULT_BUDGET,
    EchelonBasis,
    Subspace,
    annihilator,
    check_enumeration,
    closure,
    kernel,
    projective_points,
    right_kernel,
    rref,
    solve,
    span_vecs,
)


# ---------------------------------------------------------------------------
# spinning, minimal ideals and simplicity
# ---------------------------------------------------------------------------

def spin(L, v):
    """Smallest ideal of L containing v (adjoint-invariant closure)."""
    return closure(L.field, L.dim, [v], L.ad_images)


def _points(S):
    """One vector of S per line of S, in ambient coordinates."""
    f = S.field
    W = f.space(S.dim)
    for c in projective_points(f, S.dim):
        yield S.space.lin_comb(W.unpack(c), S.vecs)


def _norton(L, V):
    """Norton's irreducibility test for a nonzero ideal V as an ad(L)-module.

    True when V is a minimal ideal, False when it properly contains a
    nonzero ideal, None when no test element qualifies.  The test element
    is theta = ad(e_i) - lam on V, given by its images of V's basis, of
    least nullity k with 0 < k < dim V (first i, then lam, breaks ties).
    V is irreducible exactly when every line of ker theta spins to V and
    core's dual closure of ann(V) and one y in ann(im theta) outside ann(V)
    is full: a proper ideal W meeting ker theta in 0 has theta(W) = W
    inside im theta, so y vanishes on W, and the closure lies in ann(W).
    """
    f, space, n, d = L.field, L.space, L.dim, V.dim
    # row a of images is ad_images(v_a): entry i is [e_i, v_a], in V
    images = [L.ad_images(v) for v in V.vecs]
    best = None
    for i in range(n):
        for lam in f.elements():
            theta = [space.submul(w[i], lam, v) if lam else w[i]
                     for w, v in zip(images, V.vecs)]
            k = d - len(rref(f, [space.unpack(c) for c in theta])[1])
            if 0 < k < d and (best is None or k < best[0]):
                best = (k, theta)
    if best is None:
        return None
    theta, coords = best[1], f.space(d)
    ker = kernel(f, d, theta, n).vecs
    ker = span_vecs(f, n, [space.lin_comb(coords.unpack(c), V.vecs) for c in ker])
    if any(spin(L, v).dim < d for v in _points(ker)):
        return False
    ann = annihilator(V)
    y = next(y for y in right_kernel(f, theta, n) if y not in ann)
    return closure(f, n, [y, *ann.vecs], L.transposed_ad_images).is_full()


def minimal_ideals(L, budget=DEFAULT_BUDGET):
    """Minimal nonzero ideals, exactly, over prime fields.

    A central minimal ideal is a line of the centre, and every such line is
    an ideal.  A non-central minimal ideal M has [L, M] = M, so it lies in
    every lower-central term and in their limit V.  When Norton's test
    shows V irreducible, V is the only non-central one; otherwise they are
    the minimal spins of the vectors of V, since a minimal ideal is the
    spin of each of its nonzero vectors.  The budget gates the lines of L,
    the space the answer covers, even though fewer are spun.
    """
    check_enumeration(L.field, L.dim, budget, (1,))
    found = {L.span_vecs([z]) for z in _points(L.center())}
    V = L.series(LOWER_CENTRAL).terms[-1]
    if not V.is_zero():
        if _norton(L, V):
            found.add(V)
        else:
            spins = {spin(L, v) for v in _points(V)}
            found.update(
                S for S in spins if not any(T.dim < S.dim and T <= S for T in spins)
            )
    return sorted(found, key=lambda S: S.sort_key())


def is_simple(L, budget=DEFAULT_BUDGET):
    """Simple iff dim > 1, L = [L, L] and every nonzero vector spins to the
    whole algebra, which Norton's test decides on V = L.  Gated like
    :func:`minimal_ideals`, by the lines of L."""
    check_enumeration(L.field, L.dim, budget, (1,))
    if L.dim <= 1:
        return False
    full = L.full_space()
    if L.product_space(full, full) != full:
        return False
    # Norton's test always decides here: ad(e_i) kills e_i, and some ad(e_i)
    # is nonzero because L = [L, L] is not abelian
    irreducible = _norton(L, full)
    assert irreducible is not None
    return irreducible


# ---------------------------------------------------------------------------
# supersolvability
# ---------------------------------------------------------------------------

def _ad_columns(L, x):
    """The columns [x, e_j] of ad(x): minus the images [e_j, x]."""
    return [L.space.neg(w) for w in L.ad_images(x)]


def _char_poly(L, x):
    """Characteristic polynomial coefficients c_0..c_n (monic) of ad(x),
    exact.

    Faddeev-LeVerrier on the columns of A M_k, with A = ad(x),
    M_k = A M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(A M_k) / k.  Needs
    division by integers, so characteristic 0 only.
    """
    f, space, n = L.field, L.space, L.dim
    A = _ad_columns(L, x)
    coeffs = [f.zero] * (n + 1)
    coeffs[n] = c = f.one
    AM = [space.zero] * n  # the columns of A M_0, M_0 = 0
    for k in range(1, n + 1):
        # A M_k e_j = A (A M_(k-1) e_j) + c A e_j
        AM = [space.add(space.lin_comb(space.unpack(m), A), space.scale(c, a))
              for m, a in zip(AM, A)]
        tr = sum(space.entry(m, j) for j, m in enumerate(AM))
        c = coeffs[n - k] = f.norm(-tr * f.inv(k))
    return coeffs


def _divisors(m, budget):
    """The positive divisors of m, by at most ``budget`` trial divisions
    (None: no limit): refused when |m| exceeds budget squared."""
    m = abs(m)
    if budget is not None and m > budget * budget:
        raise EnumerationUnsupportedError(
            f"rational root search needs the divisors of {m}, cap is {budget * budget}"
        )
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            out.append(m // d)
        d += 1
    return sorted(set(out))


def _rational_roots(coeffs, budget):
    """All rational roots of a nonzero polynomial with Fraction
    coefficients.  Raises EnumerationUnsupportedError when a coefficient to
    factor is beyond the divisor cap, or when the candidates ±num/den
    outnumber the budget (None: no limit).  The divisor cap is the budget
    squared, so that the trial division of a coefficient makes at most
    ``budget`` steps."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []  # zero polynomial: callers never pass it
    roots = set()
    # strip zero roots
    shift = 0
    while ints[shift] == 0:
        roots.add(Fraction(0))
        shift += 1
    ints = ints[shift:]
    if len(ints) == 1:
        return sorted(roots)
    nums, dens = _divisors(ints[0], budget), _divisors(ints[-1], budget)
    count = 2 * len(nums) * len(dens)
    if budget is not None and count > budget:
        raise EnumerationUnsupportedError(
            f"rational root search needs {count} candidates, budget is {budget}"
        )
    for num in nums:
        for den in dens:
            for cand in (Fraction(num, den), Fraction(-num, den)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


def _eigenspace(L, x, lam):
    """ker(ad(x) - lam): the kernel of the columns [x, e_j] - lam e_j."""
    space = L.space
    cols = _ad_columns(L, x)
    if lam:
        cols = [space.submul(c, lam, space.unit(j)) for j, c in enumerate(cols)]
    return kernel(L.field, L.dim, cols, L.dim)


def _find_line_ideal_rational(L, budget):
    """Common rational eigenvector search; returns a line ideal, or None
    when there is none."""
    spaces = [L.full_space()]
    for i in range(L.dim):
        x = L.space.unit(i)
        eigen = [_eigenspace(L, x, lam) for lam in _rational_roots(_char_poly(L, x), budget)]
        refined = set()
        for W in spaces:
            for E in eigen:
                X = W & E
                if X.dim > 0:
                    refined.add(X)
        if not refined:
            return None
        spaces = sorted(refined, key=lambda S: S.sort_key())
    line = L.span_vecs(spaces[0].vecs[:1])
    assert L.product_space(L.full_space(), line) <= line
    return line


def is_supersolvable(L, budget=DEFAULT_BUDGET):
    """Existence of a flag of ideals of L with one-dimensional steps.

    Greedy recursion on any one-dimensional ideal is complete because
    supersolvability passes to quotients and lifts back along them.  Over
    GF(p) the line is a one-dimensional minimal ideal: every minimal ideal M
    of a supersolvable L is a line, since for the least i with M ∩ L_i != 0
    in a flag of ideals, M embeds in L_i/L_{i-1}.  Over Q the eigenvector
    search raises when its root extraction gives up or has more candidate
    roots than the budget.
    """
    if L.dim == 0 or L.is_nilpotent():
        return True
    if not L.is_solvable():
        return False
    if isinstance(L.field, PrimeField):
        line = next((M for M in minimal_ideals(L, budget) if M.dim == 1), None)
    else:
        line = _find_line_ideal_rational(L, budget)
    if line is None:
        return False
    return is_supersolvable(L.quotient(line)[0], budget)


# ---------------------------------------------------------------------------
# lattice-derived families
# ---------------------------------------------------------------------------

def maximal_subalgebras(L, budget=DEFAULT_BUDGET):
    def build():
        return lattice(L, budget).maximal_below(L.full_space())

    return L.memo("maximal_subalgebras", build, budget)


def frattini(L, budget=DEFAULT_BUDGET):
    """(F(L), phi(L)): intersection of all maximal subalgebras, and its core."""
    def build():
        F = L.full_space()
        for M in maximal_subalgebras(L, budget):
            F = F & M
        return (F, core(L, F))

    return L.memo("frattini", build, budget)


def nilpotent_subalgebras(L, budget=DEFAULT_BUDGET):
    def build():
        return [S for S in subalgebras(L, budget) if L.is_nilpotent(S)]

    return L.memo("nilpotent_subalgebras", build, budget)


def maximal_nilpotent_subalgebras(L, budget=DEFAULT_BUDGET):
    def build():
        return lattice(L, budget).maximal(nilpotent_subalgebras(L, budget))

    return L.memo("maximal_nilpotent_subalgebras", build, budget)


def cartan_subalgebras(L, budget=DEFAULT_BUDGET):
    """Nilpotent self-normalizing subalgebras."""
    def build():
        return [
            S
            for S in nilpotent_subalgebras(L, budget)
            if L.normalizer(S) == S
        ]

    return L.memo("cartan_subalgebras", build, budget)


# ---------------------------------------------------------------------------
# almost abelian algebras and the one-dimensional weak-c classifier
# ---------------------------------------------------------------------------

def _ad_identity_solution(L, W):
    """Some x with [x, w] = w for every w in W, or None.

    Stacks the linear system over the coordinates of x; any solution works.
    """
    f, space = L.field, L.space
    n = L.dim
    rows = []
    rhs = []
    for w in W.vecs:
        # coefficient of x_i in [x, w] is [e_i, w]
        cols = [space.unpack(img) for img in L.ad_images(w)]
        rows.extend(zip(*cols))
        rhs.extend(space.unpack(w))
    x = solve(f, rows, rhs, n)
    return None if x is None else space.pack(x)


def almost_abelian_part(L):
    """The x with L = L^2 + Fx and [x, y] = y on L^2, or None."""
    der = L.product_space(L.full_space(), L.full_space())
    if L.dim != der.dim + 1:
        return None
    if not L.product_space(der, der).is_zero():
        return None
    if der.dim == 0:
        return L.space.unit(0)
    return _ad_identity_solution(L, der)


def is_almost_abelian(L):
    return almost_abelian_part(L) is not None


@dataclass
class OneDimClassification:
    """Outcome of the classifier for algebras all of whose one-dimensional
    subalgebras are weak c-ideals."""

    case: str  # "case-i" | "case-ii" | "neither"
    A: Optional[Subspace]
    B: Optional[Subspace]
    all_one_dim_weak_c: Optional[bool]
    agrees: Optional[bool]
    non_witness: Optional[Subspace] = None  # a line that is not a weak c-ideal

    def to_json(self):
        return {
            "case": self.case,
            "A": None if self.A is None else self.A.basis_strings(),
            "B": None if self.B is None else self.B.basis_strings(),
            "all_one_dim_weak_c": self.all_one_dim_weak_c,
            "agrees": self.agrees,
            "non_witness": None
            if self.non_witness is None
            else self.non_witness.basis_strings(),
        }


def _case_ii_split(L):
    """L = A (+) B with A an abelian ideal and B an almost abelian ideal,
    as (A, B), or None.

    Any such A centralizes B, so A lies in the center; B must be
    L^2 + Fx for a solution x of [x, .] = id on L^2.
    """
    f = L.field
    full = L.full_space()
    der = L.product_space(full, full)
    if der.dim == 0:
        return None  # B would be one-dimensional with B^2 = L^2 = 0: case i
    if not L.product_space(der, der).is_zero():
        return None
    x0 = _ad_identity_solution(L, der)
    if x0 is None:
        return None
    Z = L.center()
    H = Z + der
    if H.dim < L.dim - 1:
        return None
    if H.dim == L.dim:
        x = x0
    else:
        # need a solution outside the hyperplane H; solutions form
        # x0 + centralizer(L^2)
        if x0 not in H:
            x = x0
        else:
            Wc = L.centralizer(der)
            x = None
            for w in Wc.vecs:
                if w not in H:
                    x = L.space.add(x0, w)
                    break
            if x is None:
                return None
    B = der + L.span_vecs([x])
    ZB = Z & B
    eb = EchelonBasis(f, L.dim)
    for r in ZB.vecs:
        eb.add(r)
    A = L.span_vecs([z for z in Z.vecs if eb.add(z)])
    assert (A & B).dim == 0 and (A + B) == full
    assert L.product_space(full, A) <= A and L.product_space(full, B) <= B
    assert is_almost_abelian(L.restrict(B)[0])
    return (A, B)


def classify_one_dim_weak_c(L, budget=DEFAULT_BUDGET):
    """Structural trichotomy behind "every one-dimensional subalgebra is a
    weak c-ideal": third lower-central term zero, or a split into an abelian
    ideal plus an almost abelian ideal, or neither.

    Over prime fields (within budget) the exhaustive one-dimensional search
    cross-checks the equivalence; over the rationals only the structural
    classification runs.
    """
    full = L.full_space()
    der = L.product_space(full, full)
    lc3 = L.product_space(full, der)
    if lc3.dim == 0:
        verdict = OneDimClassification("case-i", None, None, None, None)
    else:
        split = _case_ii_split(L)
        if split is not None:
            verdict = OneDimClassification("case-ii", split[0], split[1], None, None)
        else:
            verdict = OneDimClassification("neither", None, None, None, None)
    if isinstance(L.field, PrimeField):
        try:
            all_weak = True
            for v in projective_points(L.field, L.dim):
                if find_weak_c_witness(L, L.span_vecs([v]), budget) is None:
                    all_weak = False
                    verdict.non_witness = L.span_vecs([v])
                    break
            verdict.all_one_dim_weak_c = all_weak
            verdict.agrees = (verdict.case != "neither") == all_weak
        except (BudgetExceededError, EnumerationUnsupportedError):
            pass
    return verdict


# ---------------------------------------------------------------------------
# flags and report
# ---------------------------------------------------------------------------

def flags(L, budget=DEFAULT_BUDGET):
    """The structure predicates as JSON strings: "true", "false", or
    "unsupported" for a predicate that gives up."""
    def flag(predicate):
        try:
            return "true" if predicate() else "false"
        except (BudgetExceededError, EnumerationUnsupportedError):
            return "unsupported"

    return {
        "nilpotent": flag(L.is_nilpotent),
        "solvable": flag(L.is_solvable),
        "supersolvable": flag(lambda: is_supersolvable(L, budget)),
        "simple": flag(lambda: is_simple(L, budget)),
        "almost_abelian": flag(lambda: is_almost_abelian(L)),
    }


def structure_report(L, budget=DEFAULT_BUDGET):
    """JSON-ready structure summary: flags, lattice counts by dimension,
    distinguished subalgebra families."""
    doc = {"flags": flags(L, budget)}
    try:
        counts = {}
        for S in subalgebras(L, budget):
            counts[str(S.dim)] = counts.get(str(S.dim), 0) + 1
        doc["lattice"] = {
            "subalgebras_by_dim": dict(sorted(counts.items(), key=lambda kv: int(kv[0]))),
            "maximal": [S.basis_strings() for S in maximal_subalgebras(L, budget)],
            "maximal_nilpotent": [
                S.basis_strings() for S in maximal_nilpotent_subalgebras(L, budget)
            ],
            "cartan": [S.basis_strings() for S in cartan_subalgebras(L, budget)],
        }
    except (BudgetExceededError, EnumerationUnsupportedError) as e:
        doc["lattice"] = {"unsupported": str(e)}
    return doc
