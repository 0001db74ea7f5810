"""Structure predicates against hand values and enumeration oracles.

The supersolvability oracle climbs enumerated ideal flags directly and
never calls the greedy quotient recursion it is checking.
"""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lieideals import ideals, structure
from lieideals.corpus import (
    abelian,
    almost_abelian,
    direct_sum,
    example34,
    heisenberg,
    sl2,
    two_dim_nonabelian,
)
from lieideals.errors import BudgetExceededError, EnumerationUnsupportedError
from lieideals.exactfield import GF, QQ
from lieideals.ideals import find_weak_c_witness, ideals_of, subalgebras
from lieideals.liecore import LOWER_CENTRAL, LieAlgebra
from lieideals.linspace import projective_points, unit_vector
from lieideals.structure import (
    OneDimClassification,
    cartan_subalgebras,
    classify_one_dim_weak_c,
    flags,
    frattini,
    is_almost_abelian,
    is_simple,
    is_supersolvable,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    minimal_ideals,
    spin,
    structure_report,
)
from lieideals.verify import default_corpus
from test_packed_kernel import o_rref
from test_parent_answers import LADDER


def vec_add(f, u, v):
    return tuple(f.norm(a + b) for a, b in zip(u, v))


def vec_scale(f, c, v):
    return tuple(f.norm(c * a) for a in v)


def heis(f):
    return heisenberg(f).algebra


def solvable_not_supersolvable(f):
    # [x, a] = b, [x, b] = a + b: ad(x) acts irreducibly on the abelian
    # ideal <a, b> over GF(2), so no line of L is an ideal
    return LieAlgebra(
        f, 3, {(0, 1): (0, 0, 1), (0, 2): (0, 1, 1)}, labels=["x", "a", "b"]
    )


def brute_supersolvable(L):
    """Climb enumerated ideals one dimension at a time."""
    by_dim = {}
    for I in ideals_of(L):
        by_dim.setdefault(I.dim, []).append(I)

    def climb(U):
        if U.dim == L.dim:
            return True
        return any(U <= I and climb(I) for I in by_dim.get(U.dim + 1, []))

    return climb(L.zero_space())


# -- flags: a predicate that gives up reads "unsupported" ------------------


def test_flags_known_values():
    assert flags(heis(GF(2))) == {
        "nilpotent": "true",
        "solvable": "true",
        "supersolvable": "true",
        "simple": "false",
        "almost_abelian": "false",
    }
    fl = flags(two_dim_nonabelian(GF(3)).algebra)
    assert fl["nilpotent"] == "false"
    assert fl["supersolvable"] == "true"
    assert fl["almost_abelian"] == "true"
    fl = flags(sl2(GF(3)).algebra)
    assert fl["solvable"] == "false"
    assert fl["supersolvable"] == "false"
    assert fl["simple"] == "true"
    fl = flags(sl2(QQ).algebra)
    assert fl["simple"] == "unsupported" and fl["solvable"] == "false"
    assert fl["supersolvable"] == "false"
    # a blown point budget reads the same way
    fl = flags(sl2(GF(5)).algebra, budget=3)
    assert fl["simple"] == "unsupported" and fl["supersolvable"] == "false"


# -- spinning and minimal ideals --------------------------------------------


def test_spin_known_values():
    L = heis(GF(3))
    assert spin(L, L.space.pack((0, 0, 1))) == L.span([(0, 0, 1)])
    assert spin(L, L.space.pack((1, 0, 0))) == L.span([(1, 0, 0), (0, 0, 1)])
    S = sl2(GF(5)).algebra
    assert spin(S, S.space.pack((0, 1, 0))).is_full()


def test_minimal_ideals_known_values():
    assert minimal_ideals(heis(GF(2))) == [heis(GF(2)).span([(0, 0, 1)])]
    A = abelian(GF(2), 2).algebra
    assert {S.rows for S in minimal_ideals(A)} == {
        A.span([v]).rows for v in [(1, 0), (0, 1), (1, 1)]
    }
    S = sl2(GF(3)).algebra
    assert minimal_ideals(S) == [S.full_space()]
    assert minimal_ideals(abelian(GF(3), 0).algebra) == []


def test_minimal_ideals_of_a_direct_sum():
    f = GF(2)
    L = direct_sum(abelian(f, 1).algebra, two_dim_nonabelian(f).algebra)
    mins = minimal_ideals(L)
    assert {S.rows for S in mins} == {
        L.span([(1, 0, 0)]).rows,
        L.span([(0, 0, 1)]).rows,
    }


def test_minimal_ideals_limits():
    with pytest.raises(EnumerationUnsupportedError):
        minimal_ideals(heis(QQ))
    with pytest.raises(BudgetExceededError) as exc:
        minimal_ideals(heis(GF(3)), budget=5)
    assert exc.value.needed == 13 and exc.value.budget == 5


def spin_oracle(L):
    """Minimal ideals as the minimal spins of every projective point of L."""
    spins = {spin(L, v) for v in projective_points(L.field, L.dim)}
    mins = [S for S in spins if not any(T.dim < S.dim and T <= S for T in spins)]
    return sorted(mins, key=lambda S: S.sort_key())


def sl2_on_plane(f):
    """sl2 acting on its natural module <p, q>, an abelian ideal.

    ad(h) has least nullity, and over GF(3) its kernel <h> misses the only
    proper ideal <p, q>: every kernel line spins to L, and only the dual
    spin shows L reducible.
    """
    h, e, fe, p, q = (unit_vector(f, 5, i) for i in range(5))
    brackets = {
        (0, 1): vec_scale(f, 2, e),
        (0, 2): vec_scale(f, -2, fe),
        (1, 2): h,
        (0, 3): p,
        (0, 4): vec_scale(f, -1, q),
        (1, 4): p,
        (2, 3): q,
    }
    return LieAlgebra(f, 5, brackets, labels=["h", "e", "f", "p", "q"])


def sl2_on_heisenberg(f):
    """sl2 acting on the Heisenberg algebra [p, q] = z, with the basis
    vector y = h + z in place of z.

    Over GF(3) the test element ad(h) has kernel <h, y>: its first two
    lines spin to L and so does the dual vector h*, since h*(z) != 0.
    Only the third kernel line, h + 2y = 2z, spins to a proper ideal.
    """
    h, e, fe, p, q, y = (unit_vector(f, 6, i) for i in range(6))
    brackets = {
        (0, 1): vec_scale(f, 2, e),
        (0, 2): vec_scale(f, -2, fe),
        (1, 2): h,
        (0, 3): p,
        (0, 4): vec_scale(f, -1, q),
        (1, 4): p,
        (2, 3): q,
        (3, 4): vec_add(f, y, vec_scale(f, -1, h)),
        # [x, y] = [x, h] since z is central
        (1, 5): vec_scale(f, -2, e),
        (2, 5): vec_scale(f, 2, fe),
        (3, 5): vec_scale(f, -1, p),
        (4, 5): q,
    }
    return LieAlgebra(f, 6, brackets, labels=["h", "e", "f", "p", "q", "y"])


ORACLE_CASES = [
    (m.member_id, lambda m=m: m.algebra)
    for m in default_corpus()
    if m.algebra.dim <= 5
] + [
    # reducible, with isomorphic summands: Norton's test refutes, and the
    # answer comes from spinning the points of L^omega = L
    ("sl2+sl2-gf3", lambda: direct_sum(sl2(GF(3)).algebra, sl2(GF(3)).algebra)),
    # refuted only by the dual spin, or only by the last kernel line
    ("sl2-on-plane-gf3", lambda: sl2_on_plane(GF(3))),
    ("sl2-on-heisenberg-gf3", lambda: sl2_on_heisenberg(GF(3))),
    # central lines next to the minimal ideal in L^omega
    (
        "sl2+abelian1-gf3",
        lambda: direct_sum(sl2(GF(3)).algebra, abelian(GF(3), 1).algebra),
    ),
    (
        "heisenberg+abelian1-gf2",
        lambda: direct_sum(heis(GF(2)), abelian(GF(2), 1).algebra),
    ),
]


@pytest.mark.parametrize(
    "make", [make for _, make in ORACLE_CASES], ids=[name for name, _ in ORACLE_CASES]
)
def test_minimal_ideals_and_simplicity_match_the_spin_oracle(make):
    L = make()
    mins = spin_oracle(L)
    assert minimal_ideals(L) == mins
    assert is_simple(L) is (L.dim > 1 and mins == [L.full_space()])


@pytest.mark.parametrize(
    "make", [make for _, make in ORACLE_CASES], ids=[name for name, _ in ORACLE_CASES]
)
def test_nortons_verdict_on_every_ideal_is_whether_it_is_minimal(make):
    # minimal_ideals falls back to spinning points on a False verdict, so a
    # test that refutes an irreducible ideal would cost only spins there
    L = make()
    mins = spin_oracle(L)
    for V in ideals_of(L):
        if not V.is_zero():
            assert structure._norton(L, V) in (None, V in mins)


def test_example34_minimal_ideal_spins_few_points(monkeypatch):
    built = example34(GF(3), 3)
    calls = []

    def counting_spin(L, v):
        calls.append(v)
        return spin(L, v)

    monkeypatch.setattr(structure, "spin", counting_spin)
    assert minimal_ideals(built.algebra) == [built.subspaces["A"]]
    assert 0 < len(calls) < 100


def test_is_simple_known_values():
    assert is_simple(sl2(GF(3)).algebra) is True
    assert is_simple(sl2(GF(5)).algebra) is True
    assert is_simple(heis(GF(2))) is False
    assert is_simple(abelian(GF(2), 1).algebra) is False
    with pytest.raises(EnumerationUnsupportedError):
        is_simple(sl2(QQ).algebra)
    # sl2 over GF(5) has 31 lines
    with pytest.raises(BudgetExceededError) as exc:
        is_simple(sl2(GF(5)).algebra, budget=3)
    assert exc.value.needed == 31 and exc.value.budget == 3


# -- supersolvability -------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: heis(GF(2)),
        lambda: heis(GF(3)),
        lambda: two_dim_nonabelian(GF(3)).algebra,
        lambda: almost_abelian(GF(2), 3).algebra,
        lambda: sl2(GF(2)).algebra,
        lambda: sl2(GF(3)).algebra,
        lambda: solvable_not_supersolvable(GF(2)),
        lambda: direct_sum(
            heisenberg(GF(2)).algebra, abelian(GF(2), 1).algebra
        ),
    ],
    ids=[
        "heis2",
        "heis3",
        "nonab3",
        "almost2",
        "sl2-2",
        "sl2-3",
        "solvnotss2",
        "heis-plus-line",
    ],
)
def test_supersolvable_matches_ideal_flag_search(make):
    L = make()
    assert is_supersolvable(L) is brute_supersolvable(L)


def test_supersolvable_rational_paths():
    assert is_supersolvable(almost_abelian(QQ, 3).algebra) is True
    assert is_supersolvable(sl2(QQ).algebra) is False
    # ad(x) has characteristic polynomial t^2 - 2 on <a, b>: solvable but
    # no rational eigenline, so the answer is a definitive no
    L = LieAlgebra(QQ, 3, {(0, 1): (0, 0, 1), (0, 2): (0, 2, 0)})
    assert L.is_solvable() and not L.is_nilpotent()
    assert is_supersolvable(L) is False


# -- ad(x) over Q against the tuple matrix code it replaced ----------------


def _ad_rows(L, x):
    """ad(x) as coordinate rows, read off the table: column j is
    sum_i x_i [e_i, e_j]."""
    n = L.dim
    cols = [
        [sum(x[i] * L.bracket_basis(i, j)[r] for i in range(n)) for r in range(n)]
        for j in range(n)
    ]
    return [[col[r] for col in cols] for r in range(n)]


def o_char_poly(rows):
    """Faddeev-LeVerrier on a row matrix: M <- A M + c I, c = -tr(A M) / k."""
    n = len(rows)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        M = [[sum(row[t] * M[t][j] for t in range(n)) for j in range(n)] for row in rows]
        for i in range(n):
            M[i][i] += c
        tr = sum(rows[i][t] * M[t][i] for i in range(n) for t in range(n))
        c = coeffs[n - k] = -tr / k
    return coeffs


def o_eigenspace(rows, lam):
    """The RREF basis of ker(A - lam), one null vector per free column."""
    n = len(rows)
    shifted = [[a - lam if i == j else a for j, a in enumerate(row)] for i, row in enumerate(rows)]
    red, pivots = o_rref(0, shifted)
    null = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        null.append(v)
    return o_rref(0, null)[0]


Q_ALGEBRAS = {
    "heisenberg": lambda: heis(QQ),
    "almost_abelian4": lambda: almost_abelian(QQ, 4).algebra,
    "sl2": lambda: sl2(QQ).algebra,
    "sl2+heisenberg": lambda: direct_sum(sl2(QQ).algebra, heis(QQ)),
    "almost_abelian3+nonabelian2": lambda: direct_sum(
        almost_abelian(QQ, 3).algebra, two_dim_nonabelian(QQ).algebra
    ),
    "no-rational-eigenline": lambda: LieAlgebra(
        QQ, 3, {(0, 1): (0, 0, 1), (0, 2): (0, 2, 0)}
    ),
}


@pytest.mark.parametrize("name", sorted(Q_ALGEBRAS))
def test_char_poly_and_eigenspaces_match_the_tuple_code(name):
    L = Q_ALGEBRAS[name]()
    n = L.dim
    rng = random.Random(name)
    xs = [unit_vector(QQ, n, i) for i in range(n)]
    xs += [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
           for _ in range(4)]
    for x in xs:
        rows = _ad_rows(L, x)
        coeffs = structure._char_poly(L, L.space.pack(x))
        assert coeffs == o_char_poly(rows)
        lams = set(structure._rational_roots(coeffs, None)) | {Fraction(0), Fraction(1, 2)}
        for lam in sorted(lams):
            assert structure._eigenspace(L, L.space.pack(x), lam).rows == o_eigenspace(rows, lam)


def test_divisors_make_at_most_budget_trial_divisions():
    assert structure._divisors(-36, 6) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert structure._divisors(37, None) == [1, 37]
    with pytest.raises(EnumerationUnsupportedError) as exc:
        structure._divisors(37, 6)
    assert str(exc.value) == "rational root search needs the divisors of 37, cap is 36"


def test_supersolvable_gives_up_on_huge_root_extraction():
    # constant term beyond the divisor cap: root extraction declines
    n = 10**12 + 7
    L = LieAlgebra(QQ, 3, {(0, 1): (0, 0, 1), (0, 2): (0, n, 0)})
    with pytest.raises(EnumerationUnsupportedError) as exc:
        is_supersolvable(L)
    assert str(n) in str(exc.value) and str(10**12) in str(exc.value)


def test_the_rational_root_search_is_bounded_by_the_budget():
    # ad(x) has characteristic polynomial t (t^2 - 2): the candidates for a
    # root of t^2 - 2 are ±1 and ±2
    L = LieAlgebra(QQ, 3, {(0, 1): (0, 0, 1), (0, 2): (0, 2, 0)})
    assert is_supersolvable(L, budget=4) is False
    with pytest.raises(EnumerationUnsupportedError) as exc:
        is_supersolvable(L, budget=3)
    assert str(exc.value) == "rational root search needs 4 candidates, budget is 3"


def test_supersolvable_budget_guard():
    L = solvable_not_supersolvable(GF(2))
    with pytest.raises(BudgetExceededError) as exc:
        is_supersolvable(L, budget=3)
    assert exc.value.needed == 7 and exc.value.budget == 3


# -- lattice families -------------------------------------------------------


def test_maximal_subalgebras_heisenberg():
    L = heis(GF(2))
    maxes = maximal_subalgebras(L)
    assert len(maxes) == 3
    assert all(M.dim == 2 for M in maxes)
    center = L.span([(0, 0, 1)])
    assert all(center <= M for M in maxes)
    F, phi = frattini(L)
    assert F == center and phi == center


def test_frattini_of_two_dim_nonabelian():
    L = two_dim_nonabelian(GF(2)).algebra
    maxes = maximal_subalgebras(L)
    assert len(maxes) == 3 and all(M.dim == 1 for M in maxes)
    F, phi = frattini(L)
    assert F.is_zero() and phi.is_zero()


def test_nilpotent_algebra_has_only_ideal_maximals():
    for f in (GF(2), GF(3)):
        L = heis(f)
        for M in maximal_subalgebras(L):
            assert L.is_ideal(M)


def test_supersolvable_maximals_have_codimension_one():
    for L in [
        heis(GF(3)),
        two_dim_nonabelian(GF(2)).algebra,
        almost_abelian(GF(2), 3).algebra,
    ]:
        assert is_supersolvable(L) is True
        for M in maximal_subalgebras(L):
            assert M.dim == L.dim - 1


def test_non_supersolvable_member_has_a_deep_maximal():
    L = solvable_not_supersolvable(GF(2))
    dims = sorted(M.dim for M in maximal_subalgebras(L))
    assert dims[0] == 1  # <x> is maximal of codimension two


def test_cartan_subalgebras_known_values():
    N = two_dim_nonabelian(GF(2)).algebra
    carts = cartan_subalgebras(N)
    assert {S.rows for S in carts} == {
        N.span([(1, 0)]).rows,
        N.span([(1, 1)]).rows,
    }
    L = heis(GF(2))
    assert cartan_subalgebras(L) == [L.full_space()]
    S = sl2(GF(3)).algebra
    carts = cartan_subalgebras(S)
    assert S.span([(0, 1, 0)]) in carts
    for C in carts:
        assert S.is_nilpotent(C)
        assert S.normalizer(C) == C


def test_maximal_nilpotent_subalgebras_two_dim():
    N = two_dim_nonabelian(GF(3)).algebra
    maxnilp = maximal_nilpotent_subalgebras(N)
    # exactly the lines: N itself is not nilpotent
    assert all(S.dim == 1 for S in maxnilp)
    assert len(maxnilp) == 4


def test_lattice_cache_is_shared_with_the_algebra():
    L = heis(GF(2))
    for family in (
        subalgebras,
        ideals_of,
        maximal_subalgebras,
        maximal_nilpotent_subalgebras,
        cartan_subalgebras,
    ):
        assert family(L) is family(L)


# -- almost abelian and the one-dimensional classifier ----------------------


def test_is_almost_abelian_known_values():
    assert is_almost_abelian(almost_abelian(GF(5), 4).algebra)
    assert is_almost_abelian(two_dim_nonabelian(QQ).algebra)
    assert is_almost_abelian(abelian(QQ, 1).algebra)
    assert not is_almost_abelian(abelian(QQ, 2).algebra)
    assert not is_almost_abelian(heis(GF(2)))
    assert not is_almost_abelian(sl2(QQ).algebra)
    assert not is_almost_abelian(solvable_not_supersolvable(GF(2)))


def first_line_without_witness(L):
    """The first line of L, in projective-point order, with no weak c-ideal
    witness, or None: the scan the theorem-5.2 check runs, written out."""
    for v in projective_points(L.field, L.dim):
        B = L.span_vecs([v])
        if find_weak_c_witness(L, B) is None:
            return B
    return None


def test_classifier_case_i_on_heisenberg():
    L = heis(GF(2))
    v = classify_one_dim_weak_c(L)
    assert v.case == "case-i"
    assert v.A is None and v.B is None
    assert first_line_without_witness(L) is None


def test_classifier_case_ii_on_a_direct_sum():
    f = GF(2)
    L = direct_sum(abelian(f, 1).algebra, two_dim_nonabelian(f).algebra)
    v = classify_one_dim_weak_c(L)
    assert v.case == "case-ii"
    assert v.A == L.span([(1, 0, 0)])
    assert v.B.dim == 2
    assert L.is_ideal(v.B)
    assert first_line_without_witness(L) is None


def test_classifier_neither_on_simple_and_on_twisted_solvable():
    S = sl2(GF(3)).algebra
    v = classify_one_dim_weak_c(S)
    assert v.case == "neither"
    line = first_line_without_witness(S)
    assert line is not None and line.dim == 1
    assert find_weak_c_witness(S, line) is None
    L = solvable_not_supersolvable(GF(2))
    w = classify_one_dim_weak_c(L)
    assert w.case == "neither"
    assert first_line_without_witness(L) is not None


def test_classifier_skips_cross_check_over_q():
    L = two_dim_nonabelian(QQ).algebra
    v = classify_one_dim_weak_c(L)
    assert v.case == "case-ii"
    assert v.A.is_zero() and v.B == L.full_space()
    with pytest.raises(EnumerationUnsupportedError):
        first_line_without_witness(L)


def test_classifier_survives_a_blown_budget():
    L = heis(GF(2))
    with pytest.raises(BudgetExceededError):
        find_weak_c_witness(L, L.span([(1, 0, 0)]), budget=1)
    v = classify_one_dim_weak_c(L)
    assert v.case == "case-i"


def test_classification_to_json_shape():
    doc = classify_one_dim_weak_c(heis(GF(2))).to_json()
    assert doc == {"case": "case-i", "A": None, "B": None}
    f = GF(2)
    L = direct_sum(abelian(f, 1).algebra, two_dim_nonabelian(f).algebra)
    doc = classify_one_dim_weak_c(L).to_json()
    assert set(doc) == {"case", "A", "B"}
    assert doc["A"] == [["1", "0", "0"]] and len(doc["B"]) == 2
    assert isinstance(OneDimClassification("neither"), OneDimClassification)


@pytest.mark.parametrize("build", [
    lambda: heis(GF(2)),
    lambda: abelian(GF(2), 20).algebra,  # more lines than the budget
    lambda: two_dim_nonabelian(QQ).algebra,
], ids=["heisenberg-gf2", "abelian20-gf2", "nonabelian2-q"])
def test_the_classifier_runs_no_search(build, monkeypatch):
    def no_search(*args):
        raise AssertionError("the classifier ran a witness search")

    monkeypatch.setattr(ideals, "_first_witness", no_search)
    L = build()
    assert classify_one_dim_weak_c(L).case in ("case-i", "case-ii")


WITNESS_SEARCHES = {"find_weak_c_witness", "find_c_witness", "is_weak_c_ideal", "_first_witness"}


def test_structure_neither_imports_nor_calls_a_witness_search():
    tree = ast.parse(Path(structure.__file__).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & WITNESS_SEARCHES


def _brute_identity_solutions(L, W):
    """Every x of F^n with [x, w] = w for every w in W."""
    space = L.space
    for coords in itertools.product(range(L.field.p), repeat=L.dim):
        x = space.pack(coords)
        if all(L.bracket(x, w) == w for w in W.vecs):
            yield x


DIFFERENTIAL = {m.member_id: m.algebra for m in default_corpus() if m.algebra.dim <= 5}
DIFFERENTIAL.update({name: build().algebra for name, build in LADDER.items()})


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_ad_identity_solution_matches_brute_force(name):
    L = DIFFERENTIAL[name]
    for W in ideals_of(L):
        if W.is_zero():
            continue
        x = structure._ad_identity_solution(L, W)
        solutions = set(_brute_identity_solutions(L, W))
        if x is None:
            assert not solutions, W
        else:
            assert x in solutions, W


@pytest.mark.parametrize("build, solvable", [
    (lambda: two_dim_nonabelian(QQ), True),
    (lambda: almost_abelian(QQ, 3), True),
    (lambda: almost_abelian(QQ, 4), True),
    (lambda: heisenberg(QQ), False),
    (lambda: sl2(QQ), False),
])
def test_ad_identity_solution_over_q_solves_the_system(build, solvable):
    L = build().algebra
    der = L.product_space(L.full_space(), L.full_space())
    spaces = {der, L.center(), *L.series(LOWER_CENTRAL).terms, L.full_space()}
    for W in spaces:
        if W.is_zero():
            continue
        x = structure._ad_identity_solution(L, W)
        if W == der:
            assert (x is not None) == solvable
        if x is not None:
            assert all(L.bracket(x, w) == w for w in W.vecs)


# -- report -----------------------------------------------------------------


def test_structure_report_heisenberg():
    doc = structure_report(heis(GF(2)))
    assert doc["flags"]["nilpotent"] == "true"
    assert doc["lattice"]["subalgebras_by_dim"] == {
        "0": 1,
        "1": 7,
        "2": 3,
        "3": 1,
    }
    assert len(doc["lattice"]["maximal"]) == 3
    assert doc["lattice"]["cartan"] == [heis(GF(2)).full_space().basis_strings()]


def test_structure_report_degrades_over_q():
    doc = structure_report(heis(QQ))
    assert doc["flags"]["nilpotent"] == "true"
    assert "unsupported" in doc["lattice"]
