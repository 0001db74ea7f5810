"""Bracket algebra, Jacobi validation, series, quotients and restrictions.

Series terms and centralizers for the small named algebras are checked
against values computed by hand from the structure-constant tables.
"""

import ast
import gc
import itertools
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lieideals
from lieideals.corpus import (
    abelian,
    almost_abelian,
    heisenberg,
    sl2,
    two_dim_nonabelian,
)
from lieideals.errors import (
    AmbientMismatchError,
    FieldMismatchError,
    JacobiError,
    NotAnIdealError,
    NotASubalgebraError,
    NotContainedError,
)
from lieideals.exactfield import GF, QQ
from lieideals.ideals import _ENDED, find_weak_c_witness, ideal_closure, lattice
from lieideals.liecore import DERIVED, LOWER_CENTRAL, LieAlgebra
from lieideals.linspace import Subspace, unit_vector
from test_parent_answers import ALGEBRAS, LADDER

PACKAGE = Path(lieideals.__file__).parent


def heis(f):
    return heisenberg(f).algebra


# -- construction and the Jacobi gate ---------------------------------------


def test_bracket_basis_is_antisymmetric_and_defaults_to_zero():
    L = heis(QQ)
    e3 = unit_vector(QQ, 3, 2)
    assert L.bracket_basis(0, 1) == e3
    assert L.bracket_basis(1, 0) == tuple(-a for a in e3)
    assert L.bracket_basis(0, 2) == (0, 0, 0)
    assert L.bracket_basis(1, 1) == (0, 0, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_jacobi_check_reports_the_first_failing_triple_of_all(p):
    # differential against the plain scan of every basis triple, each
    # Jacobi sum taken as three nested brackets
    rng = random.Random(5)
    f = GF(p)
    n = 5
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    failures = 0
    for _ in range(60):
        table = {
            ij: tuple(rng.randrange(p) for _ in range(n))
            for ij in rng.sample(pairs, rng.randrange(1, 4))
        }
        L = LieAlgebra(f, n, table, check=False)
        expected = None
        for i, j, k in itertools.combinations(range(n), 3):
            e = [L.space.pack(unit_vector(f, n, t)) for t in (i, j, k)]
            terms = tuple(map(L.space.unpack, (
                L.bracket(L.bracket(e[0], e[1]), e[2]),
                L.bracket(L.bracket(e[1], e[2]), e[0]),
                L.bracket(L.bracket(e[2], e[0]), e[1]),
            )))
            residual = [f.norm(sum(t[m] for t in terms)) for m in range(n)]
            if any(residual):
                expected = ((i + 1, j + 1, k + 1), [f.format(a) for a in residual])
                break
        if expected is None:
            LieAlgebra(f, n, table)
        else:
            failures += 1
            with pytest.raises(JacobiError) as exc:
                LieAlgebra(f, n, table)
            assert (exc.value.triple, exc.value.residual) == expected
    assert failures > 10


def test_jacobi_violation_reports_first_triple_and_residual():
    f = GF(2)
    # Heisenberg plus [e2, e3] = e2 breaks Jacobi on the only triple:
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + [e2,e1] + 0 = -e3.
    bad = {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)}
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(f, 3, bad)
    assert exc.value.triple == (1, 2, 3)
    assert exc.value.residual == ["0", "0", "1"]
    assert "Jacobi identity fails at basis triple (1,2,3)" in str(exc.value)


def test_constructor_accepts_a_lawful_table():
    L = LieAlgebra(GF(5), 3, {(0, 1): (0, 0, 1)})
    assert L.dim == 3


def test_constructor_rejects_bad_bracket_keys_and_lengths():
    f = GF(3)
    with pytest.raises(AmbientMismatchError):
        LieAlgebra(f, 2, {(1, 0): (0, 1)})
    with pytest.raises(AmbientMismatchError):
        LieAlgebra(f, 2, {(0, 2): (0, 1)})
    with pytest.raises(AmbientMismatchError):
        LieAlgebra(f, 2, {(0, 1): (0, 1, 0)})


def test_bracket_rejects_wrong_length_operands():
    L = heis(GF(2))
    with pytest.raises(AmbientMismatchError):
        L.bracket((1, 0), (0, 1, 0))


def test_default_and_custom_labels():
    L = heis(QQ)
    assert L.labels == ("e1", "e2", "e3")
    M = two_dim_nonabelian(QQ).algebra
    assert M.labels == ("x", "y")
    assert M.label_index("y") == 1
    with pytest.raises(NotContainedError):
        M.label_index("z")


# -- the bracket as a bilinear map ------------------------------------------

_fracs = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
_vecs = st.tuples(_fracs, _fracs, _fracs)


@settings(max_examples=60, deadline=None)
@given(x=_vecs, y=_vecs, z=_vecs, a=_fracs)
def test_bracket_bilinear_antisymmetric_jacobi_on_sl2_q(x, y, z, a):
    L = sl2(QQ).algebra
    space = L.space

    def bracket(u, v):
        return space.unpack(L.bracket(space.pack(u), space.pack(v)))

    def add(u, v):
        return tuple(ui + vi for ui, vi in zip(u, v))

    def scale(c, u):
        return tuple(c * ui for ui in u)

    assert bracket(add(scale(a, x), y), z) == add(
        scale(a, bracket(x, z)), bracket(y, z)
    )
    assert bracket(x, add(y, scale(a, z))) == add(
        bracket(x, y), scale(a, bracket(x, z))
    )
    assert bracket(x, x) == (0, 0, 0)
    assert bracket(x, y) == scale(Fraction(-1), bracket(y, x))
    jac = add(
        bracket(bracket(x, y), z),
        add(bracket(bracket(y, z), x), bracket(bracket(z, x), y)),
    )
    assert jac == (0, 0, 0)


def test_bracket_basis_and_ad_agree_with_bracket():
    L = heis(QQ)
    # ad(e1) sends e2 to e3 and kills e1, e3
    assert [L.bracket_basis(0, j) for j in range(3)] == [(0, 0, 0), (0, 0, 1), (0, 0, 0)]
    # ad(x) = sum of x_i ad(e_i), applied to y, is the bracket [x, y]
    x = (2, 3, 5)
    for y in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]:
        applied = tuple(
            sum(x[i] * L.bracket_basis(i, c)[r] * y[c] for i in range(3) for c in range(3))
            for r in range(3)
        )
        assert applied == L.space.unpack(L.bracket(L.space.pack(x), L.space.pack(y)))


# -- subspace operations ----------------------------------------------------


def test_product_space_and_closure_on_heisenberg():
    L = heis(GF(2))
    e1 = unit_vector(GF(2), 3, 0)
    e2 = unit_vector(GF(2), 3, 1)
    plane = L.span([e1, e2])
    assert L.product_space(plane, plane) == L.span([(0, 0, 1)])
    assert not L.is_subalgebra(plane)
    # one bracket step closes the plane up to the whole algebra
    assert (plane + L.product_space(plane, plane)).is_full()
    line = L.span([e1])
    assert L.is_subalgebra(line)
    assert not L.is_ideal(line)
    assert L.product_space(line, line).is_zero()
    assert L.is_ideal(L.span([(0, 0, 1)]))


def _derived_algebras():
    from test_structure import Q_ALGEBRAS
    from lieideals.verify import default_corpus
    out = {m.member_id: m.algebra for m in default_corpus()}
    out.update({name: build().algebra for name, build in LADDER.items()})
    out.update({f"{name}-q": build() for name, build in Q_ALGEBRAS.items()})
    return out


DERIVED_ALGEBRAS = _derived_algebras()


@pytest.mark.parametrize("name", sorted(DERIVED_ALGEBRAS))
def test_derived_algebra_from_the_table_matches_pairwise_brackets(name):
    L = DERIVED_ALGEBRAS[name]
    units = [L.space.unit(i) for i in range(L.dim)]
    pairwise = L.span_vecs([L.bracket(a, b) for a in units for b in units])
    full = L.full_space()
    assert L.product_space(full, full) == pairwise
    assert L.series(DERIVED).terms[1] == pairwise
    assert L.series(LOWER_CENTRAL).terms[1] == pairwise


def test_the_derived_algebra_brackets_nothing(monkeypatch):
    # [L, L] is read off the structure constants, so a 2000-dimensional
    # algebra with one bracket answers nilpotent and solvable at once
    L = LieAlgebra(GF(2), 2000, {(0, 1): unit_vector(GF(2), 2000, 2)})
    calls = []
    bracket = LieAlgebra.bracket
    monkeypatch.setattr(LieAlgebra, "bracket", lambda self, x, y: calls.append(1) or bracket(self, x, y))
    full = L.full_space()
    assert L.product_space(full, full) == L.span([unit_vector(GF(2), 2000, 2)])
    assert not calls
    assert L.is_nilpotent() and L.is_solvable()
    assert len(calls) <= 2 * L.dim


def test_series_terms_heisenberg():
    L = heis(GF(3))
    center = L.span([(0, 0, 1)])
    for kind in (DERIVED, LOWER_CENTRAL):
        rep = L.series(kind)
        assert rep.kind == kind
        assert rep.reaches_zero
        assert [t.dim for t in rep.terms] == [3, 1, 0]
        assert rep.terms[1] == center
        assert rep.min_index_inside(center) == 2
        assert rep.min_index_inside(L.zero_space()) == 3


def test_series_terms_two_dim_nonabelian():
    L = two_dim_nonabelian(QQ).algebra
    y_line = L.span([(0, 1)])
    der = L.series(DERIVED)
    assert [t.dim for t in der.terms] == [2, 1, 0]
    assert der.reaches_zero
    lc = L.series(LOWER_CENTRAL)
    # [L, <y>] = <y>: the series stabilizes and records the repeat
    assert [t.dim for t in lc.terms] == [2, 1, 1]
    assert lc.terms[1] == y_line and lc.terms[2] == y_line
    assert not lc.reaches_zero
    assert lc.min_index_inside(y_line) == 2
    assert lc.min_index_inside(L.zero_space()) is None


def test_series_on_perfect_algebra_stops_immediately():
    L = sl2(GF(2)).algebra
    der = L.series(DERIVED)
    assert [t.dim for t in der.terms] == [3, 3]
    assert not der.reaches_zero


def test_series_rejects_unknown_kind():
    with pytest.raises(ValueError):
        heis(QQ).series("upper-central")


def test_solvability_and_nilpotency_flags():
    A = abelian(QQ, 3).algebra
    assert A.product_space(A.full_space(), A.full_space()).is_zero()
    H = heis(GF(2))
    assert not H.product_space(H.full_space(), H.full_space()).is_zero()
    assert H.is_nilpotent() and H.is_solvable()
    N = two_dim_nonabelian(GF(3)).algebra
    assert N.is_solvable() and not N.is_nilpotent()
    A3 = almost_abelian(GF(3), 3).algebra
    assert A3.is_solvable() and not A3.is_nilpotent()
    for f in (GF(2), GF(3), QQ):
        S = sl2(f).algebra
        assert not S.is_solvable() and not S.is_nilpotent()


def test_centralizer_normalizer_center():
    L = heis(QQ)
    e1 = unit_vector(QQ, 3, 0)
    e3 = unit_vector(QQ, 3, 2)
    assert L.center() == L.span([e3])
    line = L.span([e1])
    both = L.span([e1, e3])
    assert L.centralizer(line) == both
    assert L.normalizer(line) == both
    assert L.normalizer(L.full_space()).is_full()
    assert L.normalizer(L.zero_space()).is_full()
    S = sl2(QQ).algebra
    assert S.center().is_zero()
    # normalizer strictly above the centralizer: <u0> is self-normalizing
    # beyond its centralizer in sl2
    u0 = unit_vector(QQ, 3, 1)
    assert S.centralizer(S.span([u0])) == S.span([u0])
    assert S.normalizer(S.span([u0])).dim == 1


def _brute_centralizer_and_normalizer(L, S):
    """C(S) and N(S) by a scan of all q^n elements x, each tested on S's
    basis with brackets built from the structure constants and S's
    elements listed one by one."""
    f, space, n = L.field, L.space, L.dim
    members = {space.zero}
    for s in S.vecs:
        members = {space.add(m, space.scale(c, s)) for m in members for c in f.elements()}
    # ad_s[i] = [e_i, s] = sum_j s_j [e_i, e_j]
    ads = []
    for s in S.rows:
        ads.append([space.pack(tuple(
            f.norm(sum(s[j] * L.bracket_basis(i, j)[k] for j in range(n))) for k in range(n)
        )) for i in range(n)])
    C, N = [], []
    for x in itertools.product(f.elements(), repeat=n):
        brackets = [space.lin_comb(x, ad) for ad in ads]
        if all(b == space.zero for b in brackets):
            C.append(x)
        if all(b in members for b in brackets):
            N.append(x)
    return C, N


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_centralizer_and_normalizer_match_a_scan_of_all_elements(name):
    L = ALGEBRAS[name]
    q = L.field.p
    for S in lattice(L).subalgebras:
        C, N = _brute_centralizer_and_normalizer(L, S)
        assert L.centralizer(S) == L.span(C) and len(C) == q ** L.centralizer(S).dim
        assert L.normalizer(S) == L.span(N) and len(N) == q ** L.normalizer(S).dim


def _subspaces_of_heisenberg(field, ambient):
    """(B, K): the line of e1 and the plane of e1, e2 in field^ambient."""
    units = [unit_vector(field, ambient, i) for i in range(2)]
    return Subspace(field, ambient, units[:1]), Subspace(field, ambient, units)


_TAKES_SUBSPACES = {
    "product_space": lambda L, B, K: L.product_space(K, K),
    "product_space-mixed": lambda L, B, K: L.product_space(L.full_space(), K),
    "ideal_closure": lambda L, B, K: ideal_closure(L, B, K),
    "normalizer": lambda L, B, K: L.normalizer(B),
    "centralizer": lambda L, B, K: L.centralizer(B),
}


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("method", sorted(_TAKES_SUBSPACES))
@pytest.mark.parametrize("field,ambient,error", [
    (GF(2), 3, FieldMismatchError),
    (GF(5), 3, FieldMismatchError),
    (GF(3), 4, AmbientMismatchError),
], ids=["GF2", "GF5", "ambient4"])
def test_a_subspace_of_another_space_is_refused(method, field, ambient, error, warm):
    # read as GF(3) vectors, a GF(2) plane of heisenberg(GF(3)) brackets to
    # 0 and its ideal closure holds the non-residue 4; GF(5) rows overflow
    L = heis(GF(3))
    run = _TAKES_SUBSPACES[method]
    if warm:
        run(L, *_subspaces_of_heisenberg(GF(3), 3))
    with pytest.raises(error):
        run(L, *_subspaces_of_heisenberg(field, ambient))


# -- quotients and restrictions ---------------------------------------------


def test_quotient_by_center_is_abelian_plane():
    L = heis(GF(5))
    Lq, q = L.quotient(L.center())
    assert Lq.dim == 2
    assert Lq.product_space(Lq.full_space(), Lq.full_space()).is_zero()
    v = L.space.pack((1, 2, 3))
    w = q.project(v)
    assert q.project(q.lift(w)) == w
    assert q.project_subspace(L.span([(1, 0, 0), (0, 0, 1)])).dim == 1
    full_back = q.preimage_subspace(Lq.full_space())
    assert full_back.is_full()


def test_quotient_rejects_non_ideals():
    L = heis(QQ)
    with pytest.raises(NotAnIdealError, match="not an ideal"):
        L.quotient(L.span([(1, 0, 0)]))
    with pytest.raises(NotAnIdealError, match="not a subalgebra"):
        L.quotient(L.span([(1, 0, 0), (0, 1, 0)]))


def test_restrict_round_trip_and_rejection():
    L = heis(QQ)
    sub = L.span([(1, 0, 0), (0, 0, 1)])
    K, smap = L.restrict(sub)
    assert K.dim == 2
    assert K.product_space(K.full_space(), K.full_space()).is_zero()
    for v in sub.rows:
        assert L.space.unpack(smap.lift(smap.project(L.space.pack(v)))) == tuple(v)
    with pytest.raises(NotContainedError):
        smap.project(L.space.pack((0, 1, 0)))
    with pytest.raises(NotASubalgebraError):
        L.restrict(L.span([(1, 0, 0), (0, 1, 0)]))
    inside = smap.project_subspace(L.span([(0, 0, 1)]))
    assert inside.dim == 1
    assert smap.preimage_subspace(inside) == L.span([(0, 0, 1)])


def test_restrict_full_space_reproduces_the_table():
    L = sl2(GF(3)).algebra
    K, _ = L.restrict(L.full_space())
    assert K.to_json()["brackets"] == L.to_json()["brackets"]


def test_restrict_is_cached_per_subspace():
    L = heis(QQ)
    sub = L.span([(1, 0, 0), (0, 0, 1)])
    assert L.restrict(sub) is L.restrict(L.span([(1, 0, 0), (0, 0, 1)]))


def test_a_restricted_algebra_is_freed_without_the_cycle_collector():
    # the memo keeps each section with its map, one algebra per section
    # table, and the lattice a witness search left half-walked, so any of
    # them pointing back at its algebra would leave the algebra as cyclic
    # garbage; the whole-algebra sections fill L's memo, which must not
    # hold them
    gc.disable()
    try:
        L = heis(GF(3))
        L.restrict(L.span([(1, 0, 0), (0, 0, 1)]))
        # two abelian planes and L/Z(L) share one abelian algebra
        shared = [L.restrict(L.span([(0, 1, 0), (0, 0, 1)]))[0],
                  L.restrict(L.span([(1, 1, 0), (0, 0, 1)]))[0],
                  L.quotient(L.center())[0]]
        assert shared[0] is shared[1] is shared[2]
        assert find_weak_c_witness(shared[0], shared[0].span([(1, 0)])) is not None
        del shared
        assert find_weak_c_witness(L, L.span([(1, 0, 0)])) is not None
        for whole, _ in (L.restrict(L.full_space()), L.quotient(L.zero_space())):
            assert find_weak_c_witness(whole, L.span([(0, 1, 0)])) is not None
        # a layer the search left half-read keeps its live filter
        lat = lattice(L)
        assert any(found and f is not _ENDED for found, f in zip(lat._found, lat._filters))
        ref = weakref.ref(L)
        del L
        assert ref() is None
    finally:
        gc.enable()


def test_only_liecore_touches_the_memo_dict():
    # every memoized result goes through LieAlgebra.memo
    offenders = [
        p.name
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "liecore.py" and "_cache" in p.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_only_liecore_reads_the_bracket_table():
    # other modules go through bracket_basis and bracket, so the table's
    # layout stays liecore's own
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_table":
                readers.add(path.stem)
    assert readers <= {"liecore"}


# -- serialization ----------------------------------------------------------


def test_json_round_trip_preserves_identity_and_labels():
    for L in [
        sl2(GF(3)).algebra,
        almost_abelian(QQ, 3).algebra,
        LieAlgebra(QQ, 2, {(0, 1): (0, Fraction(1, 2))}, labels=["x", "y"]),
    ]:
        doc = L.to_json()
        back = LieAlgebra.from_json(doc)
        assert back.to_json() == doc
        assert back.labels == L.labels


def test_to_json_uses_one_based_indices():
    doc = heis(GF(2)).to_json()
    assert doc["brackets"] == [{"i": 1, "j": 2, "coeffs": ["0", "0", "1"]}]
    assert doc["basis"] == ["e1", "e2", "e3"]
