"""Linear algebra layer: RREF canonicality, span/membership closure
oracles, subspace enumeration counts against Gaussian binomials and
against a brute-force span collection, kernels, quotient maps."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lieideals
from lieideals.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    EnumerationUnsupportedError,
    FieldMismatchError,
    NotContainedError,
)
from lieideals.exactfield import GF, QQ
from lieideals.linspace import (
    EchelonBasis,
    SectionMap,
    Subspace,
    count_subspaces,
    element_mask,
    enumerate_subspaces,
    full_subspace,
    gaussian_binomial,
    projective_points,
    rref,
    right_kernel,
    span,
    unit_vector,
    zero_subspace,
)


def all_vectors(f, n):
    return [tuple(c) for c in itertools.product(list(f.elements()), repeat=n)]


def pk(f, v):
    """The vector of f.space(len(v)) with coordinates v."""
    return f.space(len(v)).pack(v)


def up(f, n, v):
    """The coordinate tuple of a vector of f.space(n)."""
    return f.space(n).unpack(v)


def brute_span(f, vectors, n):
    """All linear combinations, as a frozenset.  Independent oracle for
    span membership."""
    out = set()
    for coeffs in itertools.product(list(f.elements()), repeat=len(vectors)):
        acc = [f.zero] * n
        for c, v in zip(coeffs, vectors):
            for i in range(n):
                acc[i] = f.norm(acc[i] + c * v[i])
        out.add(tuple(acc))
    if not vectors:
        out.add(tuple([f.zero] * n))
    return frozenset(out)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

def _assert_canonical(f, rows, pivots):
    assert list(pivots) == sorted(pivots)
    assert len(set(pivots)) == len(pivots)
    for r, p in zip(rows, pivots):
        assert r[p] == f.one
        assert all(r[j] == f.zero for j in range(p))
    for i, p in enumerate(pivots):
        for k, row in enumerate(rows):
            if k != i:
                assert row[p] == f.zero


def test_rref_known_example():
    f = GF(2)
    rows, pivots = rref(f, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert rows == ((1, 0, 1), (0, 1, 1))
    assert pivots == (0, 1)


def test_rref_rational_example():
    from fractions import Fraction as Fr

    f = QQ
    rows, pivots = rref(f, [(Fr(2), Fr(4)), (Fr(1), Fr(3))])
    assert rows == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))
    assert pivots == (0, 1)


def _random_scalar(f, rng):
    if f == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(f.p)


def _is_canonical_scalar(f, x):
    if f == QQ:
        return type(x) in (int, Fraction)
    return type(x) is int and 0 <= x < f.p


@settings(max_examples=150)
@given(
    st.integers(0, 4),
    st.integers(0, 5),
    st.sampled_from([GF(2), GF(3), GF(5), GF(7), GF(251), QQ]),
    st.randoms(),
)
def test_rref_properties_random(nrows, ncols, f, rng):
    rows = [
        tuple(_random_scalar(f, rng) for _ in range(ncols)) for _ in range(nrows)
    ]
    red, pivots = rref(f, rows)
    _assert_canonical(f, red, pivots)
    assert all(_is_canonical_scalar(f, x) for row in red for x in row)
    # idempotent
    again, pv2 = rref(f, list(red))
    assert again == red and pv2 == pivots
    # same row space: every original row is a combination of the rref rows
    for r in rows:
        rem = list(r)
        for row, p_ in zip(red, pivots):
            c = rem[p_]
            if c != f.zero:
                rem = [f.norm(x - c * y) for x, y in zip(rem, row)]
        assert all(x == f.zero for x in rem)


# ---------------------------------------------------------------------------
# Subspace canonicity and operators
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.randoms())
def test_subspace_equality_under_shuffle_and_rescale(p, n, rng):
    f = GF(p)
    gens = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
    S = span(f, n, gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    scaled = [
        tuple(f.norm(c * x) for x in v)
        for v in shuffled
        for c in [rng.randrange(1, p)]
    ]
    T = span(f, n, scaled)
    assert S == T
    assert hash(S) == hash(T)


def test_every_constructor_hashes_a_subspace_alike():
    # the hash is computed once, by Subspace.__init__ or Subspace._trusted,
    # whichever way the subspace was built
    f, n = GF(3), 3
    units = [pk(f, unit_vector(f, n, i)) for i in range(n)]
    basis = EchelonBasis(f, n)
    for v in [(1, 1, 0), (0, 2, 0), (0, 1, 1)]:
        basis.add(pk(f, v))
    whole = [
        Subspace(f, n, [(1, 1, 0), (0, 2, 0), (2, 0, 1)]),
        Subspace._trusted(f.space(n), tuple(units), (0, 1, 2)),
        basis.subspace(),
        Subspace.from_basis_strings(f, n, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]),
        full_subspace(f, n),
    ]
    line = [
        Subspace(f, n, [(0, 2, 1)]),
        Subspace._trusted(f.space(n), (pk(f, (0, 1, 2)),), (1,)),
        span(f, n, [(0, 1, 2), (0, 2, 1)]),
        Subspace.from_basis_strings(f, n, [["0", "1", "2"]]),
        next(S for S in enumerate_subspaces(f, n, 1) if S.rows == ((0, 1, 2),)),
    ]
    for same in (whole, line):
        vecs = same[0].vecs
        assert all(S == same[0] for S in same)
        assert {hash(S) for S in same} == {hash((f, n, vecs))}
        assert len(set(same)) == 1


def _assigned_attributes(node):
    """The attribute nodes that an assignment target writes into."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _assigned_attributes(elt)
    elif isinstance(node, ast.Starred):
        yield from _assigned_attributes(node.value)
    elif isinstance(node, ast.Subscript):
        yield from _assigned_attributes(node.value)
    elif isinstance(node, ast.Attribute):
        yield node


def _rows_writers(tree, module):
    """Module.Class.function for every write to a .rows, .vecs or .pivots:
    an assignment, an item assignment, a method call on it, or setattr."""
    out = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        written = [a.attr for t in targets for a in _assigned_attributes(t)]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
                written.append(func.value.attr)
            if (isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                written.append(node.args[1].value)
        if any(name in ("rows", "vecs", "pivots") for name in written):
            out.add(".".join((module,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_only_the_constructors_write_rows_or_pivots():
    # a Subspace's hash is computed once, which is sound only while no
    # subspace changes after it is built; EchelonBasis is the mutable
    # accumulator and owns its lists
    writers = set()
    for path in sorted(Path(lieideals.__file__).parent.glob("*.py")):
        writers |= _rows_writers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    allowed = {"linspace.Subspace.__init__", "linspace.Subspace._trusted"}
    assert allowed <= writers
    assert {w for w in writers if not w.startswith("linspace.EchelonBasis.")} == allowed


def test_span_membership_against_brute_force_gf2():
    f = GF(2)
    n = 3
    vecs = all_vectors(f, n)
    rng = random.Random(7)
    for _ in range(40):
        gens = [rng.choice(vecs) for _ in range(rng.randrange(0, 4))]
        S = span(f, n, gens)
        closure = brute_span(f, gens, n)
        assert len(closure) == 2 ** S.dim
        for v in vecs:
            assert (v in S) == (v in closure)


def test_subspace_operators_against_sets_gf3():
    f = GF(3)
    n = 3
    vecs = all_vectors(f, n)
    rng = random.Random(11)
    for _ in range(25):
        A = span(f, n, [rng.choice(vecs) for _ in range(2)])
        B = span(f, n, [rng.choice(vecs) for _ in range(2)])
        sa = {v for v in vecs if v in A}
        sb = {v for v in vecs if v in B}
        inter = A & B
        total = A + B
        assert {v for v in vecs if v in inter} == sa & sb
        assert {v for v in vecs if v in total} == brute_span(
            f, list(A.rows) + list(B.rows), n
        )
        assert (A <= total) and (B <= total) and (inter <= A)
        # dimension formula
        assert A.dim + B.dim == total.dim + inter.dim


def test_modular_law_exhaustive_gf2_dim3():
    f = GF(2)
    n = 3
    subs = list(enumerate_subspaces(f, n))
    assert len(subs) == 16
    for A in subs:
        for B in subs:
            if not B <= A:
                continue
            for C in subs:
                assert A & (B + C) == B + (A & C)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2)])
def test_element_mask_marks_exactly_the_elements(q, n):
    # bit c stands for the vector whose base-q digits are c, the digit of
    # q^i being coordinate i
    f = GF(q)
    vectors = [tuple(reversed(v)) for v in all_vectors(f, n)]
    for S in enumerate_subspaces(f, n):
        mask = element_mask(S)
        assert [c for c, v in enumerate(vectors) if mask >> c & 1] == [
            c for c, v in enumerate(vectors) if v in S
        ]
        assert mask.bit_count() == q**S.dim


def test_subspace_contains_and_strict_order():
    # Subspace defines only <=; a strict test is <= with a smaller dimension
    f = GF(2)
    Z = zero_subspace(f, 3)
    F3 = full_subspace(f, 3)
    line = span(f, 3, [(1, 0, 0)])
    assert Z <= line <= F3
    assert not F3 <= line and not line <= Z
    assert line <= line
    with pytest.raises(TypeError):
        line < F3
    assert Z.is_zero() and F3.is_full()


def test_ambient_and_field_mismatch():
    with pytest.raises(AmbientMismatchError):
        span(GF(2), 2, [(1, 0)]) + span(GF(2), 3, [(1, 0, 0)])
    with pytest.raises(FieldMismatchError):
        span(GF(2), 2, [(1, 0)]) & span(GF(3), 2, [(1, 0)])


def test_basis_strings_round_trip():
    f = GF(5)
    S = span(f, 3, [(1, 2, 3), (0, 1, 4)])
    T = Subspace.from_basis_strings(f, 3, S.basis_strings())
    assert S == T


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 3) == 130
    for n in range(6):
        assert gaussian_binomial(n, 0, 2) == 1
        assert gaussian_binomial(n, n, 5) == 1


def test_gaussian_binomial_pascal_identity():
    for q in (2, 3, 5):
        for n in range(1, 7):
            for k in range(1, n + 1):
                lhs = gaussian_binomial(n, k, q)
                rhs = q**k * gaussian_binomial(n - 1, k, q) + gaussian_binomial(
                    n - 1, k - 1, q
                )
                assert lhs == rhs


def test_count_subspaces_totals():
    assert count_subspaces(GF(2), 3) == 16
    assert count_subspaces(GF(2), 4) == 67
    assert count_subspaces(GF(3), 3) == 28
    assert count_subspaces(GF(3), 4) == 212
    assert count_subspaces(GF(2), 4, dims=[2]) == 35


def test_enumeration_matches_brute_force_span_collection_gf2():
    f = GF(2)
    n = 3
    vecs = [v for v in all_vectors(f, n) if any(v)]
    spans = set()
    for r in range(len(vecs) + 1):
        for chosen in itertools.combinations(vecs, r):
            spans.add(span(f, n, list(chosen)))
            if len(spans) == 16:
                break
    enumerated = list(enumerate_subspaces(f, n))
    assert len(enumerated) == len(set(enumerated)) == 16
    assert set(enumerated) == spans


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3)])
def test_enumeration_count_and_order(p, n):
    f = GF(p)
    out = list(enumerate_subspaces(f, n))
    assert len(out) == count_subspaces(f, n)
    keys = [(S.dim, S.sort_key()) for S in out]
    assert keys == sorted(keys)
    assert len(set(out)) == len(out)
    for S in out:
        _assert_canonical(f, S.rows, S.pivots)


def test_enumeration_dim_filter():
    f = GF(2)
    twos = list(enumerate_subspaces(f, 4, dim_filter=[2]))
    assert len(twos) == 35
    assert all(S.dim == 2 for S in twos)


def test_enumeration_budget_and_infinite_field():
    with pytest.raises(BudgetExceededError) as ei:
        list(enumerate_subspaces(GF(2), 4, budget=10))
    assert ei.value.needed == 67 and ei.value.budget == 10
    with pytest.raises(EnumerationUnsupportedError):
        list(enumerate_subspaces(QQ, 2))


def test_projective_points():
    f = GF(3)
    pts = [up(f, 3, v) for v in projective_points(f, 3)]
    assert len(pts) == 13
    assert len({span(f, 3, [v]) for v in pts}) == 13
    for v in pts:
        first = next(c for c in v if c != 0)
        assert first == 1


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_right_kernel_annihilates_and_rank_nullity():
    rng = random.Random(3)
    for p in (2, 3, 5):
        f = GF(p)
        for _ in range(30):
            nrows, ncols = rng.randrange(0, 4), rng.randrange(1, 5)
            rows = [
                tuple(rng.randrange(p) for _ in range(ncols))
                for _ in range(nrows)
            ]
            ker = [up(f, ncols, k) for k in right_kernel(f, [pk(f, r) for r in rows], ncols)]
            red, pivots = rref(f, rows)
            assert len(ker) == ncols - len(pivots)
            for k in ker:
                assert all(
                    sum(a * b for a, b in zip(r, k)) % p == 0 for r in rows
                )


# ---------------------------------------------------------------------------
# EchelonBasis and SectionMap
# ---------------------------------------------------------------------------

def test_echelon_basis_incremental_matches_span():
    f = GF(3)
    rng = random.Random(13)
    for _ in range(30):
        vecs = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(5)]
        eb = EchelonBasis(f, 4)
        grew = [eb.add(pk(f, v)) for v in vecs]
        S = span(f, 4, vecs)
        assert eb.subspace() == S
        assert sum(grew) == S.dim
        assert eb.dim == S.dim
        for v in vecs:
            assert pk(f, v) in eb


def test_quotient_map_round_trips():
    f = GF(2)
    U = span(f, 3, [(0, 0, 1)])
    q = SectionMap(full_subspace(f, 3), U)
    assert q.dim == 2
    for v in all_vectors(f, 3):
        w = q.project(pk(f, v))
        # lift projects back to the same coset
        assert q.project(q.lift(w)) == w
    # kernel collapses
    assert up(f, 2, q.project(pk(f, (0, 0, 1)))) == (0, 0)
    W = q.project_subspace(span(f, 3, [(1, 0, 0), (0, 0, 1)]))
    assert W.dim == 1
    back = q.preimage_subspace(W)
    assert back == span(f, 3, [(1, 0, 0), (0, 0, 1)])


def test_a_section_between_two_proper_subspaces():
    # K = <(1,1,0,0), (0,0,1,1)> over GF(3) has pivots 0 and 2, and
    # I = <(1,1,1,1)> has pivot 0, so K/I reads column 2 and lifts to
    # K's second row
    f = GF(3)
    K = span(f, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    I = span(f, 4, [(1, 1, 1, 1)])
    s = SectionMap(K, I)
    assert s.dim == 1
    assert up(f, 4, s.lift(pk(f, (2,)))) == (0, 0, 2, 2)
    assert up(f, 1, s.project(pk(f, (1, 1, 1, 1)))) == (0,)
    assert up(f, 1, s.project(pk(f, (1, 1, 0, 0)))) == (2,)  # (1,1,0,0) = I - (0,0,1,1)
    with pytest.raises(NotContainedError):
        s.project(pk(f, (1, 0, 0, 0)))
    assert s.preimage_subspace(s.project_subspace(K)) == K
    assert s.project_subspace(I).is_zero()


def test_unit_vector():
    assert unit_vector(GF(3), 3, 1) == (0, 1, 0)
