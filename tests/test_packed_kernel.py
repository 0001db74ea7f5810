"""The packed GF(p) kernel against the tuple kernel it replaced.

Over GF(p) a vector is one int, coordinate j in a w-bit slot at position
n-1-j.  The oracle below is the tuple kernel as it stood before packing
(tuples of residues, one scalar at a time); it lives only here.  Every
packed result is unpacked and compared with it, for slot widths 1, 3, 4, 4
and 9, on matrices drawn by hypothesis.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lieideals
from lieideals.errors import AmbientMismatchError, NotContainedError
from lieideals.exactfield import GF, QQ
from lieideals.liecore import LieAlgebra
from lieideals.linspace import (
    MASK_LIMIT,
    EchelonBasis,
    SectionMap,
    Subspace,
    closure,
    element_mask,
    enumerate_subspaces,
    full_subspace,
    kernel,
    right_kernel,
    rref,
    span,
    span_vecs,
    zero_subspace,
)

WIDTHS = {2: 1, 3: 3, 5: 4, 7: 4, 251: 9}
PRIMES = sorted(WIDTHS)


# ---------------------------------------------------------------------------
# the tuple kernel, as an oracle
# ---------------------------------------------------------------------------

def o_rref(p, rows):
    """Gauss-Jordan over GF(p), or over Q for p = 0."""
    if p:
        norm, inv = (lambda a: a % p), (lambda a: pow(a, p - 2, p))
    else:
        norm, inv = Fraction, (lambda a: 1 / Fraction(a))
    work = [[norm(a) for a in r] for r in rows if any(norm(a) for a in r)]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        s = inv(work[r][c])
        work[r] = [norm(s * x) for x in work[r]]
        for i in range(nrows):
            k = work[i][c]
            if k and i != r:
                work[i] = [norm(x - k * y) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def o_reduce(p, rows, pivots, v):
    v = list(v)
    for row, c in zip(rows, pivots):
        k = v[c]
        if k:
            v = [(x - k * y) % p for x, y in zip(v, row)]
    return tuple(v)


def o_closure(p, n, seeds, images):
    rows, pivots = (), ()
    work = list(seeds)
    while work:
        w = work.pop()
        if not any(o_reduce(p, rows, pivots, w)):
            continue
        rows, pivots = o_rref(p, list(rows) + [w])
        if len(rows) == n:
            break
        work.extend(images(w))
    return rows


def o_right_kernel(p, rows, ncols):
    red, pivots = o_rref(p, rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[f] = 1
        for r, c in enumerate(pivots):
            x[c] = -red[r][f] % p
        basis.append(tuple(x))
    return basis


def o_transpose(rows, ncols):
    return [tuple(row[j] for row in rows) for j in range(ncols)]


def o_intersection(p, n, A, B):
    """A ∩ B from the kernel of the stacked bases, as the tuple kernel did."""
    stacked = list(A) + list(B)
    vectors = []
    for c in o_right_kernel(p, o_transpose(stacked, n), len(stacked)):
        v = [0] * n
        for a, row in zip(c, A):
            v = [(x + a * y) % p for x, y in zip(v, row)]
        vectors.append(tuple(v))
    return o_rref(p, vectors)[0]


def o_element_mask(p, n, rows):
    elements = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            v = [(x + c * y) % p for x, y in zip(v, row)]
        elements.add(tuple(v))
    return sum(1 << sum(a * p**j for j, a in enumerate(v)) for v in elements)


def o_project(p, K, I, v):
    """Coordinates of v + I at K's pivots outside I's, or None when v is
    outside K."""
    res = o_reduce(p, *I, v)
    if any(o_reduce(p, *K, res)):
        return None
    return tuple(res[c] for c in K[1] if c not in I[1])


def o_lift(p, n, K, I, coords):
    lifts = [row for row, c in zip(*K) if c not in I[1]]
    v = [0] * n
    for a, row in zip(coords, lifts):
        v = [(x + a * y) % p for x, y in zip(v, row)]
    return tuple(v)


def o_bracket(p, table, x, y):
    n = len(x)
    out = [0] * n
    for (i, j), v in table.items():
        c = x[i] * y[j] - x[j] * y[i]
        out = [(a + c * b) % p for a, b in zip(out, v)]
    return tuple(out)


def o_transposed_ad_images(p, table, n, y):
    images = {}
    for (i, j), v in table.items():
        s = sum(a * b for a, b in zip(v, y)) % p
        if s:
            images.setdefault(i, [0] * n)[j] = s
            images.setdefault(j, [0] * n)[i] = -s % p
    return {tuple(w) for w in images.values()}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def matrices(draw, max_n=8, max_rows=6):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=max_rows))
    return GF(p), n, rows


def packed(f, n, rows):
    return [f.space(n).pack(r) for r in rows]


def unpacked(f, n, vecs):
    return tuple(f.space(n).unpack(v) for v in vecs)


def echelon(f, n, rows):
    basis = EchelonBasis(f, n)
    for v in packed(f, n, rows):
        basis.add(v)
    return basis


# ---------------------------------------------------------------------------
# the layout
# ---------------------------------------------------------------------------

def test_slot_widths():
    for p, w in WIDTHS.items():
        assert GF(p).space(3).width == w


@settings(max_examples=200)
@given(matrices())
def test_pack_and_unpack_round_trip_and_int_order_is_tuple_order(case):
    f, n, rows = case
    space = f.space(n)
    vecs = packed(f, n, rows)
    assert unpacked(f, n, vecs) == tuple(rows)
    assert all(0 <= v < 1 << space.bits for v in vecs)
    for (a, u), (b, v) in itertools.combinations(zip(rows, vecs), 2):
        assert (a < b) == (u < v) and (a == b) == (u == v)


# ---------------------------------------------------------------------------
# row reduction, closure, kernels, masks
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(matrices())
def test_echelon_basis_is_the_oracle_rref(case):
    f, n, rows = case
    basis = echelon(f, n, rows)
    want, pivots = o_rref(f.p, rows)
    assert unpacked(f, n, basis.vecs) == want
    assert tuple(basis.pivots) == pivots
    S = span(f, n, rows)
    assert S.rows == want and S.pivots == pivots


@settings(max_examples=300)
@given(st.sampled_from(PRIMES + [0]), st.integers(0, 6), st.integers(0, 8), st.data())
def test_tuple_rref_is_the_oracle_rref(p, nrows, n, data):
    f, scalar = (GF(p), st.integers(-p, 2 * p)) if p else (QQ, st.fractions(-3, 3, max_denominator=4))
    rows = data.draw(st.lists(st.tuples(*[scalar] * n), min_size=nrows, max_size=nrows))
    assert rref(f, rows) == o_rref(p, rows)


@pytest.mark.parametrize("f", [GF(2), GF(5), QQ], ids=repr)
@pytest.mark.parametrize("rows", [[(1, 0), (1,)], [(0, 0, 0), (1, 1)], [(), (0,)]])
def test_tuple_rref_refuses_ragged_rows(f, rows):
    with pytest.raises(AmbientMismatchError):
        rref(f, rows)


@settings(max_examples=150)
@given(matrices(max_n=6), st.data())
def test_closure_is_the_oracle_closure(case, data):
    f, n, seeds = case
    p = f.p
    maps = data.draw(st.lists(
        st.lists(st.tuples(*[st.integers(0, p - 1)] * n), min_size=n, max_size=n),
        max_size=2))

    def o_images(w):
        return [tuple(sum(a * b for a, b in zip(row, w)) % p for row in M) for M in maps]

    space = f.space(n)
    got = closure(f, n, packed(f, n, seeds),
                  lambda w: [space.pack(u) for u in o_images(space.unpack(w))])
    assert got.rows == o_rref(p, o_closure(p, n, seeds, o_images))[0]


@settings(max_examples=200)
@given(matrices())
def test_right_kernel_is_the_oracle_kernel(case):
    f, n, rows = case
    got = unpacked(f, n, right_kernel(f, packed(f, n, rows), n))
    assert got == tuple(o_right_kernel(f.p, rows, n))


@settings(max_examples=200)
@given(matrices(), st.data())
def test_sum_intersection_and_kernel_are_the_oracle_ones(case, data):
    f, n, rows = case
    p = f.p
    cut = data.draw(st.integers(0, len(rows)))
    A, B = span(f, n, rows[:cut]), span(f, n, rows[cut:])
    assert (A + B).rows == o_rref(p, rows)[0]
    assert (A & B).rows == o_intersection(p, n, A.rows, B.rows)
    # x -> sum_j x_j rows[j], from F^len(rows) to F^n
    got = kernel(f, len(rows), packed(f, n, rows), n)
    want = o_right_kernel(p, o_transpose(rows, n), len(rows))
    assert got.rows == o_rref(p, want)[0]


@settings(max_examples=150)
@given(matrices(max_n=5))
def test_element_mask_is_the_oracle_mask(case):
    f, n, rows = case
    if f.p**n > MASK_LIMIT:
        return
    S = span(f, n, rows)
    assert element_mask(S) == o_element_mask(f.p, n, S.rows)


# ---------------------------------------------------------------------------
# section maps
# ---------------------------------------------------------------------------

@settings(max_examples=150)
@given(matrices(), st.data())
def test_section_map_is_the_oracle_section(case, data):
    f, n, rows = case
    p = f.p
    K = span(f, n, rows)
    I = span(f, n, rows[:data.draw(st.integers(0, len(rows)))])
    smap = SectionMap(K, I)
    oK, oI = o_rref(p, rows), o_rref(p, I.rows)
    space, coords = f.space(n), f.space(smap.dim)
    for v in data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=4)):
        want = o_project(p, oK, oI, v)
        if want is None:
            with pytest.raises(NotContainedError):
                smap.project(space.pack(v))
        else:
            assert coords.unpack(smap.project(space.pack(v))) == want
    for c in data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * smap.dim), max_size=4)):
        assert space.unpack(smap.lift(coords.pack(c))) == o_lift(p, n, oK, oI, c)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

@st.composite
def tables(draw):
    """A structure-constant table (Jacobi not required: the bilinear maps
    are defined for any table) and two vectors."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, 8))
    vec = st.tuples(*[st.integers(0, p - 1)] * n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    table = {key: draw(vec) for key in keys}
    return GF(p), n, table, draw(vec), draw(vec)


@settings(max_examples=300)
@given(tables())
def test_bracket_and_transposed_images_are_the_oracle_maps(case):
    f, n, table, x, y = case
    p = f.p
    L = LieAlgebra(f, n, table, check=False)
    space = L.space
    assert space.unpack(L.bracket(space.pack(x), space.pack(y))) == o_bracket(p, table, x, y)
    got = {space.unpack(w) for w in L.transposed_ad_images(space.pack(y))}
    assert got == o_transposed_ad_images(p, table, n, y)
    images = [space.unpack(w) for w in L.ad_images(space.pack(y))]
    assert images == [o_bracket(p, table, tuple(int(i == k) for k in range(n)), y)
                      for i in range(n)]


# ---------------------------------------------------------------------------
# one subspace, one value, one hash
# ---------------------------------------------------------------------------

@settings(max_examples=100)
@given(matrices(max_n=4))
def test_equal_subspaces_from_every_constructor_are_equal_and_hash_equal(case):
    f, n, rows = case
    S = Subspace(f, n, rows)
    space = f.space(n)
    built = [
        span(f, n, rows),
        span(f, n, list(reversed(rows)) + rows),
        echelon(f, n, rows).subspace(),
        span_vecs(f, n, packed(f, n, rows)),
        Subspace._trusted(space, S.vecs, S.pivots),
        Subspace.from_basis_strings(f, n, S.basis_strings()),
        SectionMap(full_subspace(f, n), zero_subspace(f, n)).preimage_subspace(S),
    ]
    if f.p**n <= MASK_LIMIT:
        built.append(next(T for T in enumerate_subspaces(f, n, S.dim) if T.rows == S.rows))
    for T in built:
        assert T == S and hash(T) == hash(S)
    assert len(set(built)) == 1


# ---------------------------------------------------------------------------
# the layout stays in the kernel
# ---------------------------------------------------------------------------

SLOT_ATTRIBUTES = {"shifts", "slot", "width", "bits", "mask"}


def test_only_exactfield_and_linspace_shift_or_mask_slots():
    # the slot layout is the kernel's: a shift or a slot mask anywhere else
    # would be a second copy of it
    users = set()
    for path in sorted(Path(lieideals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, (ast.LShift, ast.RShift)):
                users.add(path.stem)
            if isinstance(node, ast.Attribute) and node.attr in SLOT_ATTRIBUTES:
                users.add(path.stem)
    assert "exactfield" in users and users <= {"exactfield", "linspace"}
