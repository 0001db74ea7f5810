"""The packed GF(p) kernel and the integer Q kernel against the tuple
kernels they replaced.

Over GF(p) a vector is one int, coordinate j in a w-bit slot at position
n-1-j.  The oracle below is the tuple kernel as it stood before packing
(tuples of residues, one scalar at a time); it lives only here.  Every
packed result is unpacked and compared with it, for slot widths 1, 3, 4, 4
and 9, on matrices drawn by hypothesis.

Over Q a vector is a tuple of integer numerators followed by their
positive common denominator, in lowest terms.  Its oracle is the kernel of
Fraction tuples that it replaced (``TupleSpace``, kept here only), run
through the same ``linspace`` algorithms on a field that differs from Q
only in that kernel; the bilinear maps are checked against plain Fraction
sums.
"""

import ast
import bisect
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lieideals
from lieideals.errors import AmbientMismatchError, JacobiError, NotContainedError
from lieideals.exactfield import GF, QQ, RationalField
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


def o_norm(p):
    """The canonical representative over GF(p), or over Q for p = 0."""
    return (lambda a: a % p) if p else Fraction


def o_bracket(p, table, x, y):
    norm = o_norm(p)
    n = len(x)
    out = [0] * n
    for (i, j), v in table.items():
        c = x[i] * y[j] - x[j] * y[i]
        out = [norm(a + c * b) for a, b in zip(out, v)]
    return tuple(out)


def o_transposed_ad_images(p, table, n, y):
    norm = o_norm(p)
    images = {}
    for (i, j), v in table.items():
        s = norm(sum(a * b for a, b in zip(v, y)))
        if s:
            images.setdefault(i, [0] * n)[j] = s
            images.setdefault(j, [0] * n)[i] = norm(-s)
    return {tuple(w) for w in images.values()}


# ---------------------------------------------------------------------------
# the Fraction-tuple kernel over Q, as an oracle
# ---------------------------------------------------------------------------

class TupleSpace:
    """Q^n, each vector a tuple of n Fractions: the Q kernel as it stood
    before integer numerators, with the generic ``lin_comb`` and
    ``insert`` it shared with the packed spaces."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.zero = (field.zero,) * n

    def __repr__(self):
        return f"{self.field}^{self.n}"

    def pack(self, coords):
        return tuple(coords)

    def unpack(self, v):
        self.check(v)
        return v

    def check(self, v):
        if len(v) != self.n:
            raise AmbientMismatchError(f"vector of length {len(v)} in ambient dimension {self.n}")

    def unit(self, j):
        f = self.field
        return tuple(f.one if i == j else f.zero for i in range(self.n))

    @staticmethod
    def entry(v, j):
        return v[j]

    @staticmethod
    def lead(v):
        return next(((j, a) for j, a in enumerate(v) if a), None)

    @staticmethod
    def is_zero(v):
        return not any(v)

    @staticmethod
    def add(u, v):
        return tuple([a + b if b else a for a, b in zip(u, v)])

    @staticmethod
    def neg(v):
        return tuple([-a if a else a for a in v])

    @staticmethod
    def scale(c, v):
        return tuple([c * a if a else a for a in v])

    @staticmethod
    def submul(v, c, row):
        return tuple([a - c * b if b else a for a, b in zip(v, row)])

    @staticmethod
    def dot(u, v):
        return sum([a * b for a, b in zip(u, v) if a and b])

    def reduce(self, v, vectors, pivots):
        for row, col in zip(vectors, pivots):
            if v[col]:
                v = self.submul(v, v[col], row)
        return v

    @staticmethod
    def join(a, b, other):
        return a + b

    @staticmethod
    def tail(v, other):
        return v[len(v) - other.n:]

    def lin_comb(self, coeffs, vectors):
        out = self.zero
        for c, v in zip(coeffs, vectors):
            if c:
                out = self.add(out, self.scale(c, v))
        return out

    def insert(self, vectors, pivots, v):
        res = self.reduce(v, vectors, pivots)
        lead = self.lead(res)
        if lead is None:
            return False
        p, c = lead
        if c != 1:
            res = self.scale(self.field.inv(c), res)
        pos = bisect.bisect(pivots, p)
        for i in range(pos):
            c = self.entry(vectors[i], p)
            if c:
                vectors[i] = self.submul(vectors[i], c, res)
        vectors.insert(pos, res)
        pivots.insert(pos, p)
        return True


class TupleQ(RationalField):
    """Q with the Fraction-tuple kernel: ``linspace`` run on it is the
    oracle of ``linspace`` run on QQ."""

    _space_type = TupleSpace


OQ = TupleQ()


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
# Q: integer numerators against the Fraction-tuple kernel
# ---------------------------------------------------------------------------

# the values of st.fractions(-3, 3, max_denominator=4), simplest first (so
# that examples shrink towards them); drawing from the list is ten times
# cheaper than building each Fraction
QSCALARS = st.sampled_from(sorted(
    {Fraction(a, b) for b in range(1, 5) for a in range(-3 * b, 3 * b + 1)},
    key=lambda c: (c.denominator, abs(c), c < 0)))


@st.composite
def q_matrices(draw, max_n=6, max_rows=6):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.tuples(*[QSCALARS] * n), max_size=max_rows))
    return n, rows


def in_lowest_terms(space, v):
    """v is n integer numerators and a positive denominator with gcd 1."""
    return (type(v) is tuple and len(v) == space.n + 1 and all(type(a) is int for a in v)
            and v[-1] > 0 and math.gcd(*v) == 1)


def oracle_pair(n, rows):
    """The same rows spanned over QQ and over the oracle field."""
    return span(QQ, n, rows), span(OQ, n, rows)


@settings(max_examples=200)
@given(q_matrices())
def test_q_pack_is_canonical_and_round_trips(case):
    n, rows = case
    space = QQ.space(n)
    for x in rows:
        v = space.pack(x)
        assert in_lowest_terms(space, v)
        assert space.unpack(v) == x
        # one vector, one tuple: any representative of x packs to v
        assert space.pack([Fraction(a) for a in x]) == v
    assert space.zero == (0,) * n + (1,) == space.pack([0] * n)


@settings(max_examples=200)
@given(q_matrices(), QSCALARS)
def test_q_vector_operations_are_the_oracle_ones_in_lowest_terms(case, c):
    n, rows = case
    space, oracle = QQ.space(n), OQ.space(n)
    vecs = [space.pack(x) for x in rows]
    results = []
    for (x, u), (y, v) in itertools.product(zip(rows, vecs), repeat=2):
        results.append((space.add(u, v), oracle.add(x, y)))
        results.append((space.scale(c, u), oracle.scale(c, x)))
        if c:
            results.append((space.submul(u, c, v), oracle.submul(x, c, y)))
        results.append((space.join(u, v, space), oracle.join(x, y, oracle)))
    for x, u in zip(rows, vecs):
        results.append((space.neg(u), oracle.neg(x)))
        assert [space.entry(u, j) for j in range(n)] == list(x)
    coeffs = [c, 1, Fraction(-1, 2)] * len(rows)
    results.append((space.lin_comb(coeffs, vecs), oracle.lin_comb(coeffs, rows)))
    for got, want in results:
        target = QQ.space(len(want))
        assert in_lowest_terms(target, got)
        assert target.unpack(got) == want
    for x, u in zip(rows, vecs):
        joined = space.join(space.zero, u, space)
        assert space.tail(joined, space) == u


@settings(max_examples=300)
@given(q_matrices(), st.data())
def test_q_row_reduction_and_subspace_arithmetic_are_the_oracle_ones(case, data):
    n, rows = case
    space = QQ.space(n)
    S, O = oracle_pair(n, rows)
    assert S.rows == O.rows == o_rref(0, rows)[0]
    assert S.pivots == O.pivots
    assert all(in_lowest_terms(space, v) for v in S.vecs)
    # a row's numerator equals its denominator at its pivot
    assert all(v[c] == v[-1] for v, c in zip(S.vecs, S.pivots))
    basis = EchelonBasis(QQ, n)
    grew = [basis.add(space.pack(x)) for x in rows]
    oracle = EchelonBasis(OQ, n)
    assert grew == [oracle.add(x) for x in rows]
    assert unpacked(QQ, n, basis.vecs) == O.rows
    # reduce modulo S: the residual of the oracle, in lowest terms
    for x in data.draw(st.lists(st.tuples(*[QSCALARS] * n), max_size=3)):
        res = S.reduce(space.pack(x))
        assert in_lowest_terms(space, res)
        assert space.unpack(res) == O.reduce(x)
    cut = data.draw(st.integers(0, len(rows)))
    A, B = span(QQ, n, rows[:cut]), span(QQ, n, rows[cut:])
    OA, OB = span(OQ, n, rows[:cut]), span(OQ, n, rows[cut:])
    assert (A + B).rows == (OA + OB).rows
    assert (A & B).rows == (OA & OB).rows
    assert right_kernel(QQ, S.vecs, n) == [space.pack(x) for x in right_kernel(OQ, O.vecs, n)]
    got = kernel(QQ, len(rows), [space.pack(x) for x in rows], n)
    assert got.rows == kernel(OQ, len(rows), rows, n).rows


@settings(max_examples=150)
@given(q_matrices(max_n=5), st.data())
def test_q_closure_is_the_oracle_closure(case, data):
    n, seeds = case
    maps = data.draw(st.lists(
        st.lists(st.tuples(*[QSCALARS] * n), min_size=n, max_size=n), max_size=2))

    def o_images(w):
        return [tuple(sum(a * b for a, b in zip(row, w)) for row in M) for M in maps]

    space = QQ.space(n)
    got = closure(QQ, n, [space.pack(x) for x in seeds],
                  lambda w: [space.pack(u) for u in o_images(space.unpack(w))])
    assert got.rows == closure(OQ, n, seeds, o_images).rows


@settings(max_examples=150)
@given(q_matrices(), st.data())
def test_q_section_map_is_the_oracle_section(case, data):
    n, rows = case
    cut = data.draw(st.integers(0, len(rows)))
    K, OK = oracle_pair(n, rows)
    smap, omap = SectionMap(K, span(QQ, n, rows[:cut])), SectionMap(OK, span(OQ, n, rows[:cut]))
    space, coords = QQ.space(n), QQ.space(smap.dim)
    for x in data.draw(st.lists(st.tuples(*[QSCALARS] * n), max_size=4)):
        try:
            want = omap.project(x)
        except NotContainedError:
            with pytest.raises(NotContainedError):
                smap.project(space.pack(x))
        else:
            assert coords.unpack(smap.project(space.pack(x))) == want
    for c in data.draw(st.lists(st.tuples(*[QSCALARS] * smap.dim), max_size=4)):
        assert space.unpack(smap.lift(coords.pack(c))) == omap.lift(c)


@st.composite
def q_tables(draw):
    """A structure-constant table over Q (Jacobi not required) and two
    vectors."""
    n = draw(st.integers(2, 6))
    vec = st.tuples(*[QSCALARS] * n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    table = {key: draw(vec) for key in keys}
    return n, table, draw(vec), draw(vec)


@settings(max_examples=300)
@given(q_tables())
def test_q_bracket_and_ad_images_are_the_oracle_maps(case):
    n, table, x, y = case
    L = LieAlgebra(QQ, n, table, check=False)
    space = L.space
    got = L.bracket(space.pack(x), space.pack(y))
    assert in_lowest_terms(space, got)
    assert space.unpack(got) == o_bracket(0, table, x, y)
    got = {space.unpack(w) for w in L.transposed_ad_images(space.pack(y))}
    assert got == o_transposed_ad_images(0, table, n, y)
    images = [space.unpack(w) for w in L.ad_images(space.pack(y))]
    assert images == [o_bracket(0, table, tuple(int(i == k) for k in range(n)), y)
                      for i in range(n)]


@pytest.mark.parametrize("f", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_bilinear_maps_refuse_non_vectors(f):
    # a coordinate tuple, a negative int and an int wider than the space,
    # in either argument of the bracket; and True, 1.0 and 3.0, which hash
    # and compare equal to the ints 1 and 3, so once the unpack table holds
    # those vectors a hit must not answer for them
    L = LieAlgebra(f, 2, {(0, 1): (1, 0)})
    space = L.space
    e = space.unit(0)
    maps = (lambda x: L.bracket(x, e), lambda x: L.bracket(e, x),
            L.ad_images, L.transposed_ad_images, space.unpack)
    for warm in (False, True):
        if warm:
            for v in {space.pack(c) for c in itertools.product(range(4), repeat=2)}:
                for call in maps:
                    call(v)
        for bad in ((f.one, f.zero), -1, 1 << 40, True, 1.0, 3.0):
            for call in maps:
                with pytest.raises(AmbientMismatchError):
                    call(bad)


def _slots(space, v):
    return [v >> s & space.slot for s in space.shifts]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_accepts_exactly_the_ints_whose_slots_hold_residues(p, n):
    space = GF(p).space(n)
    for v in range(1 << space.bits):
        if all(x < p for x in _slots(space, v)):
            space.check(v)
        else:
            with pytest.raises(AmbientMismatchError):
                space.check(v)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_slot_holding_p_or_more_is_not_a_vector(p):
    # a w-bit slot can hold up to 2^w - 1 >= p, so an int of the right width
    # is not yet a vector: over GF(3) the int 3 would be the pair (0, 3)
    L = LieAlgebra(GF(p), 2, {(0, 1): (1, 0)})
    space = L.space
    e = space.unit(0)
    line = L.span([(1, 1)])
    maps = (lambda x: L.bracket(x, e), lambda x: L.bracket(e, x),
            L.ad_images, L.transposed_ad_images, space.unpack,
            lambda x: x in L.full_space(), lambda x: x in line,
            lambda x: L.span_vecs([x]), lambda x: L.span_vecs([e, x]))
    ints = range(1 << space.bits)
    bad = [v for v in ints if max(_slots(space, v)) >= p]
    assert p != 3 or 3 in bad
    for warm in (False, True):
        if warm:
            for v in ints:
                if v not in bad:
                    for call in maps:
                        call(v)
        for v in bad:
            for call in maps:
                with pytest.raises(AmbientMismatchError):
                    call(v)


@settings(max_examples=150, deadline=None)
@given(q_tables())
def test_q_jacobi_check_reports_the_oracle_triple_and_residual(case):
    n, table, _, _ = case
    f = QQ
    expected = None
    for i, j, k in itertools.combinations(range(n), 3):
        e = [tuple(int(t == m) for m in range(n)) for t in (i, j, k)]
        terms = [o_bracket(0, table, o_bracket(0, table, e[a], e[b]), e[c])
                 for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
        s = [sum(t[m] for t in terms) for m in range(n)]
        if any(s):
            expected = ((i + 1, j + 1, k + 1), [f.format(Fraction(a)) for a in s])
            break
    if expected is None:
        LieAlgebra(f, n, table)
    else:
        with pytest.raises(JacobiError) as exc:
            LieAlgebra(f, n, table)
        assert (exc.value.triple, exc.value.residual) == expected


@settings(max_examples=100)
@given(q_matrices(max_n=4))
def test_equal_q_subspaces_from_every_constructor_are_equal_and_hash_equal(case):
    n, rows = case
    S = Subspace(QQ, n, rows)
    space = QQ.space(n)
    built = [
        span(QQ, n, rows),
        span(QQ, n, list(reversed(rows)) + rows),
        span(QQ, n, [tuple(3 * a for a in x) for x in rows]),
        echelon(QQ, n, rows).subspace(),
        span_vecs(QQ, n, packed(QQ, n, rows)),
        Subspace._trusted(space, S.vecs, S.pivots),
        Subspace.from_basis_strings(QQ, n, S.basis_strings()),
        SectionMap(full_subspace(QQ, n), zero_subspace(QQ, n)).preimage_subspace(S),
        S + zero_subspace(QQ, n),
        S & full_subspace(QQ, n),
    ]
    for T in built:
        assert T == S and hash(T) == hash(S)
    assert len(set(built)) == 1


@settings(max_examples=100)
@given(st.lists(q_matrices(max_n=3, max_rows=3), min_size=2, max_size=6), st.integers(1, 3))
def test_q_sort_key_order_is_the_order_of_fraction_rows(cases, n):
    subspaces = [span(QQ, n, [x[:n] + (0,) * (n - len(x)) for x in rows]) for _, rows in cases]
    got = sorted(subspaces, key=lambda S: S.sort_key())
    assert [(S.dim, S.rows) for S in got] == sorted((S.dim, S.rows) for S in subspaces)


@settings(max_examples=150)
@given(q_matrices(max_n=4), st.tuples(*[QSCALARS] * 4))
def test_q_membership_of_a_coordinate_tuple_and_of_a_vector(case, x):
    n, rows = case
    S, O = oracle_pair(n, rows)
    space = S.space
    x = x[:n]
    want = O.space.is_zero(O.reduce(x))
    assert (x in S) is want
    assert (space.pack(x) in S) is want
    for bad in (x + (0,), x[:-1], tuple(Fraction(a) for a in space.pack(x)), [0] * (n + 1),
                space.zero[:-1] + (0,), tuple(2 * a for a in space.unit(0))):
        with pytest.raises(AmbientMismatchError):
            bad in S


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


LAYOUT_NAMES = {"_den", "ratio", "coords", "scaler", "characteristic"}
LAYOUT_MODULES = {"math", "operator", "fractions"}


def test_liecore_knows_no_vector_layout():
    # the structure-constant maps are the kernel's: liecore builds and
    # validates the table, so a per-field branch, a reach into a vector's
    # slots or numerators, or its own scalar arithmetic there would be a
    # second copy of the kernel
    path = Path(lieideals.__file__).parent / "liecore.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            found.add(node.attr)
        if isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            found.add(node.id)
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] in LAYOUT_MODULES)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in LAYOUT_MODULES:
            found.add(node.module.split(".")[0])
    assert not found


def test_only_exactfield_and_the_rational_root_search_import_fractions():
    # Q arithmetic is the kernel's: a Fraction built anywhere else would be
    # a second copy of it; structure's rational root search is the one
    # scalar computation outside it
    users = set()
    for path in sorted(Path(lieideals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "fractions" for a in node.names):
                users.add(path.stem)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
                users.add(path.stem)
    assert users == {"exactfield", "structure"}
