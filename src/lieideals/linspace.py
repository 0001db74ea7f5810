"""Exact dense linear algebra and canonical subspace arithmetic.

Vectors come in two representations under one API, the coordinate space
``field.space(n)`` of :mod:`~lieideals.exactfield`: over GF(p) a vector is
one packed int, over Q a tuple of integer numerators followed by their
positive common denominator, in lowest terms.  Row reduction
(:class:`EchelonBasis`), closures, kernels, intersections, section maps
and enumeration work on those vectors through the space's operations.  A
:class:`Subspace` stores the unique reduced row echelon basis of its row
space (``vecs``), so subspace equality is plain tuple equality and every
subspace has one canonical representation.  Int order of packed vectors is
the order of their coordinate tuples; over Q, ``Subspace.sort_key``
compares the rows as Fractions, so every ordering is that of the
coordinates.

The boundary speaks coordinate tuples (of Fractions over Q):
``Subspace(field, n, vectors)``, ``span``, ``Subspace.rows``, membership of
a tuple of n coordinates, ``basis_strings`` and ``from_basis_strings``, and
the tuple entry point ``rref``, which row-reduces through
:class:`EchelonBasis` like every other caller.  A linear system is solved
as a kernel: the solutions of M x = t b with t != 0 are read off
:func:`kernel` on F^(n+1).
"""

import functools

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    EnumerationUnsupportedError,
    LieIdealsError,
    NotContainedError,
)
from .exactfield import PrimeField

DEFAULT_BUDGET = 10**6


# ---------------------------------------------------------------------------
# coordinate-tuple helpers
# ---------------------------------------------------------------------------

def unit_vector(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


# ---------------------------------------------------------------------------
# row reduction and kernels
# ---------------------------------------------------------------------------

def rref(field, rows):
    """Reduced row echelon form of a matrix of coordinate tuples.

    Returns ``(rows, pivots)`` with zero rows dropped and pivot columns
    strictly increasing; the result is the canonical basis of the row space,
    built by :class:`EchelonBasis`.  Rows of differing lengths raise
    AmbientMismatchError.

    Its one library caller is Norton's nullity scan in ``structure``.  It
    stays a separate entry point because the benchmark tracer counts its
    calls on the ``lattice-ladder`` workload, and a benchmark test asserts
    that count is positive.
    """
    rows = list(rows)
    S = Subspace(field, len(rows[0]) if rows else 0, rows)
    return S.rows, S.pivots


def right_kernel(field, rows, ncols):
    """Basis of ``{x : M x = 0}`` for the matrix whose rows are the given
    vectors of F^ncols."""
    return null_vectors(span_vecs(field, ncols, rows))


def null_vectors(S):
    """A basis of the annihilator of S, not reduced: one vector per free
    column f of S's RREF basis, which is e_f minus the basis' entries in
    column f, each at its row's pivot."""
    space, vecs = S.space, S.vecs
    entry, submul, unit = space.entry, space.submul, space.unit
    units = [unit(p) for p in S.pivots]
    out = []
    for f in sorted(set(range(S.ambient)) - set(S.pivots)):
        x = unit(f)
        for row, e in zip(vecs, units):
            c = entry(row, f)
            if c:
                x = submul(x, c, e)
        out.append(x)
    return out


class EchelonBasis:
    """Mutable RREF accumulator for incremental span building, over the
    vectors of ``field.space(n)``."""

    __slots__ = ("field", "n", "space", "vecs", "pivots")

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.space = field.space(n)
        self.vecs = []    # kept in RREF, pivots strictly increasing
        self.pivots = []

    @classmethod
    def of(cls, S):
        """An accumulator that starts from the basis of the subspace S."""
        basis = cls(S.field, S.ambient)
        basis.vecs = list(S.vecs)
        basis.pivots = list(S.pivots)
        return basis

    @property
    def dim(self):
        return len(self.vecs)

    def reduce(self, v):
        return self.space.reduce(v, self.vecs, self.pivots)

    def add(self, v):
        """Insert v into the span; returns True if the dimension grew."""
        return self.space.insert(self.vecs, self.pivots, v)

    def __contains__(self, v):
        return self.space.is_zero(self.reduce(v))

    def subspace(self):
        return Subspace._trusted(self.space, tuple(self.vecs), tuple(self.pivots))


def closure(field, n, seeds, images):
    """Smallest subspace of F^n that contains ``seeds`` and, with each of
    its vectors w, every vector of the linear ``images(w)``.  Only vectors
    that grow the span are mapped, and the loop stops once it is full."""
    basis = EchelonBasis(field, n)
    work = list(seeds)
    while work:
        w = work.pop()
        if not basis.add(w):
            continue
        if basis.dim == n:
            break
        work.extend(images(w))
    return basis.subspace()


def span_vecs(field, ambient, vecs):
    """Canonical subspace spanned by vectors of ``field.space(ambient)``."""
    basis = EchelonBasis(field, ambient)
    for v in vecs:
        basis.add(v)
    return basis.subspace()


def _lower_part(field, m, n, joined):
    """The vectors (0, x) of F^(m + n) in the span of ``joined``, as a
    canonical subspace of F^n: in the RREF basis of the span, the rows that
    pivot past column m vanish on the first m columns, span the vectors that
    do, and are in RREF on the last n."""
    basis = EchelonBasis(field, m + n)
    for v in joined:
        basis.add(v)
    first, last = field.space(m), field.space(n)
    keep = [(row, p) for row, p in zip(basis.vecs, basis.pivots) if p >= m]
    return Subspace._trusted(
        last, tuple(first.tail(row, last) for row, _ in keep), tuple(p - m for _, p in keep)
    )


def kernel(field, n, images, m):
    """``{x in F^n : sum_j x_j images[j] = 0}`` for vectors images[j] of
    F^m: the part of the span of the rows (images[j], e_j) that vanishes on
    F^m."""
    img, src = field.space(m), field.space(n)
    return _lower_part(field, m, n, [img.join(w, src.unit(j), src) for j, w in enumerate(images)])


# ---------------------------------------------------------------------------
# Subspace
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of coordinate n-space in canonical RREF form.  ``vecs``
    holds the basis rows as vectors of ``field.space(n)`` (packed ints over
    GF(p), numerator tuples over Q) and ``rows`` the same rows as coordinate
    tuples.  It is never changed once built, so its hash is computed once,
    by the constructor, and its element mask (:func:`element_mask`) once,
    by the first call that asks for it."""

    __slots__ = ("field", "ambient", "space", "vecs", "pivots", "dim", "_hash", "_mask")

    def __init__(self, field, ambient, vectors):
        space = field.space(ambient)
        basis = EchelonBasis(field, ambient)
        for v in vectors:
            if len(v) != ambient:
                raise AmbientMismatchError(
                    f"vector of length {len(v)} in ambient dimension {ambient}"
                )
            basis.add(space.pack(v))
        self.field = field
        self.ambient = ambient
        self.space = space
        self.vecs = vecs = tuple(basis.vecs)
        self.pivots = tuple(basis.pivots)
        self.dim = len(vecs)
        self._hash = hash((field, ambient, vecs))
        self._mask = None

    @classmethod
    def _trusted(cls, space, vecs, pivots):
        # vecs already in canonical RREF, in the space F^n; skips re-reduction
        self = object.__new__(cls)
        self.field = field = space.field
        self.ambient = ambient = space.n
        self.space = space
        self.vecs = vecs
        self.pivots = pivots
        self.dim = len(vecs)
        self._hash = hash((field, ambient, vecs))
        self._mask = None
        return self

    @property
    def rows(self):
        """The basis rows as coordinate tuples."""
        return tuple(map(self.space.unpack, self.vecs))

    def is_zero(self):
        return not self.vecs

    def is_full(self):
        return len(self.vecs) == self.ambient

    def check_compatible(self, other):
        """Raise unless other is a subspace of the same space as self."""
        if self.space is other.space:
            return
        self.field.check_same(other.field)
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"incompatible subspaces: {self.field}^{self.ambient} "
                f"vs {other.field}^{other.ambient}"
            )

    def reduce(self, v):
        return self.space.reduce(v, self.vecs, self.pivots)

    def __contains__(self, v):
        """Whether v lies in S: a coordinate tuple has n entries, anything
        else must be a vector of ``space``.  Over Q both are tuples, and a
        vector has n + 1 entries."""
        space = self.space
        if isinstance(v, tuple) and len(v) == self.ambient:
            v = space.pack(v)
        else:
            space.check(v)
        return space.is_zero(space.reduce(v, self.vecs, self.pivots))

    def __le__(self, other):
        self.check_compatible(other)
        if self.dim > other.dim:
            return False
        space, vecs, pivots = other.space, other.vecs, other.pivots
        return all(space.is_zero(space.reduce(v, vecs, pivots)) for v in self.vecs)

    def __add__(self, other):
        self.check_compatible(other)
        basis = EchelonBasis.of(self)
        for v in other.vecs:
            basis.add(v)
        return basis.subspace()

    def __and__(self, other):
        """Intersection by Zassenhaus' method: the vectors (0, x) in the
        span of the rows (u, u) for u in self and (w, 0) for w in other are
        exactly those with x in both."""
        self.check_compatible(other)
        if not self.vecs or not other.vecs:
            return self if not self.vecs else other
        space, zero = self.space, self.space.zero
        joined = [space.join(u, u, space) for u in self.vecs]
        joined += [space.join(w, zero, space) for w in other.vecs]
        return _lower_part(self.field, self.ambient, self.ambient, joined)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self._hash == other._hash
            and self.vecs == other.vecs
            and self.ambient == other.ambient
            and self.field == other.field
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        # int order of packed vectors is the order of their coordinate
        # tuples; Q vectors are compared as their coordinates
        return (self.dim, self.vecs if isinstance(self.field, PrimeField) else self.rows)

    def __repr__(self):
        return f"Subspace({self.field}^{self.ambient}, dim {self.dim})"

    def basis_strings(self):
        f = self.field
        return [[f.format(a) for a in row] for row in self.rows]

    @classmethod
    def from_basis_strings(cls, field, ambient, rows):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise LieIdealsError("a basis must be a list of lists of scalars")
        vectors = [tuple(field.parse(a) for a in row) for row in rows]
        return cls(field, ambient, vectors)


MASK_LIMIT = 2**12  # the most bits an element mask may have: q^n <= this


def element_mask(S):
    """The elements of S, a subspace of GF(q)^n, as one int: bit c is set
    when the vector whose base-q digits are c (coordinate i is the digit of
    q^i) lies in S.  The mask of S ∩ T is mask_S & mask_T, S <= T exactly
    when mask_S & ~mask_T is 0, and a mask has q^dim(S) bits set.  It is
    made once per subspace and kept on it."""
    mask = S._mask
    if mask is None:
        space = S.space
        add = space.add
        elements = [space.zero]
        for row in S.vecs:
            elements += [add(e, m) for m in space.multiples(row)[1:] for e in elements]
        mask = S._mask = sum(1 << c for c in map(space.code, elements))
    return mask


def span(field, ambient, vectors):
    """Canonical subspace spanned by the given coordinate tuples."""
    return Subspace(field, ambient, vectors)


@functools.cache
def zero_subspace(field, ambient):
    return Subspace._trusted(field.space(ambient), (), ())


@functools.cache
def full_subspace(field, ambient):
    space = field.space(ambient)
    vecs = tuple(space.unit(i) for i in range(ambient))
    return Subspace._trusted(space, vecs, tuple(range(ambient)))


def annihilator(S):
    """``{x : s . x = 0 for every s in S}`` under the standard dot product."""
    return span_vecs(S.field, S.ambient, null_vectors(S))


# ---------------------------------------------------------------------------
# section coordinates
# ---------------------------------------------------------------------------

class SectionMap:
    """Coordinates on the section K/I, for subspaces I <= K of F^n.

    A coordinate is read at each pivot column of K that is not a pivot of
    I (I's pivots are among K's), and the lift of the a-th coordinate
    vector is K's basis row at that column.  So a restriction (I = 0)
    reads K's pivot entries and lifts along K's basis, and a quotient
    (K = F^n) reads the columns outside I's pivots and lifts to unit
    vectors.  Coordinates are vectors of ``space``, F^dim(K/I), and
    ``project(lift(c)) == c`` for every one of them.
    """

    __slots__ = ("K", "I", "lifts", "cols", "dim", "space")

    def __init__(self, K, I):
        self.K = K
        self.I = I
        pivot_set = set(I.pivots)
        self.cols = tuple(p for p in K.pivots if p not in pivot_set)
        self.lifts = tuple(row for row, p in zip(K.vecs, K.pivots) if p not in pivot_set)
        self.dim = len(self.cols)
        self.space = K.field.space(self.dim)

    def project(self, v):
        """Coordinates of the coset v + I, for v in K."""
        K = self.K
        res = self.I.reduce(v)
        # every vector lies in a full K
        if not K.is_full() and not K.space.is_zero(K.reduce(res)):
            raise NotContainedError("vector is outside the subspace K of K/I")
        entry = K.space.entry
        return self.space.pack([entry(res, c) for c in self.cols])

    def lift(self, coords):
        return self.K.space.lin_comb(self.space.unpack(coords), self.lifts)

    def project_subspace(self, U):
        """The image of a subspace U <= K, in the coordinates of K/I."""
        return span_vecs(self.K.field, self.dim, [self.project(v) for v in U.vecs])

    def preimage_subspace(self, W):
        """The subspace of K, containing I, that maps onto W."""
        K = self.K
        vecs = [self.lift(w) for w in W.vecs] + list(self.I.vecs)
        return span_vecs(K.field, K.ambient, vecs)


# ---------------------------------------------------------------------------
# subspace enumeration
# ---------------------------------------------------------------------------

def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_subspaces(field, n, dims=None):
    """Number of subspaces of GF(q)^n whose dimension is in ``dims`` (every
    dimension by default).  The Gaussian binomials come from the ratio
    recurrence G(n, k) = G(n, k-1) (q^(n-k+1) - 1) / (q^k - 1): one
    multiplication and one exact division per term."""
    q = field.characteristic()
    wanted = range(n + 1) if dims is None else set(dims)
    total = 0
    g, top, bottom = 1, q ** (n + 1), 1
    for k in range(min(n, max(wanted, default=-1)) + 1):
        if k:
            top //= q
            bottom *= q
            g = g * (top - 1) // (bottom - 1)
        if k in wanted:
            total += g
    return total


def _normalize_dims(n, dim_filter):
    if dim_filter is None:
        return tuple(range(n + 1))
    if isinstance(dim_filter, int):
        dims = [dim_filter]
    else:
        dims = sorted(set(dim_filter))
    return tuple(k for k in dims if 0 <= k <= n)


_subspace_total = functools.cache(count_subspaces)


def check_enumeration(field, n, budget, dims=None):
    """Raise unless the subspaces of GF(q)^n of the given dimensions (all of
    them by default) can be enumerated within ``budget`` (None: no limit).

    The answer depends on the arguments alone, so a memoized lattice result
    re-runs this gate on every hit; after the first call per (field, n,
    dims) it is a table lookup and one comparison.
    """
    if not isinstance(field, PrimeField):
        raise EnumerationUnsupportedError(
            f"subspace enumeration unsupported over infinite field {field}"
        )
    if budget is not None:
        total = _subspace_total(field, n, dims)
        if total > budget:
            raise BudgetExceededError(total, budget)


def _first_rows(space, p, cands, need, memo):
    """The rows of F^n with leading 1 at column p whose zero set among the
    later pivot candidates ``cands`` has at least ``need`` columns, in
    increasing order, each with that zero set.

    Columns are settled left to right, and a candidate takes a nonzero
    entry only while enough candidates are left to supply the zeros, so
    every row produced extends to a basis.  Shared tails are computed once
    per call of :func:`enumerate_subspaces` (``memo``)."""
    head = space.unit(p)
    return [(head | v, zeros) for v, zeros in _tails(space, p + 1, cands, need, memo)]


def _tails(space, start, cands, need, memo):
    key = (start, cands, need)
    out = memo.get(key)
    if out is not None:
        return out
    if not cands:
        out = [(v, ()) for v in space.block(start, space.n)]
    else:
        c, rest = cands[0], cands[1:]
        after = _tails(space, c + 1, rest, need - 1, memo)
        if len(rest) >= need:
            # a nonzero entry at c still leaves enough zeros among the rest
            free = _tails(space, c + 1, rest, need, memo)
            nonzero = [space.unit(c) * a for a in range(1, space.field.characteristic())]
        else:
            free, nonzero = (), ()
        out = []
        for h in space.block(start, c):
            out += [(h | v, (c,) + zeros) for v, zeros in after]
            for a in nonzero:
                out += [(h | a | v, zeros) for v, zeros in free]
    memo[key] = out
    return out


def _echelon_rows(space, k, pivot_cols, memo):
    """The k-row RREF bases of F^n whose pivots lie in ``pivot_cols``
    (increasing columns), as ``(rows, pivots)`` in lexicographic order of
    the rows.

    Row 0 comes first: a later pivot means more leading zeros, so its pivot
    runs from the last candidate column down, and its entries after the
    pivot run in increasing order, skipping rows with fewer than k - 1 zero
    candidates left.  The other rows are the (k-1)-row bases that pivot
    only at later candidates where row 0 is zero.
    """
    if k == 0:
        yield (), ()
        return
    for i in range(len(pivot_cols) - k, -1, -1):
        p = pivot_cols[i]
        for row, later in _first_rows(space, p, pivot_cols[i + 1:], k - 1, memo):
            for rows, pivots in _echelon_rows(space, k - 1, later, memo):
                yield (row,) + rows, (p,) + pivots


def enumerate_subspaces(field, n, dim_filter=None, budget=DEFAULT_BUDGET):
    """Yield every subspace of GF(q)^n exactly once, in canonical order.

    Order is by dimension, then lexicographic on the RREF basis matrix.
    Bases are generated directly in that order, so nothing is sorted or
    held back: the first subspaces of a dimension cost only themselves.
    """
    dims = _normalize_dims(n, dim_filter)
    check_enumeration(field, n, budget, dims)
    space = field.space(n)
    shared = {}  # one pivots tuple per pattern, as rows share their vectors
    memo = {}
    for k in dims:
        for rows, pivots in _echelon_rows(space, k, tuple(range(n)), memo):
            yield Subspace._trusted(space, rows, shared.setdefault(pivots, pivots))


def projective_points(field, n):
    """One representative per line: vectors whose first nonzero entry is 1,
    in lexicographic order of the leading column, then of the rest.  Over Q
    the lines are infinitely many: the first step raises
    EnumerationUnsupportedError."""
    check_enumeration(field, n, None, (1,))
    space = field.space(n)
    for lead in range(n):
        head = space.unit(lead)
        for tail in space.block(lead + 1, n):
            yield head | tail
