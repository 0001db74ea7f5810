"""Exact dense linear algebra and canonical subspace arithmetic.

Vectors are tuples of field elements, matrices are tuples of row tuples.
A :class:`Subspace` stores the unique reduced row echelon basis of its row
space, so subspace equality is plain tuple equality and every subspace has
one canonical representation.
"""

import functools
import itertools

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
# vector / matrix helpers
# ---------------------------------------------------------------------------

def zero_vector(field, n):
    return (field.zero,) * n


def unit_vector(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_add(field, u, v):
    norm = field.norm
    return tuple(norm(a + b) for a, b in zip(u, v))


def vec_scale(field, c, v):
    norm = field.norm
    return tuple(norm(c * a) for a in v)


def vec_is_zero(field, v):
    return not any(v)


def lin_comb(field, coeffs, vectors, n):
    """Sum of ``coeffs[i] * vectors[i]`` in coordinate n-space."""
    out = [field.zero] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for j, a in enumerate(v):
                if a:
                    out[j] += c * a
    return tuple(map(field.norm, out))


def dot(field, u, v):
    return field.norm(sum([a * b for a, b in zip(u, v) if a and b]))


def mat_vec(field, rows, v):
    """Matrix times column vector; rows is m x n, v has length n."""
    return tuple(dot(field, row, v) for row in rows)


def transpose(rows, ncols):
    if not rows:
        return tuple(() for _ in range(ncols))
    return tuple(tuple(row[j] for row in rows) for j in range(ncols))


# ---------------------------------------------------------------------------
# row reduction, kernels, solving
# ---------------------------------------------------------------------------

def rref(field, rows):
    """Reduced row echelon form.

    Returns ``(rows, pivots)`` with zero rows dropped and pivot columns
    strictly increasing; the result is the canonical basis of the row space.
    """
    norm = field.norm
    work = [list(r) for r in rows if any(r)]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        top = work[r]
        if top[c] != 1:
            s = field.inv(top[c])
            top = work[r] = [norm(s * x) for x in top]
        for i in range(nrows):
            k = work[i][c]
            if k and i != r:
                work[i] = [norm(x - k * y) if y else x for x, y in zip(work[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reduce_against(field, rows, pivots, v):
    """Residual of v after elimination by an RREF basis."""
    norm = field.norm
    v = list(v)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            for j in range(p, len(v)):
                if row[j]:
                    v[j] = norm(v[j] - c * row[j])
    return tuple(v)


def right_kernel(field, rows, ncols):
    """Basis of ``{x : M x = 0}`` for the matrix with the given rows."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [field.zero] * ncols
        x[f] = field.one
        for r, p in enumerate(pivots):
            x[p] = field.norm(-red[r][f])
        basis.append(tuple(x))
    return basis


def solve(field, rows, rhs, ncols=None):
    """One solution of ``M x = rhs`` or None if the system is inconsistent."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    aug = [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


class EchelonBasis:
    """Mutable RREF accumulator for incremental span building."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = []    # kept in RREF, pivots strictly increasing
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        return reduce_against(self.field, self.rows, self.pivots, v)

    def add(self, v):
        """Insert v into the span; returns True if the dimension grew."""
        field = self.field
        res = self.reduce(v)
        p = next((j for j, a in enumerate(res) if a), None)
        if p is None:
            return False
        if res[p] != 1:
            res = vec_scale(field, field.inv(res[p]), res)
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < p:
            pos += 1
        self.rows.insert(pos, res)
        self.pivots.insert(pos, p)
        norm = field.norm
        for i, row in enumerate(self.rows):
            c = row[p]
            if c and i != pos:
                self.rows[i] = tuple(norm(x - c * y) if y else x for x, y in zip(row, res))
        return True

    def __contains__(self, v):
        return vec_is_zero(self.field, self.reduce(v))

    def subspace(self):
        return Subspace._trusted(self.field, self.n, tuple(self.rows), tuple(self.pivots))


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


# ---------------------------------------------------------------------------
# Subspace
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of coordinate n-space in canonical RREF form.  It is never
    changed once built, so its hash is computed once, by the constructor."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_hash")

    def __init__(self, field, ambient, vectors):
        for v in vectors:
            if len(v) != ambient:
                raise AmbientMismatchError(
                    f"vector of length {len(v)} in ambient dimension {ambient}"
                )
        rows, pivots = rref(field, list(vectors))
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._hash = hash((field, ambient, rows))

    @classmethod
    def _trusted(cls, field, ambient, rows, pivots):
        # rows already in canonical RREF; skips re-reduction
        self = object.__new__(cls)
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._hash = hash((field, ambient, rows))
        return self

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def is_full(self):
        return len(self.rows) == self.ambient

    def check_compatible(self, other):
        """Raise unless other is a subspace of the same space as self."""
        self.field.check_same(other.field)
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"incompatible subspaces: {self.field}^{self.ambient} "
                f"vs {other.field}^{other.ambient}"
            )

    def reduce(self, v):
        return reduce_against(self.field, self.rows, self.pivots, v)

    def __contains__(self, v):
        if len(v) != self.ambient:
            raise AmbientMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient}"
            )
        return vec_is_zero(self.field, self.reduce(v))

    def __le__(self, other):
        self.check_compatible(other)
        if self.dim > other.dim:
            return False
        return all(v in other for v in self.rows)

    def __add__(self, other):
        self.check_compatible(other)
        return Subspace(self.field, self.ambient, self.rows + other.rows)

    def __and__(self, other):
        """Intersection via the kernel of the stacked bases."""
        self.check_compatible(other)
        stacked = self.rows + other.rows
        if not stacked:
            return self
        coeffs = right_kernel(self.field, transpose(stacked, self.ambient), len(stacked))
        u = self.dim
        vectors = [
            lin_comb(self.field, c[:u], self.rows, self.ambient) for c in coeffs
        ]
        return Subspace(self.field, self.ambient, vectors)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.dim, self.rows)

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
    when mask_S & ~mask_T is 0, and a mask has q^dim(S) bits set."""
    field = S.field
    q = field.characteristic()
    codes = [0] * q**S.dim
    weight = 1
    for j in range(S.ambient):
        # digit j of every element, the elements in one order for all j
        digits = [0]
        for row in S.rows:
            c = row[j]
            if c:
                digits = [field.norm(d + a * c) for a in field.elements() for d in digits]
            else:
                digits *= q
        codes = [x + d * weight for x, d in zip(codes, digits)]
        weight *= q
    return sum(1 << c for c in codes)


def span(field, ambient, vectors):
    """Canonical subspace spanned by the given vectors."""
    return Subspace(field, ambient, vectors)


def zero_subspace(field, ambient):
    return Subspace._trusted(field, ambient, (), ())


def full_subspace(field, ambient):
    rows = tuple(unit_vector(field, ambient, i) for i in range(ambient))
    return Subspace._trusted(field, ambient, rows, tuple(range(ambient)))


def annihilator(S):
    """``{x : s . x = 0 for every s in S}`` under the standard dot product."""
    return Subspace(S.field, S.ambient, right_kernel(S.field, S.rows, S.ambient))


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
    vectors.  ``project(lift(c)) == c`` for every coordinate tuple c.
    """

    __slots__ = ("K", "I", "lifts", "cols", "dim")

    def __init__(self, K, I):
        self.K = K
        self.I = I
        pivot_set = set(I.pivots)
        self.cols = tuple(p for p in K.pivots if p not in pivot_set)
        self.lifts = tuple(row for row, p in zip(K.rows, K.pivots) if p not in pivot_set)
        self.dim = len(self.cols)

    def project(self, v):
        """Coordinates of the coset v + I, for v in K."""
        res = self.I.reduce(v)
        coords = tuple(res[c] for c in self.cols)
        # res lies in K exactly when it is the lift of its coordinates,
        # and every vector lies in a full K
        if not self.K.is_full() and self.lift(coords) != res:
            raise NotContainedError("vector is outside the subspace K of K/I")
        return coords

    def lift(self, coords):
        K = self.K
        return lin_comb(K.field, coords, self.lifts, K.ambient)

    def project_subspace(self, U):
        """The image of a subspace U <= K, in the coordinates of K/I."""
        return Subspace(self.K.field, self.dim, [self.project(v) for v in U.rows])

    def preimage_subspace(self, W):
        """The subspace of K, containing I, that maps onto W."""
        K = self.K
        vectors = [self.lift(w) for w in W.rows] + list(self.I.rows)
        return Subspace(K.field, K.ambient, vectors)


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


def _echelon_rows(field, n, k, pivot_cols):
    """The k-row RREF bases of GF(q)^n whose pivots lie in ``pivot_cols``
    (increasing columns), in lexicographic order of the row tuples.

    Row 0 comes first: a later pivot means more leading zeros, so its pivot
    runs from the last candidate column down, and its entries after the
    pivot run in lexicographic order.  The other rows are the (k-1)-row
    bases that pivot only at later columns where row 0 is zero.
    """
    if k == 0:
        yield ()
        return
    elements = field.elements()
    for i in range(len(pivot_cols) - k, -1, -1):
        p = pivot_cols[i]
        head = (field.zero,) * p + (field.one,)
        for tail in itertools.product(elements, repeat=n - p - 1):
            row = head + tail
            later = tuple(c for c in pivot_cols[i + 1:] if not row[c])
            if len(later) >= k - 1:
                for rows in _echelon_rows(field, n, k - 1, later):
                    yield (row,) + rows


def enumerate_subspaces(field, n, dim_filter=None, budget=DEFAULT_BUDGET):
    """Yield every subspace of GF(q)^n exactly once, in canonical order.

    Order is by dimension, then lexicographic on the RREF basis matrix.
    Bases are generated directly in that order, so nothing is sorted or
    held back: the first subspaces of a dimension cost only themselves.
    """
    dims = _normalize_dims(n, dim_filter)
    check_enumeration(field, n, budget, dims)
    shared = {}  # one pivots tuple per pattern, as rows share their row tuples
    for k in dims:
        for rows in _echelon_rows(field, n, k, tuple(range(n))):
            # a row's first nonzero entry is its pivot's 1
            pivots = tuple(row.index(field.one) for row in rows)
            yield Subspace._trusted(field, n, rows, shared.setdefault(pivots, pivots))


def projective_points(field, n):
    """One representative per line: vectors whose first nonzero entry is 1."""
    elements = list(field.elements())
    for lead in range(n):
        prefix = (field.zero,) * lead + (field.one,)
        for tail in itertools.product(elements, repeat=n - lead - 1):
            yield prefix + tail
