"""Exact scalars and coordinate vectors over GF(p) and over the rationals.

Scalars are native Python numbers: an int residue in ``0..p-1`` over a
prime field, a :class:`~fractions.Fraction` (or an int) over the rationals.
Callers combine them with ``+``, ``-`` and ``*`` and pass each result
through ``field.norm``, which returns the canonical representative, so
equal field elements always compare equal.  Division goes through
``field.inv``.  A field object decides only what differs between GF(p) and
Q: ``zero``, ``one``, ``norm``, ``inv``, literals and enumeration.

Vectors have two representations under one API, ``field.space(n)``:

- over GF(p) (:class:`PackedSpace`) a vector of F^n is one non-negative
  int.  Coordinate j sits in a w-bit slot at position n-1-j, with w = 1
  for p = 2 and w = p.bit_length() + 1 otherwise, so coordinate 0 is the
  most significant slot and int order is the lexicographic order of the
  coordinate tuples.  Addition is XOR for p = 2; for odd p a sum of two
  residues stays inside its slot and one add-and-mask folds it back into
  ``0..p-1``;
- over Q (:class:`RationalSpace`) a vector of Q^n is one tuple of n + 1
  ints: the n numerators over one positive common denominator, last, in
  lowest terms (the gcd of all n + 1 is 1).  The zero vector is
  ``(0, ..., 0, 1)``.  The form is canonical, so equal vectors are equal
  tuples, and sums, multiples and row reduction run on ints and divide
  once per result by a gcd; no Fraction is built on the way.

The structure-constant maps live here too: ``space.structure_table``
turns a Lie algebra's table ``{(i, j): [e_i, e_j]}`` into the space's own
form once, and the space's ``bracket``, ``ad_images`` and
``transposed_ad_images`` run over it; ``liecore`` only builds and
validates the table.

Every slot shift and mask lives in this module and in ``linspace``.  The
public boundary of the library (``Subspace(field, n, vectors)``,
``Subspace.rows``, the ``LieAlgebra`` constructor and ``bracket_basis``,
``span``, ``basis_strings``) speaks coordinate tuples, of Fractions over
Q; ``pack`` and ``unpack`` convert.  Scalars at the API edge stay field
elements: ``entry`` returns one, and ``scale``, ``submul`` and ``lin_comb``
take them.
"""

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import AmbientMismatchError, FieldMismatchError, LieIdealsError

MAX_PRIME = 251  # residues fit a byte; enumeration caps are far below this


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for the supported range."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# coordinate spaces: the vector kernel
# ---------------------------------------------------------------------------

TABLE_LIMIT = 2**12  # spaces with at most this many vectors keep an unpack table
SPARSE_DIM = 64  # spaces of more coordinates read them one at a time


class _Coords(dict):
    """The coordinate tuples of packed vectors, looked up by vector.  A
    miss checks the vector and unpacks it; in a space of at most
    TABLE_LIMIT vectors the tuple is kept, so each is unpacked once."""

    __slots__ = ("space", "keep")

    def __init__(self, space):
        super().__init__()
        self.space = space
        self.keep = space.p**space.n <= TABLE_LIMIT

    def __missing__(self, v):
        space = self.space
        space.check(v)
        coords = tuple(v >> s & space.slot for s in space.shifts)
        if self.keep:
            self[v] = coords
        return coords


class _Slots:
    """The coordinates of one packed vector, each read when indexed: in a
    space of more than SPARSE_DIM coordinates, a sparse bilinear map reads
    only a few of them."""

    __slots__ = ("v", "shifts", "slot")

    def __init__(self, space, v):
        space.check(v)
        self.v, self.shifts, self.slot = v, space.shifts, space.slot

    def __getitem__(self, j):
        return self.v >> self.shifts[j] & self.slot


class _Space:
    """What the two representations share."""

    def __repr__(self):
        return f"{self.field}^{self.n}"

    def lin_comb(self, coeffs, vectors):
        """Sum of ``coeffs[i] * vectors[i]``."""
        out = self.zero
        for c, v in zip(coeffs, vectors):
            if c:
                out = self.add(out, self.scale(c, v))
        return out

    def insert(self, vectors, pivots, v):
        """Add v to the RREF basis ``vectors`` (pivots increasing), in place;
        True when the span grew."""
        res = self.reduce(v, vectors, pivots)
        lead = self.lead(res)
        if lead is None:
            return False
        p, c = lead
        if c != 1:
            res = self.scale(self.field.inv(c), res)
        # the rows above pivot before p; only they can be nonzero at column p
        pos = bisect.bisect(pivots, p)
        for i in range(pos):
            c = self.entry(vectors[i], p)
            if c:
                vectors[i] = self.submul(vectors[i], c, res)
        vectors.insert(pos, res)
        pivots.insert(pos, p)
        return True


class PackedSpace(_Space):
    """GF(p)^n, each vector one non-negative int in the slot layout of the
    module docstring."""

    def __init__(self, field, n):
        p = field.p
        w = 1 if p == 2 else p.bit_length() + 1
        self.field, self.n, self.p, self.width = field, n, p, w
        self.bits = n * w
        self.shifts = tuple((n - 1 - j) * w for j in range(n))
        self.slot = (1 << w) - 1
        self.mask = (1 << self.bits) - 1
        self.zero = 0
        ones = sum(1 << s for s in self.shifts)
        # a slot sum x < 2p becomes x + 2^(w-1) - p < 2^w, whose top bit is
        # set exactly when x >= p
        self._top = w - 1
        self._bias = ((1 << (w - 1)) - p) * ones
        self._high = ones << (w - 1)
        self._pones = p * ones
        # format() writes one digit per slot for these widths
        spec = {1: "b", 3: "o", 4: "x"}.get(w)
        self._format = spec and f"0{n}{spec}"
        # coords(v): the coordinates of an int v, read one at a time past
        # SPARSE_DIM coordinates.  A table hit checks nothing, and True and
        # 1.0 hash and compare equal to the vector 1, so every reader checks
        # the type first
        self._coords = _Coords(self)
        self.coords = (self._coords.__getitem__ if n <= SPARSE_DIM
                       else functools.partial(_Slots, self))

    def pack(self, coords):
        """The vector with the given coordinates (any int representatives)."""
        p = self.p
        return sum([(a % p) << s for a, s in zip(coords, self.shifts)])

    def check(self, v):
        """Raise unless v is a vector of this space: a non-negative int of n
        slots, each holding a residue below p.  A slot x below 2^(w-1)
        becomes x + 2^(w-1) - p < 2^w under the bias, whose top bit is set
        exactly when x >= p."""
        if type(v) is not int or v < 0 or v >> self.bits or (v | v + self._bias) & self._high:
            raise AmbientMismatchError(f"{v!r} is not a vector of {self}")

    def unpack(self, v):
        """The coordinate tuple of v, raising AmbientMismatchError for
        anything that is not a vector of this space."""
        if type(v) is not int:
            self.check(v)
        return self._coords[v]

    def unit(self, j):
        return 1 << self.shifts[j]

    def entry(self, v, j):
        """Coordinate j of v."""
        return v >> self.shifts[j] & self.slot

    def lead(self, v):
        """``(column, entry)`` of the first nonzero coordinate of v, the top
        nonzero slot, or None for the zero vector."""
        if not v:
            return None
        top = (v.bit_length() - 1) // self.width
        return self.n - 1 - top, v >> (top * self.width)

    @staticmethod
    def is_zero(v):
        return not v

    def add(self, u, v):
        s = u + v
        return s - ((s + self._bias & self._high) >> self._top) * self.p

    def sub(self, u, v):
        s = u + self._pones - v
        return s - ((s + self._bias & self._high) >> self._top) * self.p

    def neg(self, v):
        return self.sub(0, v)

    def scale(self, c, v):
        """c * v, by doubling."""
        p = self.p
        c %= p
        if c == 1:
            return v
        if c > p // 2:
            return self.neg(self.scale(p - c, v))
        out = 0
        while c:
            if c & 1:
                out = self.add(out, v)
            c >>= 1
            if c:
                v = self.add(v, v)
        return out

    def submul(self, v, c, row):
        """v - c * row for a nonzero residue c."""
        if c == self.p - 1:
            return self.add(v, row)
        return self.sub(v, self.scale(c, row))

    def multiples(self, v):
        """``[0, v, 2v, ..., (p-1)v]``."""
        out = [0, v]
        for _ in range(self.p - 2):
            out.append(self.add(out[-1], v))
        return out

    def scaler(self, v):
        """The map c -> c * v, precomputed, for integers c with
        |c| <= (p-1)^2, so that the coefficients x_i y_j - x_j y_i of a
        bilinear map need no reduction.  For small p it is a lookup in the
        multiples repeated past (p-1)^2: a negative index wraps to its
        residue."""
        p, mults = self.p, self.multiples(v)
        reach = (p - 1) ** 2 + 1
        if reach <= 64:
            return (mults * -(-reach // p)).__getitem__
        return lambda c: mults[c % p]

    # -- the structure-constant maps --------------------------------------

    def structure_table(self, table):
        """The maps' form of a Lie algebra's nonzero ``{(i, j): [e_i, e_j]}``:
        per entry (i, j, c -> c [e_i, e_j]), and a ``_transposed_entry``."""
        items = table.items()
        return (tuple((i, j, self.scaler(v)) for (i, j), v in items),
                tuple(self._transposed_entry(i, j, v) for (i, j), v in items))

    def _transposed_entry(self, i, j, v):
        # (i, j, the nonzero (k, c_k) of [e_i, e_j], c -> c e_j, c -> c e_i)
        pairs = tuple((k, c) for k, c in enumerate(self.unpack(v)) if c)
        return i, j, pairs, self.scaler(self.unit(j)), self.scaler(self.unit(i))

    def bracket(self, table, x, y):
        """[x, y] by the bilinear extension of the table."""
        if type(x) is not int or type(y) is not int:
            self.check(x)
            self.check(y)
        xs, ys = self.coords(x), self.coords(y)
        add = self.add
        out = 0
        for i, j, times in table[0]:
            c = xs[i] * ys[j] - xs[j] * ys[i]
            if c:
                out = add(out, times(c))
        return out

    def ad_images(self, table, y):
        """The vectors [e_i, y] for i = 0..n-1."""
        if type(y) is not int:
            self.check(y)
        ys = self.coords(y)
        add = self.add
        out = [0] * self.n
        for i, j, times in table[0]:
            if ys[j]:
                out[i] = add(out[i], times(ys[j]))
            if ys[i]:
                out[j] = add(out[j], times(-ys[i]))
        return out

    def transposed_ad_images(self, table, y):
        """The nonzero vectors ad(e_i)^T y.  Entry j of ad(e_i)^T y is y
        dotted with [e_i, e_j], so only the table entries meeting e_i count;
        y's coordinates are read once, and each entry's nonzero ones."""
        if type(y) is not int:
            self.check(y)
        ys = self.coords(y)
        p, add = self.p, self.add
        images = {}
        for i, j, pairs, e_j, e_i in table[1]:
            s = 0
            for k, c in pairs:
                s += c * ys[k]
            s %= p
            if s:
                images[i] = add(images.get(i, 0), e_j(s))
                images[j] = add(images.get(j, 0), e_i(-s))
        return list(images.values())

    def reduce(self, v, vectors, pivots):
        """Residual of v after elimination by an RREF basis."""
        shifts, m, p = self.shifts, self.slot, self.p
        bias, high, top, pones = self._bias, self._high, self._top, self._pones
        for row, col in zip(vectors, pivots):
            c = v >> shifts[col] & m
            if c:
                # v - c row, folded as in add and sub
                if c == p - 1:
                    s = v + row
                else:
                    s = v + pones - (row if c == 1 else self.scale(c, row))
                v = s - ((s + bias & high) >> top) * p
        return v

    def join(self, a, b, other):
        """The vector (a, b) of F^(n + m), for a in this space and b in
        other = F^m."""
        return a << other.bits | b

    def tail(self, v, other):
        """The last m coordinates of a vector of F^(n + m), other = F^m."""
        return v & other.mask

    def block(self, start, stop):
        """Every vector whose nonzero coordinates lie in columns
        start..stop-1, in increasing order."""
        if start >= stop:
            return iter((0,))
        if self.p == 2:
            s = self.shifts[stop - 1]
            return (x << s for x in range(1 << (stop - start)))
        digits = [[a << self.shifts[j] for a in range(self.p)] for j in range(start, stop)]
        return map(sum, itertools.product(*digits))

    def code(self, v):
        """The integer whose base-p digit of p^j is coordinate j of v."""
        if self._format:
            return int(format(v, self._format)[::-1], self.p)
        return sum(a * self.p**j for j, a in enumerate(self.unpack(v)))


class GF2Space(PackedSpace):
    """GF(2)^n: one bit per coordinate, addition is XOR."""

    add = sub = staticmethod(operator.xor)

    def check(self, v):
        # a one-bit slot holds 0 or 1, so every int of n bits is a vector
        if type(v) is not int or v < 0 or v >> self.bits:
            raise AmbientMismatchError(f"{v!r} is not a vector of {self}")

    @staticmethod
    def neg(v):
        return v

    @staticmethod
    def scale(c, v):
        return v if c & 1 else 0

    @staticmethod
    def submul(v, c, row):
        return v ^ row

    def _transposed_entry(self, i, j, v):
        # (i, j, [e_i, e_j], e_j, e_i): a dot product is a popcount
        return i, j, v, self.unit(j), self.unit(i)

    def transposed_ad_images(self, table, y):
        self.check(y)
        images = {}
        for i, j, v, e_j, e_i in table[1]:
            if (v & y).bit_count() & 1:
                images[i] = images.get(i, 0) ^ e_j
                images[j] = images.get(j, 0) ^ e_i
        return list(images.values())

    def reduce(self, v, vectors, pivots):
        shifts = self.shifts
        for row, col in zip(vectors, pivots):
            if v >> shifts[col] & 1:
                v ^= row
        return v

    def insert(self, vectors, pivots, v):
        # as _Space.insert, by XOR: the lead entry is always 1
        shifts = self.shifts
        for row, col in zip(vectors, pivots):
            if v >> shifts[col] & 1:
                v ^= row
        if not v:
            return False
        top = v.bit_length() - 1
        p = self.n - 1 - top
        pos = bisect.bisect(pivots, p)
        for i in range(pos):
            if vectors[i] >> top & 1:
                vectors[i] ^= v
        vectors.insert(pos, v)
        pivots.insert(pos, p)
        return True


def _lowest(w):
    """The vector of Q^n whose n numerators and nonzero denominator are the
    ints of the list w, in lowest terms with a positive denominator."""
    g = math.gcd(*w)
    if w[-1] < 0:
        g = -g
    if g != 1:
        w = [a // g for a in w]
    return tuple(w)


class RationalSpace(_Space):
    """Q^n, each vector a tuple of n integer numerators and one positive
    common denominator, in lowest terms, in the layout of the module
    docstring.  Only ``unpack`` and ``entry`` build a Fraction."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.zero = (0,) * n + (1,)

    def pack(self, coords):
        """The vector with the given int or Fraction coordinates: over the
        lcm of their denominators, which leaves it in lowest terms."""
        d = math.lcm(*[a.denominator for a in coords])
        return tuple([a.numerator * (d // a.denominator) for a in coords] + [d])

    def unpack(self, v):
        self.check(v)
        d = v[-1]
        return tuple([Fraction(a, d) for a in v[:-1]])

    def check(self, v):
        """Raise unless v is a vector of this space."""
        if not (type(v) is tuple and len(v) == self.n + 1 and all(type(a) is int for a in v)
                and v[-1] > 0 and math.gcd(*v) == 1):
            raise AmbientMismatchError(f"{v!r} is not a vector of {self}")

    def unit(self, j):
        w = [0] * self.n + [1]
        w[j] = 1
        return tuple(w)

    @staticmethod
    def entry(v, j):
        a = v[j]
        return Fraction(a, v[-1]) if a else 0

    def is_zero(self, v):
        return v == self.zero

    def add(self, u, v):
        du, dv = u[-1], v[-1]
        if du == dv:
            w = [a + b for a, b in zip(u, v)]
        else:
            w = [a * dv + b * du for a, b in zip(u, v)]
            du *= dv
        w[-1] = du
        return _lowest(w)

    @staticmethod
    def neg(v):
        w = [-a for a in v]
        w[-1] = v[-1]
        return tuple(w)

    def scale(self, c, v):
        """c * v for an int or Fraction c."""
        cn = c.numerator
        if not cn:
            return self.zero
        w = [a * cn for a in v]
        w[-1] = v[-1] * c.denominator
        return _lowest(w)

    @staticmethod
    def submul(v, c, row):
        """v - c * row for an int or Fraction c."""
        cn, cd = c.numerator, c.denominator
        dv, dr = v[-1], row[-1]
        mv, mr = dr * cd, cn * dv
        w = [a * mv - b * mr for a, b in zip(v, row)]
        w[-1] = dv * mv
        return _lowest(w)

    def lin_comb(self, coeffs, vectors):
        """Sum of ``coeffs[i] * vectors[i]`` over the lcm of the terms'
        denominators."""
        terms = [(c.numerator, c.denominator * v[-1], v) for c, v in zip(coeffs, vectors) if c]
        d = math.lcm(*[m for _, m, _ in terms])
        out = [0] * self.n
        for cn, m, v in terms:
            k = cn * (d // m)
            out = [a + k * b for a, b in zip(out, v)]
        return _lowest(out + [d])

    @staticmethod
    def reduce(v, vectors, pivots):
        """Residual of v after elimination by an RREF basis.  A row's
        numerator equals its denominator d_r at its pivot c, so
        v - v_c row = (a d_r - a_c r) / (d_v d_r) needs no division; the
        result is put in lowest terms once."""
        out = v
        for row, col in zip(vectors, pivots):
            c = out[col]
            if c:
                dr = row[-1]
                w = [a * dr - c * b for a, b in zip(out, row)]
                w[-1] = out[-1] * dr
                out = w
        return v if out is v else _lowest(out)

    def insert(self, vectors, pivots, v):
        # as _Space.insert: the new row is v over its lead numerator, so
        # that numerator and denominator agree at its pivot; the
        # denominator is nonzero, so the scan for the lead ends there
        res = self.reduce(v, vectors, pivots)
        p = next(j for j, a in enumerate(res) if a)
        if p == self.n:
            return False
        row = list(res)
        row[-1] = res[p]
        row = _lowest(row)
        pos = bisect.bisect(pivots, p)
        for i in range(pos):
            if vectors[i][p]:
                vectors[i] = self.reduce(vectors[i], (row,), (p,))
        vectors.insert(pos, row)
        pivots.insert(pos, p)
        return True

    def join(self, a, b, other):
        """The vector (a, b) of Q^(n + m), for a in this space and b in
        other = Q^m: over the lcm of their denominators."""
        da, db = a[-1], b[-1]
        if da == db:
            return a[:-1] + b
        d = math.lcm(da, db)
        ka, kb = d // da, d // db
        return tuple([x * ka for x in a[:-1]] + [y * kb for y in b[:-1]] + [d])

    @staticmethod
    def tail(v, other):
        """The last m coordinates of a vector of Q^(n + m), other = Q^m."""
        return _lowest(list(v[-1 - other.n:]))

    # -- the structure-constant maps: each sums integer multiples of the
    # table's numerator rows and puts each result in lowest terms once

    @staticmethod
    def structure_table(table):
        """The maps' form of a Lie algebra's nonzero ``{(i, j): [e_i, e_j]}``:
        (den, per entry (i, j, the numerators of [e_i, e_j] over den)), with
        den the lcm of the entries' denominators."""
        den = math.lcm(*[v[-1] for v in table.values()])
        return den, tuple((i, j, [a * (den // v[-1]) for a in v[:-1]])
                          for (i, j), v in table.items())

    def bracket(self, table, x, y):
        """[x, y] by the bilinear extension of the table."""
        self.check(x)
        self.check(y)
        den, rows = table
        out = [0] * self.n
        for i, j, row in rows:
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                out = [a + c * b for a, b in zip(out, row)]
        return _lowest(out + [x[-1] * y[-1] * den])

    def ad_images(self, table, y):
        """The vectors [e_i, y] for i = 0..n-1, each over y_d den; the zero
        rows are one list, replaced but never changed."""
        self.check(y)
        den, rows = table
        out = [[0] * self.n] * self.n
        for i, j, row in rows:
            if y[j]:
                out[i] = [a + y[j] * b for a, b in zip(out[i], row)]
            if y[i]:
                out[j] = [a - y[i] * b for a, b in zip(out[j], row)]
        d = y[-1] * den
        return [_lowest(w + [d]) for w in out]

    def transposed_ad_images(self, table, y):
        """The nonzero vectors ad(e_i)^T y: entry j of image i gains
        y . [e_i, e_j] over y_d den."""
        self.check(y)
        den, rows = table
        n = self.n
        images = {}
        for i, j, row in rows:
            s = sum(map(operator.mul, row, y))
            if s:
                images.setdefault(i, [0] * n)[j] += s
                images.setdefault(j, [0] * n)[i] -= s
        d = y[-1] * den
        return [_lowest(w + [d]) for w in images.values()]


class Field:
    """Common interface of :class:`PrimeField` and :class:`RationalField`."""

    def characteristic(self) -> int:
        raise NotImplementedError

    def check_same(self, other: "Field"):
        if self != other:
            raise FieldMismatchError(f"mixed fields: {self} and {other}")

    def space(self, n: int):
        """The coordinate space F^n, one object per n."""
        space = self._spaces.get(n)
        if space is None:
            space = self._spaces[n] = self._space_type(self, n)
        return space

    # Subclasses provide: zero, one, norm, inv, parse, format, _space_type,
    # and a dict _spaces.


class PrimeField(Field):
    """GF(p) for a prime p <= 251.  Elements are ints in ``0..p-1``."""

    def __init__(self, p: int):
        # the cap comes first: trial division of a huge literal would not end
        if isinstance(p, int) and p > MAX_PRIME:
            raise LieIdealsError(f"modulus {p} exceeds supported cap {MAX_PRIME}")
        if not isinstance(p, int) or not is_prime(p):
            raise LieIdealsError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self._hash = hash(("GF", p))
        self._spaces = {}

    @property
    def _space_type(self):
        return GF2Space if self.p == 2 else PackedSpace

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return other is self or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return self._hash

    def characteristic(self) -> int:
        return self.p

    def norm(self, a):
        """The residue of the integer a in ``0..p-1``."""
        return a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def parse(self, text: str):
        try:
            n = int(text, 10)
        except ValueError:
            raise LieIdealsError(f"bad GF({self.p}) scalar literal {text!r}") from None
        return n % self.p

    def format(self, a) -> str:
        return str(a)


class RationalField(Field):
    """The rationals with arbitrary-precision Fraction elements."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self._spaces = {}

    _space_type = RationalSpace

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def characteristic(self) -> int:
        return 0

    def norm(self, a):
        """a itself: int and Fraction arithmetic is exact and a Fraction is
        always in lowest terms, so a new Fraction would only cost time."""
        return a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def parse(self, text: str):
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num, 10), int(den, 10))
            return Fraction(int(text, 10))
        except (ValueError, ZeroDivisionError):
            raise LieIdealsError(f"bad rational scalar literal {text!r}") from None

    def format(self, a) -> str:
        return f"{a.numerator}/{a.denominator}"


QQ = RationalField()


_PRIME_FIELDS = {}


def GF(p: int) -> PrimeField:
    """GF(p), one object per prime, so that equal fields are one object and
    share their coordinate spaces."""
    field = _PRIME_FIELDS.get(p) if type(p) is int else None
    if field is None:
        field = _PRIME_FIELDS[p] = PrimeField(p)
    return field


def field_from_name(name: str) -> Field:
    """Parse a field name: ``Q`` or ``GF(p)``."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        try:
            p = int(name[3:-1], 10)
        except ValueError:
            raise LieIdealsError(f"bad field name {name!r}") from None
        return GF(p)
    raise LieIdealsError(f"bad field name {name!r}")
