"""Lie algebras by structure constants.

Brackets are stored only for basis pairs i < j; the accessor applies
antisymmetry, so inconsistent antisymmetric data cannot be represented.
The Jacobi identity is validated at construction, on every basis triple
that involves a nonzero table entry (every other triple sums to zero).

The constructor and ``bracket_basis`` take and give coordinate tuples;
inside, the table holds vectors of ``field.space(dim)`` (packed ints over
GF(p)), and ``bracket``, ``ad_images`` and ``transposed_ad_images`` take
and give such vectors.  No operator is kept as a matrix: ad(x) is applied
by ``bracket(x, .)``, and its columns [x, e_j] are minus ``ad_images(x)``.
"""

from dataclasses import dataclass

from .errors import (
    AmbientMismatchError,
    JacobiError,
    NotAnIdealError,
    NotASubalgebraError,
    NotContainedError,
)
from .exactfield import field_from_name
from .linspace import (
    SectionMap,
    check_enumeration,
    full_subspace,
    kernel,
    span,
    span_vecs,
    zero_subspace,
)

DERIVED = "derived"
LOWER_CENTRAL = "lower-central"
_MISSING = object()  # a memo miss; None is a memoized answer


def _default_labels(dim):
    return tuple(f"e{i+1}" for i in range(dim))


class LieAlgebra:
    """A finite-dimensional Lie algebra over an exact field.

    ``brackets`` maps 0-based basis pairs (i, j) with i < j to the
    coordinate vector of [e_i, e_j]; missing pairs bracket to zero.  With
    ``packed``, the values are vectors of ``field.space(dim)`` instead.
    """

    __slots__ = ("field", "dim", "space", "_table", "_terms", "_dual", "labels", "_cache",
                 "__weakref__")

    def __init__(self, field, dim, brackets, labels=None, check=True, *, packed=False):
        space = field.space(dim)
        table = {}
        for (i, j), v in brackets.items():
            if not (0 <= i < j < dim):
                raise AmbientMismatchError(f"bad bracket index pair ({i},{j})")
            if not packed:
                if len(v) != dim:
                    raise AmbientMismatchError(
                        f"bracket [{i},{j}] has length {len(v)}, dim is {dim}"
                    )
                v = space.pack(v)
            if not space.is_zero(v):
                table[(i, j)] = v
        self.field = field
        self.dim = dim
        self.space = space
        self._table = table
        # (i, j, c -> c [e_i, e_j]) per nonzero entry, for the bilinear maps
        self._terms = tuple((i, j, space.scaler(v)) for (i, j), v in self._table.items())
        # (i, j, [e_i, e_j], c -> c e_j, c -> c e_i), for the transposed maps
        self._dual = tuple(
            (i, j, v, space.scaler(space.unit(j)), space.scaler(space.unit(i)))
            for (i, j), v in self._table.items()
        )
        self.labels = _default_labels(dim) if labels is None else tuple(labels)
        self._cache = {}
        if check:
            self._check_jacobi()

    # -- basic structure ----------------------------------------------------

    def _basis_bracket(self, i, j):
        """[e_i, e_j] as a vector of ``space``."""
        if i < j:
            return self._table.get((i, j), self.space.zero)
        v = self._table.get((j, i))
        return self.space.zero if v is None else self.space.neg(v)

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a coordinate tuple."""
        return self.space.unpack(self._basis_bracket(i, j))

    def bracket(self, x, y):
        """Bilinear extension of the structure-constant table."""
        space = self.space
        xs, ys = space.coords(x), space.coords(y)
        add = space.add
        out = space.zero
        for i, j, times in self._terms:
            c = xs[i] * ys[j] - xs[j] * ys[i]
            if c:
                out = add(out, times(c))
        return out

    def ad_images(self, y):
        """The vectors [e_i, y] for i = 0..dim-1."""
        space = self.space
        ys = space.coords(y)
        add = space.add
        out = [space.zero] * self.dim
        for i, j, times in self._terms:
            if ys[j]:
                out[i] = add(out[i], times(ys[j]))
            if ys[i]:
                out[j] = add(out[j], times(-ys[i]))
        return out

    def transposed_ad_images(self, y):
        """The nonzero vectors ad(e_i)^T y.  Entry j of ad(e_i)^T y is y
        dotted with [e_i, e_j], so only the table entries meeting e_i count."""
        space = self.space
        dot, add, zero = space.dot, space.add, space.zero
        images = {}
        for i, j, v, e_j, e_i in self._dual:
            s = dot(v, y)
            if s:
                images[i] = add(images.get(i, zero), e_j(s))
                images[j] = add(images.get(j, zero), e_i(-s))
        return list(images.values())

    def _check_jacobi(self):
        # a triple that meets no table entry sums to zero, so only the
        # triples through a nonzero [e_i, e_j] are visited, in order
        f, space = self.field, self.space
        n = self.dim
        triples = sorted({
            tuple(sorted((i, j, k)))
            for i, j in self._table
            for k in range(n)
            if k != i and k != j
        })
        # [w, e_c] sums w_x [e_x, e_c] over the table entries that meet c:
        # (x, c -> c [e_i, e_j], sign) with [e_x, e_c] = sign [e_i, e_j]
        meets = [[] for _ in range(n)]
        for i, j, times in self._terms:
            meets[j].append((i, times, 1))
            meets[i].append((j, times, -1))
        add = space.add
        for i, j, k in triples:
            s = space.zero
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                ws = space.coords(self._basis_bracket(a, b))
                for x, times, sign in meets[c]:
                    if ws[x]:
                        s = add(s, times(sign * ws[x]))
            if not space.is_zero(s):
                raise JacobiError((i + 1, j + 1, k + 1), [f.format(a) for a in space.unpack(s)])

    # -- subspace machinery -------------------------------------------------

    def full_space(self):
        return full_subspace(self.field, self.dim)

    def zero_space(self):
        return zero_subspace(self.field, self.dim)

    def span(self, vectors):
        """The subspace spanned by coordinate tuples."""
        return span(self.field, self.dim, vectors)

    def span_vecs(self, vecs):
        """The subspace spanned by vectors of ``space``."""
        return span_vecs(self.field, self.dim, vecs)

    def product_space(self, A, B):
        """Span of all brackets [a, b] over basis pairs of A and B.  The
        bracket is alternating, so [A, A] needs each unordered pair once."""
        if A == B:
            vecs = A.vecs
            brackets = [self.bracket(a, b) for i, a in enumerate(vecs) for b in vecs[i + 1:]]
        else:
            brackets = [self.bracket(a, b) for a in A.vecs for b in B.vecs]
        return span_vecs(self.field, self.dim, brackets)

    def is_subalgebra(self, S):
        """Whether S is bracket-closed: each unordered pair of basis rows is
        bracketed once, up to the first bracket outside S."""
        self.zero_space().check_compatible(S)
        vecs, reduce, is_zero = S.vecs, S.reduce, S.space.is_zero
        return all(
            is_zero(reduce(self.bracket(a, b))) for i, a in enumerate(vecs) for b in vecs[i + 1:]
        )

    def is_ideal(self, S):
        return self.memo(
            ("ideal", S), lambda: self.product_space(self.full_space(), S) <= S
        )

    def series(self, kind, S=None):
        """Derived or lower-central series of the subalgebra S (default: the
        whole algebra), in the coordinates of L, stopping at stabilization."""
        if kind not in (DERIVED, LOWER_CENTRAL):
            raise ValueError(f"unknown series kind {kind!r}")
        if S is None:
            S = self.full_space()
        elif not self.is_subalgebra(S):
            raise NotASubalgebraError("series of a subspace that is not bracket-closed")
        terms = [S]
        while True:
            cur = terms[-1]
            if kind == DERIVED:
                nxt = self.product_space(cur, cur)
            else:
                nxt = self.product_space(S, cur)
            if nxt == cur:
                if not cur.is_zero():
                    terms.append(nxt)
                break
            terms.append(nxt)
            if nxt.is_zero():
                break
        return SeriesReport(kind, terms, terms[-1].is_zero())

    def is_solvable(self, S=None):
        """Whether the subalgebra S (default: L) is solvable."""
        return self.memo(("solvable", S), lambda: self.series(DERIVED, S).reaches_zero)

    def is_nilpotent(self, S=None):
        """Whether the subalgebra S (default: L) is nilpotent."""
        return self.memo(
            ("nilpotent", S), lambda: self.series(LOWER_CENTRAL, S).reaches_zero
        )

    def centralizer(self, A):
        """{x : [x, a] = 0 for all a in A}, as an exact solution space: the
        kernels of the maps x -> [x, a], met over a basis of A."""
        C = self.full_space()
        for a in A.vecs:
            C = C & kernel(self.field, self.dim, self.ad_images(a), self.dim)
        return C

    def normalizer(self, B):
        """{x : [x, B] <= B}, as an exact solution space: the kernels of the
        maps x -> [x, b] + B into L/B, met over a basis of B."""
        smap = SectionMap(self.full_space(), B)
        N = self.full_space()
        if smap.dim == 0:
            return N
        for b in B.vecs:
            images = [smap.project(w) for w in self.ad_images(b)]
            N = N & kernel(self.field, self.dim, images, smap.dim)
        return N

    def center(self):
        return self.centralizer(self.full_space())

    # -- quotients and restrictions -----------------------------------------

    def quotient(self, I):
        """The pair ``(L/I, smap)`` for an ideal I: the quotient algebra, in
        the coordinates of the :class:`SectionMap` ``smap`` of L/I, which
        projects vectors and subspaces of L onto it and lifts them back.
        L/0 is L itself on a new object that shares L's memo (``_whole``)."""
        if I.is_zero() and I == self.zero_space():
            return self._whole()

        def build():
            if not self.is_subalgebra(I):
                raise NotAnIdealError("quotient by a subspace that is not a subalgebra")
            if not self.is_ideal(I):
                raise NotAnIdealError("quotient by a subspace that is not an ideal")
            quot, smap = self._section(self.full_space(), I)
            units = [self.space.unit(i) for i in range(self.dim)]
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    lhs = smap.project(self._basis_bracket(i, j))
                    rhs = quot.bracket(smap.project(units[i]), smap.project(units[j]))
                    assert lhs == rhs, "quotient projection is not a homomorphism"
            return quot, smap

        return self.memo(("quotient", I), build)

    def restrict(self, K):
        """The pair ``(K, smap)`` for a bracket-closed subspace K: K as a Lie
        algebra in its own right, in the coordinates of the
        :class:`SectionMap` ``smap`` of K/0, for a search that needs K as an
        algebra.  Questions about K that L can answer in its own coordinates
        (``series``, ``is_solvable``, ``is_nilpotent``,
        ``ideals.Lattice.maximal_below``) need no restriction.  K = L is L
        itself on a new object that shares L's memo (``_whole``)."""
        if K.is_full() and K == self.full_space():
            return self._whole()

        def build():
            if not self.is_subalgebra(K):
                raise NotASubalgebraError("restriction target is not bracket-closed")
            return self._section(K, self.zero_space())

        return self.memo(("restrict", K), build)

    def _whole(self):
        """L as its own section L/0, with the identity map: L's structure
        constants under the default labels, reading and filling L's memo,
        so a search on it is a search on L.  Each call makes a new one, as
        L's memo cannot hold what holds that memo: the cycle would leave L
        for the cycle collector."""
        smap = SectionMap(self.full_space(), self.zero_space())
        return self._twin(self._cache, _default_labels(self.dim)), smap

    def _section(self, K, I):
        """The section K/I, for an ideal I of a subalgebra K, with its map.
        The map holds no reference to L, whose memo holds the pair: that
        cycle would leave every section for the cycle collector."""
        smap = SectionMap(K, I)
        lifts = smap.lifts
        m = smap.dim
        brackets = {}
        for a in range(m):
            for b in range(a + 1, m):
                brackets[(a, b)] = smap.project(self.bracket(lifts[a], lifts[b]))
        return LieAlgebra(self.field, m, brackets, check=False, packed=True), smap

    # -- misc ---------------------------------------------------------------

    def detached(self):
        """This algebra's structure constants in a new algebra with an empty
        memo of its own.  A value in this algebra's memo that needs the
        brackets holds the copy: holding the algebra would make a cycle."""
        return self._twin({}, self.labels)

    def _twin(self, cache, labels):
        """A new algebra on this one's structure constants, with the given
        memo dict and labels."""
        twin = object.__new__(LieAlgebra)
        for name in ("field", "dim", "space", "_table", "_terms", "_dual"):
            setattr(twin, name, getattr(self, name))
        twin.labels, twin._cache = labels, cache
        return twin

    def memo(self, key, thunk, budget=None):
        """``thunk()``, computed once per algebra and key.

        Pass ``budget`` when a fresh computation enumerates this algebra's
        subspace lattice within that budget: a hit then re-runs the
        enumeration gate, so a warm lookup answers, or raises, exactly as a
        fresh call with the same budget would.
        """
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = thunk()
        elif budget is not None:
            check_enumeration(self.field, self.dim, budget)
        return value

    def label_index(self, name):
        try:
            return self.labels.index(name)
        except ValueError:
            raise NotContainedError(f"unknown basis label {name!r}") from None

    def to_json(self):
        f, space = self.field, self.space
        brackets = [
            {"i": i + 1, "j": j + 1, "coeffs": [f.format(a) for a in space.unpack(v)]}
            for (i, j), v in sorted(self._table.items())
        ]
        return {
            "field": repr(f),
            "dim": self.dim,
            "basis": list(self.labels),
            "brackets": brackets,
        }

    @classmethod
    def from_json(cls, doc):
        field = field_from_name(doc["field"])
        dim = doc["dim"]
        brackets = {}
        for ent in doc.get("brackets", []):
            i, j = ent["i"] - 1, ent["j"] - 1
            brackets[(i, j)] = tuple(field.parse(a) for a in ent["coeffs"])
        return cls(field, dim, brackets, labels=doc.get("basis"))

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim} over {self.field})"


@dataclass
class SeriesReport:
    """Terms of a derived or lower-central series down to stabilization."""

    kind: str
    terms: list
    reaches_zero: bool

    def min_index_inside(self, K):
        """Smallest 1-based series index with the term contained in K."""
        for idx, term in enumerate(self.terms, start=1):
            if term <= K:
                return idx
        return None

