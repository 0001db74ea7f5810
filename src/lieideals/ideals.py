"""Cores, ideal closures, subideal chains, c-ideals and weak c-ideals.

A subalgebra B is a weak c-ideal of L when some subideal C satisfies
L = B + C with B ∩ C inside the core of B (the largest ideal of L contained
in B).  Searches return certificate objects that can be re-validated from
scratch, so soundness never rests on the search machinery.

Every such property is invariant under Aut(L): phi(B) is a weak c-ideal
with witness phi(C) when B is one with witness C.  ``automorphisms(L)``
finds a few automorphisms by a bounded, seeded search and re-checks each
with ``is_automorphism``; ``Lattice.orbits`` cuts the lattice into the
orbits of the group they generate, or of the subgroup generated by those
that fix a given subalgebra, so a loop over every subalgebra can run over
one representative per orbit, weighted by the orbit size.  When the search
finds nothing the group is trivial and the orbits are the single
subalgebras, so the answer is the same, only reached with more work.
"""

import bisect
import itertools
import random
from array import array
from dataclasses import dataclass

from .errors import NotASubalgebraError, NotContainedError
from .exactfield import PrimeField
from .liecore import DERIVED, LOWER_CENTRAL
from .linspace import (
    DEFAULT_BUDGET,
    MASK_LIMIT,
    Subspace,
    annihilator,
    check_enumeration,
    closure,
    element_mask,
    enumerate_subspaces,
    null_vectors,
)


# ---------------------------------------------------------------------------
# lattice primitives (shared, memoized on the algebra)
# ---------------------------------------------------------------------------

class Lattice:
    """The subalgebras of one algebra in canonical enumeration order, with
    the containment and complement queries that the witness searches and
    the lattice checks run over them.

    The subalgebras are filtered layer by layer, one layer per dimension,
    and each layer only as far as a reader has asked.  A layer is the list
    of subalgebras found so far and one live ``filter(is_subalgebra, ...)``
    over its subspaces: a read past the list moves the filter on, so every
    subspace is tested once, and two interleaved reads see the same list.
    A filter read to its end is dropped.  A witness search reads only the
    layers a witness can lie in and stops at its first witness;
    ``subalgebras`` reads every layer to the end.  The budget gate counts
    every subspace of every dimension when the lattice is made.

    Over GF(q) with q^n <= MASK_LIMIT a query reads element masks
    (:func:`~lieideals.linspace.element_mask`), which each subspace makes
    once and keeps: S <= T is ``m_S & ~m_T == 0`` and dim(B ∩ C) is log_q
    of the popcount of ``m_B & m_C``, so no query row-reduces.  Above that
    limit the same queries run on the Subspace operators.  Every query
    checks its argument subspaces against L's space first.
    """

    __slots__ = ("_algebra", "_n", "_q", "_masked", "_found", "_filters", "_all", "_perms")

    def __init__(self, L, budget):
        check_enumeration(L.field, L.dim, budget)
        # L's memo holds the lattice, so the lattice must not hold L
        self._algebra = A = L.detached()
        self._n = n = L.dim
        self._q = q = L.field.characteristic()
        self._masked = q**n <= MASK_LIMIT
        self._found = [[] for _ in range(n + 1)]
        self._filters = [filter(A.is_subalgebra, enumerate_subspaces(L.field, n, k, budget=None))
                         for k in range(n + 1)]
        self._all = None
        self._perms = [None] * (n + 1)

    def layer(self, k):
        """The subalgebras of dimension k, in order, filtered as they are
        read."""
        found, i = self._found[k], 0
        while True:
            if i == len(found):
                S = next(self._filters[k], None)
                if S is None:
                    self._filters[k] = _ENDED
                    return
                found.append(S)
            yield found[i]
            i += 1

    @property
    def subalgebras(self):
        """Every subalgebra, in canonical order."""
        if self._all is None:
            self._all = [S for k in range(self._n + 1) for S in self.layer(k)]
        return self._all

    def containing(self, B):
        """The subalgebras that contain the subspace B, in order."""
        self._algebra.check_compatible(B)
        if not self._masked:
            return [S for S in self.subalgebras if B <= S]
        m_B = element_mask(B)
        return [S for S in self.subalgebras if not m_B & ~element_mask(S)]

    def inside(self, K):
        """The subalgebras contained in the subspace K, in order."""
        self._algebra.check_compatible(K)
        if not self._masked:
            return [S for S in self.subalgebras if S <= K]
        outside_K = ~element_mask(K)
        return [S for S in self.subalgebras if not element_mask(S) & outside_K]

    def maximal(self, members):
        """The members that lie properly inside no other member, in order.

        A member inside a larger one lies inside a maximal one of larger
        dimension, so the members are read from the top dimension down and
        each is tested only against the maximal members of larger
        dimension found so far."""
        self._algebra.check_compatible(*members)
        masked = self._masked
        order = sorted(range(len(members)), key=lambda i: -members[i].dim)
        above, keep = [], set()
        for _, layer in itertools.groupby(order, key=lambda i: members[i].dim):
            found = []
            for i in layer:
                S = members[i]
                if masked:
                    m_S = element_mask(S)
                    if any(not m_S & outside_T for outside_T in above):
                        continue
                    found.append(~m_S)
                elif any(S <= T for T in above):
                    continue
                else:
                    found.append(S)
                keep.add(i)
            above += found
        return [S for i, S in enumerate(members) if i in keep]

    def maximal_below(self, K):
        """The maximal proper subalgebras of the subalgebra K, in order: the
        maximal members of the index strictly inside K."""
        return self.maximal([S for S in self.inside(K) if S.dim < K.dim])

    def complements(self, B, floor):
        """The subalgebras C with L = B + C and B ∩ C <= floor, in order;
        with floor = B that is just L = B + C.

        dim C = n - dim B + dim(B ∩ C), so only the layers of dimension
        n - dim B up to n - dim B + dim floor are read, and each only as
        far as the caller reads."""
        self._algebra.check_compatible(B, floor)
        lo = self._n - B.dim
        dims = range(lo, min(lo + floor.dim, self._n) + 1)
        if not self._masked:
            full = self._algebra.full_space()
            for k in dims:
                for C in self.layer(k):
                    if B + C == full and (B & C) <= floor:
                        yield C
            return
        m_B = element_mask(B)
        outside_floor = m_B & ~element_mask(floor)
        for k in dims:
            # B + C = L exactly when B ∩ C has q^(dim B + dim C - n) elements
            meet = self._q ** (k - lo)
            for C in self.layer(k):
                m_C = element_mask(C)
                if (m_B & m_C).bit_count() == meet and not m_C & outside_floor:
                    yield C

    def orbits(self, members=None, fixing=None):
        """``(representative, size)`` for each orbit on ``members`` (default:
        every subalgebra) of the group generated by the automorphisms from
        :func:`automorphisms` that map the subalgebra ``fixing`` onto itself
        (all of them when ``fixing`` is None), in canonical order.  That
        group lies inside the stabilizer of ``fixing``, so a loop that needs
        ``fixing`` kept in place may weight each representative by its orbit
        size.  The representative is the first member of its orbit.
        ``members`` must be closed under the group, as the ideals are under
        every automorphism, or ValueError is raised.  With the trivial group
        every member is its own orbit of size 1.

        Each generator's permutation of one layer's positions is built once
        per lattice (:func:`_permutations`), and only for the layers that
        ``members`` and ``fixing`` lie in: an automorphism keeps dimensions.
        A member is found by its place in the canonical order, so the
        lattice keeps no dict."""
        members = None if members is None else list(members)
        self._algebra.check_compatible(*(members or ()), *(() if fixing is None else (fixing,)))
        keep = None  # the indices of the generators that fix ``fixing``
        if fixing is not None:
            x = _position(self._read(fixing.dim), fixing)
            keep = [i for i, g in enumerate(self._permutations_of(fixing.dim)) if g[x] == x]
        # the members of each dimension, None standing for the whole layer
        n = self._n
        by_dim = [None] * (n + 1) if members is None else [[] for _ in range(n + 1)]
        for S in members or ():
            by_dim[S.dim].append(S)
        out = []
        for k, some in enumerate(by_dim):
            if some == []:
                continue
            subs, perms = self._read(k), self._permutations_of(k)
            gens = perms if keep is None else [perms[i] for i in keep]
            positions = range(len(subs)) if some is None else [_position(subs, S) for S in some]
            out += [(subs[r], size) for r, size in _orbits(len(subs), positions, gens)]
        return out

    def _read(self, k):
        """The whole layer of dimension k, read to its end."""
        if self._filters[k] is not _ENDED:
            for _ in self.layer(k):
                pass
        return self._found[k]

    def _permutations_of(self, k):
        """Each generator's permutation of the positions in layer k."""
        if self._perms[k] is None:
            self._perms[k] = _permutations(self._algebra, self._read(k))
        return self._perms[k]


_ENDED = iter(())  # the filter of every layer read to its end


def lattice(L, budget=DEFAULT_BUDGET):
    """The :class:`Lattice` of L's subalgebras."""
    return L.memo("lattice", lambda: Lattice(L, budget), budget)


def subalgebras(L, budget=DEFAULT_BUDGET):
    """All bracket-closed subspaces of L, in canonical enumeration order."""
    return lattice(L, budget).subalgebras


def ideals_of(L, budget=DEFAULT_BUDGET):
    """All ideals of L, in canonical enumeration order."""
    def build():
        return [S for S in subalgebras(L, budget) if L.is_ideal(S)]

    return L.memo("ideals", build, budget)


# ---------------------------------------------------------------------------
# automorphisms and orbits on the lattice
# ---------------------------------------------------------------------------

_SEARCH_SEED = 27       # the search's candidate order is seeded by this constant
_SEARCH_TRIES = 8       # searches for one automorphism each
_SEARCH_NODES = 20_000  # candidate images tried over all the searches


def is_automorphism(L, images):
    """Whether e_i -> images[i], vectors of L's space, is an automorphism of
    L: the images are a basis and [phi e_i, phi e_j] = phi [e_i, e_j] on
    every basis pair."""
    space, n = L.space, L.dim
    if len(images) != n or L.span_vecs(images).dim != n:
        return False
    return all(
        L.bracket(images[i], images[j]) == space.lin_comb(L.bracket_basis(i, j), images)
        for i in range(n) for j in range(i + 1, n)
    )


def automorphisms(L):
    """A few automorphisms of L, each as its tuple of basis images; the
    identity is left out, and only maps that :func:`is_automorphism`
    accepts are kept, so no answer rests on the search being right.

    A backtracking search assigns the images of e_0, e_1, ... in turn and
    tests each bracket [e_i, e_j] as soon as the images of i, j and the
    support of [e_i, e_j] are assigned.  An image must share e_i's
    invariants under Aut(L): the ranks of ad and ad^2 and which terms of the
    derived and lower central series, and the centre, contain it.  The
    candidate order is shuffled by a constant seed and the searches share a
    constant node cap, so the answer depends on the structure constants
    alone; a search that reaches the cap adds nothing.  Over GF(q) with
    q^n > MASK_LIMIT, and over Q, no search runs and the answer is the
    trivial group, which is still exact for :meth:`Lattice.orbits`, only
    with finer orbits."""
    def build():
        if not isinstance(L.field, PrimeField) or L.field.p ** L.dim > MASK_LIMIT:
            return ()
        return tuple(images for images in _automorphism_search(L) if is_automorphism(L, images))

    return L.memo("automorphisms", build)


def _invariants(L, v, terms):
    """The Aut(L)-invariants of v: the ranks of ad(v) and ad(v)^2, and
    which of the characteristic ideals ``terms`` contain v."""
    image = L.span_vecs(L.ad_images(v))
    square = L.span_vecs([L.bracket(v, w) for w in image.vecs])
    return image.dim, square.dim, tuple(v in T for T in terms)


def _automorphism_search(L):
    """The distinct automorphisms other than the identity that up to
    ``_SEARCH_TRIES`` seeded searches find within ``_SEARCH_NODES``
    candidate images in all."""
    n, space = L.dim, L.space
    terms = (*L.series(DERIVED).terms, *L.series(LOWER_CENTRAL).terms, L.center())
    by_invariants = {}
    for v in itertools.islice(space.block(0, n), 1, None):
        by_invariants.setdefault(_invariants(L, v, terms), []).append(v)
    units = [space.unit(i) for i in range(n)]
    candidates = [by_invariants[_invariants(L, e, terms)] for e in units]
    # ready[d]: the basis pairs whose bracket is testable once e_0..e_d have images
    ready = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = L.bracket_basis(i, j)
            ready[max([j] + [k for k, c in enumerate(coeffs) if c])].append((i, j, coeffs))
    rng = random.Random(_SEARCH_SEED)
    nodes = _SEARCH_NODES
    images, spans = [], [L.zero_space()]

    def place(d):
        nonlocal nodes
        if d == n:
            return True
        order = list(candidates[d])
        rng.shuffle(order)
        for v in order:
            if nodes == 0:
                return False
            nodes -= 1
            if v in spans[d]:
                continue
            images.append(v)
            if all(L.bracket(images[i], images[j]) == space.lin_comb(coeffs, images)
                   for i, j, coeffs in ready[d]):
                spans.append(spans[d] + L.span_vecs([v]))
                if place(d + 1):
                    return True
                spans.pop()
            images.pop()
        return False

    found = []
    for _ in range(_SEARCH_TRIES):
        images.clear()
        del spans[1:]
        if place(0) and images != units and tuple(images) not in found:
            found.append(tuple(images))
    return found


def _position(subs, S):
    """The place of S in ``subs``, the canonical list of every subalgebra
    of S's dimension; a subspace that is not there is not a subalgebra."""
    i = bisect.bisect_left(subs, S.sort_key(), key=Subspace.sort_key)
    if i == len(subs) or subs[i] != S:
        raise NotASubalgebraError("orbits are defined on subalgebras only")
    return i


def _orbits(count, positions, gens):
    """``(position, size)`` per orbit of the permutations ``gens`` of
    ``range(count)`` on ``positions``, in increasing order, the position
    being the least of its orbit; ValueError unless ``positions`` lists
    each member once and the members are closed under ``gens``."""
    state = bytearray(count)  # 0: not a member, 1: member, 2: member seen
    for i in positions:
        if state[i]:
            raise ValueError("the members are not a union of whole orbits")
        state[i] = 1
    out = []
    for i in sorted(positions):
        if state[i] == 2:
            continue
        state[i] = 2
        orbit = [i]
        for j in orbit:
            for g in gens:
                k = g[j]
                if state[k] == 1:
                    state[k] = 2
                    orbit.append(k)
                elif not state[k]:
                    raise ValueError("the members are not a union of whole orbits")
        out.append((i, len(orbit)))
    return out


def _permutations(L, subs):
    """For each generator from :func:`automorphisms`, the position in
    ``subs`` (one layer of L's subalgebras, in canonical order) of the
    image of each member, as an ``array`` of ints.  Each basis vector is
    mapped once per generator, and an image is reduced into its canonical
    RREF basis by ``space.insert`` and found by its rows, with no Subspace
    built."""
    gens = automorphisms(L)
    if not gens:
        return ()
    space = L.space
    position = {S.vecs: i for i, S in enumerate(subs)}
    perms = []
    for images in gens:
        mapped = {}

        def image_position(S):
            vecs, pivots = [], []
            for v in S.vecs:
                w = mapped.get(v)
                if w is None:
                    w = mapped[v] = space.lin_comb(space.unpack(v), images)
                space.insert(vecs, pivots, w)
            return position[tuple(vecs)]

        perms.append(array("i", map(image_position, subs)))
    return tuple(perms)


# ---------------------------------------------------------------------------
# core and ideal closure
# ---------------------------------------------------------------------------

def core(L, B):
    """Largest ideal of L contained in the subalgebra B.

    A subspace is ad-invariant exactly when its annihilator is invariant
    under every transposed ad(e_i), so the core is the annihilator of the
    smallest such subspace that contains the annihilator of B, which
    ``null_vectors(B)`` spans.
    """
    def build():
        if not L.is_subalgebra(B):
            raise NotASubalgebraError("core is defined for subalgebras only")
        dual = closure(L.field, L.dim, null_vectors(B), L.transposed_ad_images)
        return annihilator(dual)

    return L.memo(("core", B), build)


def ideal_closure(L, B, K):
    """Smallest ideal of the subalgebra K containing B (requires B <= K)."""
    L.check_compatible(B, K)
    if not B <= K:
        raise NotContainedError("ideal closure needs B contained in K")
    return closure(L.field, L.dim, B.vecs, lambda u: [L.bracket(k, u) for k in K.vecs])


# ---------------------------------------------------------------------------
# subideal chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubidealChain:
    """Strictly increasing chain of subalgebras, each an ideal in the next,
    ending at the whole algebra."""

    terms: tuple

    @property
    def bottom(self):
        return self.terms[0]

    def problems(self, L):
        """All violated chain conditions, as human-readable strings."""
        out = []
        if not self.terms:
            return ["chain is empty"]
        if self.terms[-1] != L.full_space():
            out.append("last term is not the whole algebra")
        for idx, term in enumerate(self.terms):
            if not L.is_subalgebra(term):
                out.append(f"term {idx} is not a subalgebra")
        for idx in range(len(self.terms) - 1):
            lo, hi = self.terms[idx], self.terms[idx + 1]
            if not (lo <= hi and lo.dim < hi.dim):
                out.append(f"term {idx} does not strictly increase into term {idx + 1}")
            elif not L.product_space(hi, lo) <= lo:
                out.append(f"term {idx} is not an ideal of term {idx + 1}")
        return out

    def to_json(self):
        return [t.basis_strings() for t in self.terms]

    @classmethod
    def from_json(cls, field, ambient, doc):
        return cls(
            tuple(Subspace.from_basis_strings(field, ambient, rows) for rows in doc)
        )


def subideal_chain(L, B):
    """Witness chain proving B is a subideal of L, or None.

    Runs the descending standard series K_0 = L, K_{i+1} = closure of B as an
    ideal of K_i.  If it stabilizes at B the reversed series is the chain;
    the returned chain is re-validated term by term before being handed out.
    """
    def build():
        if not L.is_subalgebra(B):
            raise NotASubalgebraError("subideal test is defined for subalgebras only")
        K = L.full_space()
        descending = [K]
        while True:
            nxt = ideal_closure(L, B, K)
            if nxt == K:
                break
            descending.append(nxt)
            K = nxt
        if K != B:
            return None
        chain = SubidealChain(tuple(reversed(descending)))
        bad = chain.problems(L)
        assert not bad, f"standard series produced an invalid chain: {bad}"
        return chain

    return L.memo(("chain", B), build)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _split_problems(L, B, C, core_B):
    """The conditions both witness kinds share: L = B + C, and B ∩ C inside
    core_B, an ideal of L contained in B."""
    out = []
    if B + C != L.full_space():
        out.append("B + C is not the whole algebra")
    if not core_B <= B:
        out.append("claimed core is not contained in B")
    if not L.is_ideal(core_B):
        out.append("claimed core is not an ideal of L")
    if not (B & C) <= core_B:
        out.append("B ∩ C is not inside the claimed core")
    return out


@dataclass(frozen=True)
class WeakCIdealCertificate:
    """Witness that B is a weak c-ideal: a subideal C with L = B + C and
    B ∩ C inside an ideal of L contained in B."""

    B: Subspace
    C: Subspace
    chain: SubidealChain
    core_B: Subspace

    def problems(self, L):
        out = []
        if not L.is_subalgebra(self.B):
            out.append("B is not a subalgebra")
        if not L.is_subalgebra(self.C):
            out.append("C is not a subalgebra")
        out.extend(f"chain: {p}" for p in self.chain.problems(L))
        if self.chain.terms and self.chain.bottom != self.C:
            out.append("chain does not start at C")
        return out + _split_problems(L, self.B, self.C, self.core_B)

    def to_json(self):
        return {
            "kind": "weak-c-ideal",
            "subalgebra": self.B.basis_strings(),
            "witness": self.C.basis_strings(),
            "chain": self.chain.to_json(),
            "core": self.core_B.basis_strings(),
        }

    @classmethod
    def from_json(cls, field, ambient, doc):
        get = lambda k: Subspace.from_basis_strings(field, ambient, doc[k])
        return cls(
            B=get("subalgebra"),
            C=get("witness"),
            chain=SubidealChain.from_json(field, ambient, doc["chain"]),
            core_B=get("core"),
        )


@dataclass(frozen=True)
class CIdealCertificate:
    """Witness that B is a c-ideal: an ideal C with L = B + C and B ∩ C
    inside an ideal of L contained in B."""

    B: Subspace
    C: Subspace
    core_B: Subspace

    def problems(self, L):
        out = []
        if not L.is_subalgebra(self.B):
            out.append("B is not a subalgebra")
        if not L.is_subalgebra(self.C) or not L.is_ideal(self.C):
            out.append("C is not an ideal of L")
        return out + _split_problems(L, self.B, self.C, self.core_B)

    def to_weak(self, L):
        """Every ideal is a subideal, so a c-ideal witness upgrades."""
        chain = subideal_chain(L, self.C)
        assert chain is not None
        return WeakCIdealCertificate(self.B, self.C, chain, self.core_B)

    def to_json(self):
        return {
            "kind": "c-ideal",
            "subalgebra": self.B.basis_strings(),
            "witness": self.C.basis_strings(),
            "core": self.core_B.basis_strings(),
        }

    @classmethod
    def from_json(cls, field, ambient, doc):
        get = lambda k: Subspace.from_basis_strings(field, ambient, doc[k])
        return cls(B=get("subalgebra"), C=get("witness"), core_B=get("core"))


# ---------------------------------------------------------------------------
# exhaustive witness searches (finite prime fields)
# ---------------------------------------------------------------------------

def _first_witness(L, B, kind, budget, certify):
    """Certificate for the first subalgebra C in canonical lattice order
    with L = B + C and B ∩ C inside the core of B that certify(C, core_B)
    accepts, or None.  The two witness kinds differ only in certify."""
    def build():
        if not L.is_subalgebra(B):
            raise NotASubalgebraError(f"{kind} search needs a subalgebra")
        core_B = core(L, B)
        for C in lattice(L, budget).complements(B, core_B):
            cert = certify(C, core_B)
            if cert is not None:
                return cert
        return None

    return L.memo((kind, B), build, budget)


def find_weak_c_witness(L, B, budget=DEFAULT_BUDGET):
    """First valid weak c-ideal witness for B in canonical lattice order,
    or None when no subalgebra works (exhaustive)."""
    def certify(C, core_B):
        chain = subideal_chain(L, C)
        return None if chain is None else WeakCIdealCertificate(B, C, chain, core_B)

    return _first_witness(L, B, "weak c-ideal", budget, certify)


def find_c_witness(L, B, budget=DEFAULT_BUDGET):
    """First valid c-ideal witness for B in canonical lattice order."""
    def certify(C, core_B):
        return CIdealCertificate(B, C, core_B) if L.is_ideal(C) else None

    return _first_witness(L, B, "c-ideal", budget, certify)


def is_weak_c_ideal(L, B, budget=DEFAULT_BUDGET):
    return find_weak_c_witness(L, B, budget) is not None


def subideal_complement_mod_core(L, B, budget=DEFAULT_BUDGET):
    """Subalgebra K whose image in L mod core(B) is a subideal complement
    of B's image, or None.  K contains the core by construction."""
    if not L.is_subalgebra(B):
        raise NotASubalgebraError("complement search needs a subalgebra")
    core_B = core(L, B)
    Lq, smap = L.quotient(core_B)
    Bq = smap.project_subspace(B)
    for Kq in lattice(Lq, budget).complements(Bq, Lq.zero_space()):
        if subideal_chain(Lq, Kq) is not None:
            return smap.preimage_subspace(Kq)
    return None
