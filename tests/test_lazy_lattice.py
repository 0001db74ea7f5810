"""The lazily filtered lattice and its two building blocks, against the
plain paths they replaced.

``enumerate_subspaces`` generates the canonical order directly; the oracle
builds every RREF basis of a dimension per pivot pattern and sorts them.
``LieAlgebra.is_subalgebra`` brackets each unordered pair of basis rows up
to the first bracket outside S; the oracle spans every ordered product.
``Lattice`` filters each layer only as far as a reader reads it; the
oracle filters every subspace at once.  ``Lattice.complements`` reads only
the layers a complement can lie in; the oracle filters every subalgebra
with the Subspace operators.
"""

import ast
import collections
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

import lieideals
from lieideals.corpus import heisenberg, two_dim_nonabelian
from lieideals.errors import AmbientMismatchError, FieldMismatchError
from lieideals.exactfield import GF
from lieideals import ideals
from lieideals.ideals import Lattice, core, lattice
from lieideals.linspace import (
    DEFAULT_BUDGET,
    Subspace,
    count_subspaces,
    enumerate_subspaces,
    zero_subspace,
)

from test_parent_answers import ALGEBRAS

PACKAGE = Path(lieideals.__file__).resolve().parent


def batch_and_sort(field, n, dims):
    """Every subspace of the given dimensions as ``(rows, pivots)``: the
    RREF bases of each pivot pattern with every value in the free cells,
    sorted per dimension."""
    elements = list(field.elements())
    out = []
    for k in dims:
        batch = []
        for pivots in itertools.combinations(range(n), k):
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivots
            ]
            for values in itertools.product(elements, repeat=len(free)):
                rows = [[field.zero] * n for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = field.one
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                batch.append((tuple(map(tuple, rows)), pivots))
        out.extend(sorted(batch))
    return out


def closed_by_all_products(L, S):
    return L.span_vecs([L.bracket(a, b) for a in S.vecs for b in S.vecs]) <= S


def _dim_filters(n):
    return [None, *range(n + 1), [0, n], list(range(n, -1, -2))]


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (3, 5), (5, 3), (7, 3), (11, 2)])
def test_enumeration_matches_the_batch_and_sort_oracle(q, n):
    f = GF(q)
    for dim_filter in _dim_filters(n):
        dims = range(n + 1) if dim_filter is None else sorted(
            {dim_filter} if isinstance(dim_filter, int) else set(dim_filter))
        got = [(S.rows, S.pivots) for S in enumerate_subspaces(f, n, dim_filter)]
        assert got == batch_and_sort(f, n, dims), dim_filter


def test_enumeration_keeps_nothing_between_subspaces():
    # 417,199 subspaces of GF(2)^8, none stored: what the enumerator holds
    # is its generator frames, not the tails of the rows it has made
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_subspaces(GF(2), 8, budget=None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == count_subspaces(GF(2), 8)
    assert peak <= 256 * 1024, peak


def _every_subspace(L):
    return list(enumerate_subspaces(L.field, L.dim, budget=None))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_is_subalgebra_and_product_space_match_every_ordered_product(name):
    L = ALGEBRAS[name]
    for S in _every_subspace(L):
        assert L.is_subalgebra(S) == closed_by_all_products(L, S)
        assert L.product_space(S, S) == L.span_vecs(
            [L.bracket(a, b) for a in S.vecs for b in S.vecs])


def _foreign(L, k):
    return Subspace(GF(2), L.dim, [tuple(int(i == j) for i in range(L.dim)) for j in range(k)])


def _wrong_ambient(L, k):
    n = L.dim + 1
    return Subspace(L.field, n, [tuple(int(i == j) for i in range(n)) for j in range(k)])


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize(
    "other,error",
    [(_foreign, FieldMismatchError), (_wrong_ambient, AmbientMismatchError)],
    ids=["foreign-field", "wrong-ambient"],
)
def test_is_subalgebra_rejects_other_spaces_at_every_dimension(k, other, error):
    # the pairwise loop brackets nothing below dimension 2, so the checks
    # come first, warm or cold
    L = heisenberg(GF(3)).algebra
    S = other(L, k)
    with pytest.raises(error):
        L.is_subalgebra(S)
    assert L.is_subalgebra(L.zero_space()) and L.is_subalgebra(L.span([(0, 0, 1)]))
    with pytest.raises(error):
        L.is_subalgebra(S)


def _eager(L):
    return [S for S in _every_subspace(L) if closed_by_all_products(L, S)]


def _cold(L):
    return Lattice(L, DEFAULT_BUDGET)


def _walk(lat, L, k):
    """The subalgebras of dimension k and up: each layer is read when the
    walk reaches it."""
    return itertools.chain.from_iterable(lat.layer(j) for j in range(k, L.dim + 1))


def _walks_match(lat, L, eager):
    for k in range(L.dim + 2):
        assert list(_walk(lat, L, k)) == [S for S in eager if S.dim >= k], k
    assert lat.subalgebras == eager


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_lazy_walks_match_the_eager_filter(name):
    L = ALGEBRAS[name]
    eager = _eager(L)
    for k in range(L.dim + 1):
        lat = _cold(L)
        assert list(_walk(lat, L, k)) == [S for S in eager if S.dim >= k]
        assert list(lat.layer(k)) == [S for S in eager if S.dim == k]
    # walks abandoned at seeded points, then every walk read to the end
    rng = random.Random(name)
    for _ in range(3):
        lat = _cold(L)
        for _ in range(6):
            walk = _walk(lat, L, rng.randrange(L.dim + 1))
            for _ in itertools.islice(walk, rng.randrange(len(eager) + 1)):
                pass
        _walks_match(lat, L, eager)
    # two walks interleaved on one layer, each moving the other's prefix on
    for k in range(L.dim + 1):
        lat = _cold(L)
        layer = [S for S in eager if S.dim == k]
        walks, seen = [lat.layer(k), lat.layer(k)], [[], []]
        live = [0, 1]
        while live:
            w = rng.choice(live)
            S = next(walks[w], None)
            if S is None:
                live.remove(w)
            else:
                seen[w].append(S)
        assert seen == [layer, layer]
        _walks_match(lat, L, eager)


def test_the_lattice_is_the_one_caller_of_the_enumerator():
    # every subalgebra list comes from the lattice's layers
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                for child in ast.walk(node):
                    scopes.setdefault(child, []).append(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "enumerate_subspaces":
                    callers.add((path.stem, ".".join(scopes.get(node, []))))
    assert callers == {("ideals", "Lattice.__init__")}


# -- one live filter per layer ----------------------------------------------


@pytest.fixture
def enumerated(monkeypatch):
    """How often the lattice's enumerator has yielded each subspace."""
    counts = collections.Counter()
    real = ideals.enumerate_subspaces

    def counting(*args, **kwargs):
        for S in real(*args, **kwargs):
            counts[S] += 1
            yield S

    monkeypatch.setattr(ideals, "enumerate_subspaces", counting)
    return counts


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_each_subspace_is_enumerated_at_most_once_per_lattice(name, enumerated):
    L = ALGEBRAS[name]
    subs = lattice(L).subalgebras
    enumerated.clear()
    rng = random.Random(name)
    lat = _cold(L)
    # reads abandoned at seeded points
    for _ in range(6):
        k = rng.randrange(L.dim + 1)
        for _ in itertools.islice(lat.layer(k), rng.randrange(len(subs) + 1)):
            pass
    # two reads of each layer interleaved, and two complement queries
    B = rng.choice(subs)
    reads = [lat.layer(k) for k in range(L.dim + 1) for _ in range(2)]
    reads += [lat.complements(B, B), lat.complements(B, L.zero_space())]
    while reads:
        read = rng.choice(reads)
        if next(read, None) is None:
            reads.remove(read)
    assert max(enumerated.values(), default=1) == 1
    # then everything, each subspace still once
    assert lat.subalgebras == subs
    assert max(enumerated.values()) == 1
    assert sum(enumerated.values()) == count_subspaces(L.field, L.dim)


# -- complements ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_complements_match_the_operator_filter(name):
    L = ALGEBRAS[name]
    lat = lattice(L)
    subs = lat.subalgebras
    full, zero = L.full_space(), L.zero_space()
    for B in subs:
        meets = [B & C if B + C == full else None for C in subs]
        for floor in (zero, core(L, B), B):
            expected = [C for C, meet in zip(subs, meets) if meet is not None and meet <= floor]
            assert list(lat.complements(B, floor)) == expected


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_complements_read_only_the_layers_a_complement_can_lie_in(name, enumerated):
    L = ALGEBRAS[name]
    lat = lattice(L)
    for B in lat.subalgebras:
        for floor in (L.zero_space(), core(L, B), B):
            enumerated.clear()
            assert list(_cold(L).complements(B, floor)) == list(lat.complements(B, floor))
            # dim C = n - dim B + dim(B ∩ C), and B ∩ C lies in the floor
            lo = L.dim - B.dim
            assert {S.dim for S in enumerated} == set(range(lo, lo + floor.dim + 1))


# -- masks kept on the subspace, not looked up by its rows ------------------


def test_masks_are_kept_only_on_the_subspace():
    # element_mask keeps each mask in its Subspace slot, so no other module
    # sets one, and the lattice keeps no mask table of its own
    setters = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_mask"
                    and isinstance(node.ctx, ast.Store)):
                setters.add(path.stem)
            if isinstance(node, ast.ClassDef) and node.name == "Lattice":
                dicts = [
                    n for n in ast.walk(node)
                    if isinstance(n, (ast.Dict, ast.DictComp))
                    or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "dict"
                ]
                assert dicts == [], "Lattice builds a dict"
    assert setters == {"linspace"}

LATTICE_QUERIES = {
    "containing": lambda lat, S: lat.containing(S),
    "inside": lambda lat, S: lat.inside(S),
    "maximal": lambda lat, S: lat.maximal([S]),
    "maximal_below": lambda lat, S: lat.maximal_below(S),
    "complements": lambda lat, S: list(lat.complements(S, S)),
}


def _native_and_other(L, case):
    if case == "foreign-field":
        last = tuple(int(i == L.dim - 1) for i in range(L.dim))
        return L.span([last]), Subspace(GF(2), L.dim, [last]), FieldMismatchError
    return L.zero_space(), zero_subspace(L.field, L.dim + 1), AmbientMismatchError


@pytest.mark.parametrize("query", sorted(LATTICE_QUERIES))
@pytest.mark.parametrize("case", ["foreign-field", "wrong-ambient-zero"])
@pytest.mark.parametrize(
    "build", [lambda: heisenberg(GF(3)), lambda: two_dim_nonabelian(GF(67))],
    ids=["masks", "operators"],
)
@pytest.mark.parametrize("native_first", [True, False], ids=["native-first", "other-first"])
def test_lattice_answers_do_not_depend_on_call_history(query, case, build, native_first):
    # a GF(2) subspace has the rows of a GF(3) one, and every zero subspace
    # has no rows: a mask made for one must not answer for the other
    ask = LATTICE_QUERIES[query]
    L = build().algebra
    native, other, error = _native_and_other(L, case)
    assert other.rows == native.rows
    lat = lattice(L)
    expected = ask(Lattice(L, DEFAULT_BUDGET), native)
    if native_first:
        ask(lat, native)
    with pytest.raises(error):
        ask(lat, other)
    assert ask(lat, native) == expected
    with pytest.raises(error):
        ask(lat, other)



# -- maximal members against the maxima found so far ------------------------


def quadratic_maximal(members):
    """The filter ``Lattice.maximal`` replaced: every member against every
    member."""
    return [S for S in members if not any(S.dim < T.dim and S <= T for T in members)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_maximal_members_match_the_quadratic_filter(name):
    L = ALGEBRAS[name]
    lat = lattice(L)
    for C in lat.subalgebras:
        assert lat.maximal_below(C) == quadratic_maximal(
            [S for S in lat.inside(C) if S.dim < C.dim])
    # any order in, the same order out
    members = lat.subalgebras[:-1]
    shuffled = random.Random(name).sample(members, len(members))
    assert lat.maximal(shuffled) == quadratic_maximal(shuffled)
