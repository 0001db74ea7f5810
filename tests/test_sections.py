"""Restrictions and quotients through one section map, against the two
coordinate conventions it replaced.

``L.restrict(K)`` and ``L.quotient(I)`` both build a section K/I with a
``linspace.SectionMap``.  Before, a restriction read a vector of K at K's
pivot columns and lifted along K's RREF rows, and a quotient read the
columns outside I's pivots and lifted to unit vectors.  The oracles here
build both structure-constant tables those ways.
"""

import ast
from pathlib import Path

import pytest

import lieideals
from lieideals.errors import NotContainedError
from lieideals.ideals import ideals_of, lattice
from lieideals.liecore import LieAlgebra
from lieideals.linspace import unit_vector
from lieideals.verify import default_corpus
from test_parent_answers import LADDER

ALGEBRAS = {m.member_id: m.algebra for m in default_corpus() if m.algebra.dim <= 5}
ALGEBRAS.update({name: build().algebra for name, build in LADDER.items()})


def _table(L, cols, lifts, reduce):
    """The table of brackets of the lifts, read at ``cols`` after ``reduce``."""
    m = len(cols)
    brackets = {}
    for a in range(m):
        for b in range(a + 1, m):
            v = L.space.unpack(reduce(L.bracket(lifts[a], lifts[b])))
            brackets[(a, b)] = tuple(v[c] for c in cols)
    return LieAlgebra(L.field, m, brackets, check=False).to_json()


def restriction_oracle(L, K):
    return _table(L, K.pivots, K.vecs, lambda v: v)


def quotient_oracle(L, I):
    cols = [c for c in range(L.dim) if c not in I.pivots]
    lifts = [L.space.pack(unit_vector(L.field, L.dim, c)) for c in cols]
    return _table(L, cols, lifts, I.reduce)


def _round_trips(smap):
    f = smap.K.field
    coords = [unit_vector(f, smap.dim, a) for a in range(smap.dim)]
    coords.append((f.one,) * smap.dim)
    coords = [smap.space.pack(c) for c in coords]
    return all(smap.project(smap.lift(c)) == c for c in coords)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_restrictions_match_the_pivot_convention(name):
    L = ALGEBRAS[name]
    lat = lattice(L)
    outside = [L.space.pack(unit_vector(L.field, L.dim, i)) for i in range(L.dim)]
    for K in lat.subalgebras:
        Lk, smap = L.restrict(K)
        assert Lk.to_json() == restriction_oracle(L, K)
        assert _round_trips(smap)
        for U in lat.inside(K):
            assert smap.preimage_subspace(smap.project_subspace(U)) == U
        v = next((v for v in outside if v not in K), None)
        if v is not None:
            with pytest.raises(NotContainedError):
                smap.project(v)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_quotients_match_the_complement_convention(name):
    L = ALGEBRAS[name]
    lat = lattice(L)
    for I in ideals_of(L):
        Lq, smap = L.quotient(I)
        assert Lq.to_json() == quotient_oracle(L, I)
        assert _round_trips(smap)
        for U in lat.subalgebras:
            assert smap.preimage_subspace(smap.project_subspace(U)) == U + I


def test_only_linspace_reads_pivots():
    # coordinates on a subquotient are the section map's business: a pivot
    # read anywhere else would be a second copy of its convention
    readers = set()
    for path in sorted(Path(lieideals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "pivots":
                readers.add(path.stem)
    assert readers == {"linspace"}


def _callers(node, scope, callee, found):
    """Add to ``found`` the dotted name of each def or class in ``node``
    (``scope`` names node) that calls ``callee``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            _callers(child, f"{scope}.{child.name}", callee, found)
            continue
        func = getattr(child, "func", None)
        if isinstance(child, ast.Call) and callee in (getattr(func, "id", None),
                                                      getattr(func, "attr", None)):
            found.add(scope)
        _callers(child, scope, callee, found)


def test_only_section_algebras_build_a_section_map():
    # centralizers, normalizers and Norton's test work in L's coordinates;
    # a section map is made only to build a section as an algebra
    callers = set()
    for path in sorted(Path(lieideals.__file__).parent.glob("*.py")):
        _callers(ast.parse(path.read_text(encoding="utf-8")), path.stem, "SectionMap", callers)
    assert callers == {"liecore.LieAlgebra._section", "liecore.LieAlgebra._whole"}
