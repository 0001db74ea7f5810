"""Restrictions and quotients through one section map, against the two
coordinate conventions it replaced, and one algebra per section table.

``L.restrict(K)`` and ``L.quotient(I)`` both build a section K/I with a
``linspace.SectionMap``.  Before, a restriction read a vector of K at K's
pivot columns and lifted along K's RREF rows, and a quotient read the
columns outside I's pivots and lifted to unit vectors.  The oracles here
build both structure-constant tables those ways.

Sections with equal structure-constant tables share one algebra, kept in
L's memo, with its lattice and its memoized answers.  The oracle for a
shared view is a fresh algebra on the same table with an empty memo.
"""

import ast
from pathlib import Path

import pytest

import lieideals
from lieideals.corpus import almost_abelian
from lieideals.errors import NotContainedError
from lieideals.exactfield import GF
from lieideals.ideals import (
    core,
    find_c_witness,
    find_weak_c_witness,
    ideals_of,
    lattice,
    subideal_chain,
)
from lieideals.liecore import LieAlgebra
from lieideals.linspace import unit_vector
from lieideals.verify import CorpusMember, default_corpus, run_check
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


# -- one algebra per section table -------------------------------------------


def _span(L, *idx):
    return L.span([unit_vector(L.field, L.dim, i) for i in idx])


def test_sections_with_equal_tables_share_one_algebra():
    # almost_abelian(4) has [x, y_i] = y_i, so span(x, y_i) and
    # L/span(y_j, y_k) all have the table [e1, e2] = e2
    L = almost_abelian(GF(3), 4).algebra
    (K1, map1), (K2, map2) = L.restrict(_span(L, 0, 1)), L.restrict(_span(L, 0, 2))
    Q, qmap = L.quotient(_span(L, 2, 3))
    assert K1 is K2 is Q
    assert len({id(map1), id(map2), id(qmap)}) == 3  # one section map per K or I
    assert map1.K == _span(L, 0, 1) and map2.K == _span(L, 0, 2)
    # the shared algebra keeps one lattice for all three views
    assert lattice(K1) is lattice(Q)
    # different tables stay different algebras
    assert L.restrict(_span(L, 1, 2))[0] is not K1


def _views(L):
    """The restriction to every subalgebra and the quotient by every ideal
    of L, in canonical order."""
    for K in lattice(L).subalgebras:
        yield L.restrict(K)[0]
    for I in ideals_of(L):
        yield L.quotient(I)[0]


def _answers(V, subalgebras):
    return [
        (find_weak_c_witness(V, B), find_c_witness(V, B), core(V, B),
         subideal_chain(V, B), V.is_ideal(B))
        for B in subalgebras
    ]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_shared_views_answer_as_a_fresh_algebra_on_their_table(name):
    # a shared view may carry memo entries from every earlier view with
    # its table; each answer must still be the answer on its table alone
    L = ALGEBRAS[name]
    for V in _views(L):
        fresh = LieAlgebra.from_json(V.to_json())
        subs = lattice(V).subalgebras
        assert lattice(fresh).subalgebras == subs
        assert _answers(V, subs) == _answers(fresh, subs)


# the checks that build restrictions and quotients of L
SECTION_CHECKS = ["lemma-2.4-3", "lemma-2.4-4", "lemma-2.7", "lemma-4.1"]


@pytest.mark.parametrize("name", sorted(LADDER))
def test_section_checks_do_not_depend_on_their_order(name):
    # each check leaves memo entries in the shared views for the next one
    forward = CorpusMember(name, LADDER[name]())
    backward = CorpusMember(name, LADDER[name]())
    rows = [run_check(c, forward).to_json() for c in SECTION_CHECKS]
    rows_backward = [run_check(c, backward).to_json() for c in reversed(SECTION_CHECKS)]
    assert rows == rows_backward[::-1]


def _section_builds(tree):
    """``(inside_memo, call)`` for each ``LieAlgebra(...)`` call in
    ``LieAlgebra._section``: whether it sits inside a ``self.memo(...)``."""
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LieAlgebra")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "_section")
    out = []

    def visit(node, inside_memo):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "LieAlgebra":
                out.append(inside_memo)
            if (isinstance(func, ast.Attribute) and func.attr == "memo"
                    and isinstance(func.value, ast.Name) and func.value.id == "self"):
                inside_memo = True
        for child in ast.iter_child_nodes(node):
            visit(child, inside_memo)

    visit(fn, False)
    return out


def test_a_section_algebra_is_built_only_inside_the_memo():
    # one algebra per table: a section built outside L's memo would be a
    # new algebra, with a new lattice and new searches, for every K or I
    tree = ast.parse((Path(lieideals.__file__).parent / "liecore.py").read_text(encoding="utf-8"))
    assert _section_builds(tree) == [True]
