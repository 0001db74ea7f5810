"""The whole-algebra sections K = L and L/0 share L's memo.

``L.restrict(L.full_space())`` and ``L.quotient(L.zero_space())`` are L
itself, in the identity map, on a new object that reads and fills L's
memo.  The oracle is the unshared section that ``_section(full, zero)``
builds, with an empty memo of its own.
"""

import pytest

from lieideals import ideals
from lieideals.corpus import heisenberg
from lieideals.errors import AmbientMismatchError, FieldMismatchError
from lieideals.exactfield import GF
from lieideals.ideals import (
    core,
    find_c_witness,
    find_weak_c_witness,
    lattice,
    subideal_chain,
)
from lieideals.linspace import full_subspace, zero_subspace
from lieideals.verify import default_corpus
from test_parent_answers import LADDER

ALGEBRAS = {m.member_id: m.algebra for m in default_corpus() if m.algebra.dim <= 5}
ALGEBRAS.update({name: build().algebra for name, build in LADDER.items()})


def _whole_sections(L):
    return [L.restrict(L.full_space()), L.quotient(L.zero_space())]


def test_a_search_on_a_whole_section_is_the_search_on_l(monkeypatch):
    L = heisenberg(GF(3)).algebra
    B = L.span([(1, 0, 0)])
    cert = find_weak_c_witness(L, B)
    assert cert is not None
    built = []
    init = ideals.Lattice.__init__
    monkeypatch.setattr(ideals.Lattice, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    for Ls, smap in _whole_sections(L):
        assert Ls is not L
        assert smap.project_subspace(B) == B
        assert find_weak_c_witness(Ls, B) is cert
        assert lattice(Ls) is lattice(L)
    assert built == []


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_whole_sections_answer_as_an_unshared_copy(name):
    L = ALGEBRAS[name]
    oracle = L._section(L.full_space(), L.zero_space())[0]
    for Ls, smap in _whole_sections(L):
        assert Ls.to_json() == oracle.to_json()
        assert (smap.K, smap.I) == (L.full_space(), L.zero_space())
        for B in lattice(L).subalgebras:
            for ask in (find_weak_c_witness, find_c_witness, core, subideal_chain):
                assert ask(Ls, B) == ask(oracle, B)


@pytest.mark.parametrize("ask", ["restrict", "quotient"])
@pytest.mark.parametrize("case", ["foreign-field", "wrong-ambient"])
def test_a_foreign_whole_space_raises_cold_and_warm(ask, case):
    L = heisenberg(GF(3)).algebra
    make = full_subspace if ask == "restrict" else zero_subspace
    if case == "foreign-field":
        other, error = make(GF(2), 3), FieldMismatchError
    else:
        other, error = make(GF(3), 4), AmbientMismatchError
    section = getattr(L, ask)
    with pytest.raises(error):
        section(other)
    for Ls, _ in _whole_sections(L):
        find_weak_c_witness(Ls, Ls.span([(1, 0, 0)]))
    with pytest.raises(error):
        section(other)
