"""Automorphisms found by search and the orbits they cut the lattice into,
against the plain loops over every subalgebra.

Every property the lattice checks quantify over is invariant under Aut(L),
so the converted checks loop over one representative per orbit and weight
it by the orbit size.  The oracle is the same check with
``ideals.automorphisms`` returning the trivial group, which makes every
subalgebra its own orbit: results must be identical, status, hypothesis
count and details.
"""

import importlib
from pathlib import Path

import pytest

import lieideals.ideals as ideals
from lieideals.corpus import BuiltAlgebra, _sum_built, almost_abelian, heisenberg, two_dim_nonabelian
from lieideals.exactfield import GF, QQ
from lieideals.ideals import automorphisms, ideals_of, is_automorphism, lattice
from lieideals.liecore import LieAlgebra
from lieideals.verify import CorpusMember, default_corpus, run_check
from test_parent_answers import LADDER

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CONVERTED = ("lemma-2.4-1", "lemma-2.4-3", "lemma-2.4-4", "proposition-2.5", "lemma-2.7",
             "lemma-3.5")


def _small_corpus():
    return [m for m in default_corpus() if m.member_id != "example34-3"]


def _members(source, monkeypatch):
    """Fresh members: the 15 small corpus members, or the five ladder
    algebras in the benchmark's basis for that seed."""
    if source == "corpus":
        return _small_corpus()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("gen").ladder_members(source)


def _algebras():
    out = {m.member_id: m.algebra for m in _small_corpus()}
    out.update({name: build().algebra for name, build in LADDER.items()})
    return out


ALGEBRAS = _algebras()


def _image(L, images, S):
    space = L.space
    return L.span_vecs([space.lin_comb(space.unpack(v), images) for v in S.vecs])


# -- the differential: orbit loops against the trivial group -------------------

@pytest.mark.parametrize("source", ["corpus", 0, 1])
def test_converted_checks_match_the_trivial_group(source, monkeypatch):
    members = _members(source, monkeypatch)
    orbit_rows = [run_check(c, m).to_json() for m in members for c in CONVERTED]
    reps = sum(len(lattice(m.algebra).orbits()) for m in members)
    assert reps < sum(len(lattice(m.algebra).subalgebras) for m in members)
    monkeypatch.setattr(ideals, "automorphisms", lambda L: ())
    plain_rows = [run_check(c, m).to_json() for m in _members(source, monkeypatch)
                  for c in CONVERTED]
    assert orbit_rows == plain_rows


def test_a_swapped_pair_of_images_is_refused():
    # heisenberg + nonabelian2 over GF(2): the swap of e3 = [e1, e2] and
    # y = [x, y] is a linear bijection that breaks both brackets
    L = _sum_built(GF(2), heisenberg(GF(2)), two_dim_nonabelian(GF(2))).algebra
    units = [L.space.unit(i) for i in range(L.dim)]
    bad = list(units)
    bad[2], bad[4] = bad[4], bad[2]
    assert L.span_vecs(bad).is_full()
    assert not is_automorphism(L, bad)
    assert is_automorphism(L, units)


def test_a_non_automorphism_changes_the_counts(monkeypatch):
    # on almost_abelian(3)/GF(3) swapping the images of e1 and e2 maps every
    # subalgebra to a subalgebra but breaks [e1, e2]; taken as a generator
    # unchecked it merges orbits that differ, and the differential sees it
    def member():
        return CorpusMember("almostabelian3-gf3", almost_abelian(GF(3), 3))

    L = member().algebra
    units = [L.space.unit(i) for i in range(L.dim)]
    bad = (units[1], units[0], units[2])
    assert not is_automorphism(L, bad)
    subs = set(lattice(L).subalgebras)
    assert all(_image(L, bad, S) in subs for S in subs)
    monkeypatch.setattr(ideals, "automorphisms", lambda L: ())
    plain = run_check("lemma-3.5", member())
    monkeypatch.setattr(ideals, "automorphisms", lambda L: (bad,))
    forced = run_check("lemma-3.5", member())
    assert plain.status == forced.status == "pass"
    assert plain.hypotheses != forced.hypotheses
    with pytest.raises(ValueError, match="not a union of whole orbits"):
        run_check("lemma-2.4-4", member())


def test_the_search_is_checked_again(monkeypatch):
    L = _sum_built(GF(2), heisenberg(GF(2)), two_dim_nonabelian(GF(2))).algebra
    units = [L.space.unit(i) for i in range(L.dim)]
    units[2], units[4] = units[4], units[2]
    monkeypatch.setattr(ideals, "_automorphism_search", lambda L: [tuple(units)])
    assert automorphisms(L) == ()


# -- automorphisms --------------------------------------------------------------

@pytest.mark.parametrize("source", ["corpus", 0, 1])
def test_every_automorphism_passes_the_independent_check(source, monkeypatch):
    for m in _members(source, monkeypatch):
        L = m.algebra
        units = tuple(L.space.unit(i) for i in range(L.dim))
        found = automorphisms(L)
        assert len(set(found)) == len(found)
        for images in found:
            assert images != units
            assert is_automorphism(L, images)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_automorphisms_depend_on_the_table_alone(name):
    L = ALGEBRAS[name]
    cold = automorphisms(L)
    assert automorphisms(L) is cold
    # a fresh algebra on the same table, its memo warmed by a check first
    fresh = LieAlgebra.from_json(L.to_json())
    run_check("lemma-2.7", CorpusMember(name, BuiltAlgebra(fresh)))
    assert automorphisms(fresh) == cold


def test_the_node_cap_leaves_the_trivial_group(monkeypatch):
    monkeypatch.setattr(ideals, "_SEARCH_NODES", 0)
    L = heisenberg(GF(3)).algebra
    assert automorphisms(L) == ()
    assert lattice(L).orbits() == [(S, 1) for S in lattice(L).subalgebras]


def test_no_search_above_the_mask_limit_or_over_q(monkeypatch):
    def refuse(L):
        raise AssertionError("the automorphism search ran")

    monkeypatch.setattr(ideals, "_automorphism_search", refuse)
    example = next(m for m in default_corpus() if m.member_id == "example34-3")
    assert automorphisms(example.algebra) == ()
    assert automorphisms(heisenberg(QQ).algebra) == ()


# -- orbits ---------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_orbits_are_the_closures_under_the_generators(name):
    L = ALGEBRAS[name]
    lat = lattice(L)
    subs = lat.subalgebras
    position = {S: i for i, S in enumerate(subs)}
    gens = automorphisms(L)
    orbits = lat.orbits()
    assert sum(size for _, size in orbits) == len(subs)
    reps = [position[S] for S, _ in orbits]
    assert reps == sorted(reps)
    for S, size in orbits:
        orbit, todo = {S}, [S]
        while todo:
            T = todo.pop()
            for images in gens:
                U = _image(L, images, T)
                if U not in orbit:
                    orbit.add(U)
                    todo.append(U)
        assert len(orbit) == size
        assert min(position[T] for T in orbit) == position[S]
    ideal_orbits = lat.orbits(ideals_of(L))
    assert sum(size for _, size in ideal_orbits) == len(ideals_of(L))
    assert all(L.is_ideal(I) for I, _ in ideal_orbits)


def test_orbits_refuse_a_list_that_is_not_a_union_of_orbits():
    L = heisenberg(GF(2)).algebra
    lat = lattice(L)
    S, size = next((S, size) for S, size in lat.orbits() if size > 1)
    with pytest.raises(ValueError, match="not a union of whole orbits"):
        lat.orbits([S])
    members = ideals_of(L)
    with pytest.raises(ValueError, match="not a union of whole orbits"):
        lat.orbits(members + members[:1])
    assert lat.orbits(members) == lat.orbits([I for I in lat.subalgebras if L.is_ideal(I)])


def test_the_trivial_group_is_the_plain_loop(monkeypatch):
    monkeypatch.setattr(ideals, "automorphisms", lambda L: ())
    for L in (heisenberg(GF(3)).algebra, almost_abelian(GF(2), 4).algebra):
        lat = lattice(L)
        assert lat.orbits() == [(S, 1) for S in lat.subalgebras]
        assert lat.orbits(ideals_of(L)) == [(I, 1) for I in ideals_of(L)]


def test_orbit_counts_on_the_ladder():
    counts = {name: len(lattice(ALGEBRAS[name]).orbits()) for name in LADDER}
    assert counts == {
        "almostabelian5-gf2": 10,
        "almostabelian4-gf3": 8,
        "sum-heisenberg-nonabelian2-gf2": 31,
        "sum-nonabelian2-nonabelian2-gf3": 20,
        "sum-sl2-abelian1-gf3": 16,
    }
