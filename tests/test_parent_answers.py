"""Questions about a subalgebra answered in the parent's coordinates,
against the paths they replaced.

``L.series(kind, S)``, ``L.is_solvable(S)``, ``L.is_nilpotent(S)`` and
``Lattice.maximal_below(K)`` answer from L's own series and lattice index;
the oracles build the restricted algebra ``L.restrict(S)`` and map its
answers back.  ``find_c_witness`` walks every subalgebra and accepts the
first splitting ideal; the oracle walks ``ideals_of(L)``, as the search did
before.  ``is_supersolvable`` over GF(p) recurses on a
one-dimensional minimal ideal; the oracle scans every line of L for an
ideal, as the recursion did before.
"""

import ast
from pathlib import Path

import pytest

import lieideals
import lieideals.ideals
from lieideals.corpus import (
    _sum_built,
    abelian,
    almost_abelian,
    heisenberg,
    sl2,
    two_dim_nonabelian,
)
from lieideals.errors import NotASubalgebraError
from lieideals.exactfield import GF
from lieideals.ideals import core, find_c_witness, ideals_of, lattice
from lieideals.liecore import DERIVED, LOWER_CENTRAL, LieAlgebra
from lieideals.linspace import MASK_LIMIT, projective_points
from lieideals.structure import is_supersolvable, maximal_subalgebras
from lieideals.verify import default_corpus

LADDER = {
    "almostabelian5-gf2": lambda: almost_abelian(GF(2), 5),
    "almostabelian4-gf3": lambda: almost_abelian(GF(3), 4),
    "sum-heisenberg-nonabelian2-gf2": lambda: _sum_built(
        GF(2), heisenberg(GF(2)), two_dim_nonabelian(GF(2))),
    "sum-nonabelian2-nonabelian2-gf3": lambda: _sum_built(
        GF(3), two_dim_nonabelian(GF(3)), two_dim_nonabelian(GF(3))),
    "sum-sl2-abelian1-gf3": lambda: _sum_built(GF(3), sl2(GF(3)), abelian(GF(3), 1)),
}

# two_dim_nonabelian over GF(67) has 67^2 > MASK_LIMIT elements, so its
# lattice tests run on the Subspace operators instead of element masks
ABOVE_MASK_LIMIT = {"nonabelian2-gf67": lambda: two_dim_nonabelian(GF(67))}


def _algebras(max_dim):
    out = {m.member_id: m.algebra for m in default_corpus() if m.algebra.dim <= max_dim}
    for name, build in {**LADDER, **ABOVE_MASK_LIMIT}.items():
        out[name] = build().algebra
    return out


ALGEBRAS = _algebras(5)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_subalgebra_answers_match_the_restricted_algebra(name):
    L = ALGEBRAS[name]
    lat = lattice(L)
    for S in lat.subalgebras:
        K, smap = L.restrict(S)
        for kind in (DERIVED, LOWER_CENTRAL):
            lifted = [smap.preimage_subspace(T) for T in K.series(kind).terms]
            assert L.series(kind, S).terms == lifted
        assert L.is_solvable(S) == K.is_solvable()
        assert L.is_nilpotent(S) == K.is_nilpotent()
        maximals = [smap.preimage_subspace(M) for M in maximal_subalgebras(K)]
        assert lat.maximal_below(S) == maximals


def test_the_differential_covers_both_lattice_paths():
    L = ALGEBRAS["nonabelian2-gf67"]
    assert L.field.p ** L.dim > MASK_LIMIT
    assert len(lattice(L).maximal_below(L.full_space())) == 68  # every line
    assert all(M.field.p ** M.dim <= MASK_LIMIT for M in ALGEBRAS.values() if M is not L)


def test_only_searches_build_a_restricted_algebra():
    # a question L can answer in its own coordinates needs no view; the
    # searches that need K as an algebra, and one assertion, build one
    calls = set()
    for path in sorted(Path(lieideals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            asserts = [n for n in ast.walk(top) if isinstance(n, ast.Assert)]
            in_assert = {id(n) for a in asserts for n in ast.walk(a)}
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "restrict"):
                    calls.add((f"{path.stem}.{top.name}", id(node) in in_assert))
    assert calls == {
        ("cli.cmd_check", False),
        ("verify.check_lemma_2_4_3", False),
        ("structure._case_ii_split", True),
    }


def _cold(L):
    """A copy of L with nothing memoized."""
    return LieAlgebra.from_json(L.to_json())


def _brute_is_ideal(L, S):
    return all(L.bracket(x, s) in S for x in L.full_space().vecs for s in S.vecs)


def _first_splitting_ideal(L, B):
    """The c-ideal search as it was: the first C in ideals_of(L) that splits
    B over its core, L = B + C and B ∩ C <= core(B), by the Subspace
    operators."""
    full, core_B = L.full_space(), core(L, B)
    return next((C for C in ideals_of(L) if B + C == full and (B & C) <= core_B), None)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_c_witness_matches_the_walk_over_ideals(name):
    L = ALGEBRAS[name]
    subs = lattice(L).subalgebras
    expected = [_first_splitting_ideal(L, B) for B in subs]
    warm = _cold(L)
    ideals_of(warm)
    for A in (_cold(L), warm):
        for B, C in zip(subs, expected):
            cert = find_c_witness(A, B)
            assert (None if cert is None else cert.C) == C, B.basis_strings()
            assert cert is None or cert.core_B == core(A, B)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_is_ideal_matches_brute_force_cold_and_warm(name):
    L = _cold(ALGEBRAS[name])
    subs = lattice(L).subalgebras
    expected = [_brute_is_ideal(L, S) for S in subs]
    for _ in range(2):
        assert [L.is_ideal(S) for S in subs] == expected


def test_a_cold_c_ideal_search_never_lists_the_ideals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("find_c_witness called ideals_of")

    monkeypatch.setattr(lieideals.ideals, "ideals_of", refuse)
    for L in ALGEBRAS.values():
        L = _cold(L)
        for B in lattice(L).subalgebras:
            find_c_witness(L, B)


def test_a_non_subalgebra_has_no_series():
    L = heisenberg(GF(2)).algebra
    N = L.span([(1, 0, 0), (0, 1, 0)])
    for ask in (L.is_solvable, L.is_nilpotent, lambda S: L.series(DERIVED, S)):
        for _ in range(2):  # a refusal is not memoized as an answer
            with pytest.raises(NotASubalgebraError):
                ask(N)


# -- supersolvability against the line scan ---------------------------------


def vec_scale(f, c, v):
    return tuple(f.norm(c * a) for a in v)


def _line_is_ideal(L, v):
    # [e_i, v] = sum_j v_j [e_i, e_j] must be a multiple of v for every
    # basis vector; read off the table, not through the packed bracket
    f = L.field
    lead = next(j for j, a in enumerate(v) if a)
    for i in range(L.dim):
        cols = [L.bracket_basis(i, j) for j in range(L.dim)]
        w = tuple(f.norm(sum(c[r] * a for c, a in zip(cols, v))) for r in range(L.dim))
        if w != vec_scale(f, f.norm(w[lead] * f.inv(v[lead])), v):
            return False
    return True


def line_scan_supersolvable(L):
    """Recurse on the first line of L that is an ideal, scanning every line."""
    if L.dim == 0 or L.is_nilpotent():
        return True
    if not L.is_solvable():
        return False
    for v in map(L.space.unpack, projective_points(L.field, L.dim)):
        if _line_is_ideal(L, v):
            return line_scan_supersolvable(L.quotient(L.span([v]))[0])
    return False


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_supersolvable_matches_the_line_scan(name):
    """On L, on its quotients by ideals and on its restrictions."""
    L = ALGEBRAS[name]
    family = [L]
    family += [L.quotient(I)[0] for I in ideals_of(L)]
    family += [L.restrict(S)[0] for S in lattice(L).subalgebras]
    for A in family:
        assert is_supersolvable(A) is line_scan_supersolvable(A)
