"""Builders for the named algebras: tables, labels, distinguished pieces.

The big characteristic-p member is spot-checked against brackets computed
by hand from its defining product rules.
"""

import pytest

from lieideals.corpus import (
    BuiltAlgebra,
    PRESETS,
    abelian,
    almost_abelian,
    build,
    direct_sum,
    example34,
    heisenberg,
    sl2,
    two_dim_nonabelian,
)
from lieideals.errors import FieldMismatchError, PresetError
from lieideals.exactfield import GF, QQ
from lieideals.linspace import unit_vector


def test_small_preset_tables_and_labels():
    H = heisenberg(GF(7)).algebra
    assert H.dim == 3 and H.labels == ("e1", "e2", "e3")
    assert H.bracket_basis(0, 1) == (0, 0, 1)
    N = two_dim_nonabelian(QQ).algebra
    assert N.labels == ("x", "y")
    assert N.bracket_basis(0, 1) == (0, 1)
    A = abelian(GF(2), 4).algebra
    assert A.dim == 4 and A.product_space(A.full_space(), A.full_space()).is_zero()
    assert abelian(QQ, 0).algebra.dim == 0


def test_almost_abelian_acts_as_identity_on_derived():
    L = almost_abelian(GF(5), 4).algebra
    assert L.labels == ("x", "y1", "y2", "y3")
    for i in range(1, 4):
        assert L.bracket_basis(0, i) == unit_vector(GF(5), 4, i)
    L = almost_abelian(QQ, 1).algebra
    assert L.product_space(L.full_space(), L.full_space()).is_zero()


def test_sl2_u_basis_table():
    S = sl2(GF(3)).algebra
    assert S.labels == ("um1", "u0", "u1")
    assert S.bracket_basis(0, 1) == (1, 0, 0)
    assert S.bracket_basis(0, 2) == (0, 1, 0)
    assert S.bracket_basis(1, 2) == (0, 0, 1)


def test_preset_argument_validation():
    with pytest.raises(PresetError):
        abelian(GF(2), -1)
    with pytest.raises(PresetError):
        almost_abelian(GF(2), 0)


# -- the characteristic-p witness -------------------------------------------


def test_example34_shape():
    built = example34(GF(3), 3)
    L = built.algebra
    assert L.dim == 10
    assert L.labels == (
        "um1_0",
        "um1_1",
        "um1_2",
        "u0_0",
        "u0_1",
        "u0_2",
        "u1_0",
        "u1_1",
        "u1_2",
        "D",
    )
    assert built.subspaces["A"].dim == 9
    assert built.subspaces["M"].dim == 7
    assert built.subspaces["Splus"].dim == 6
    assert built.vectors["um1"] == unit_vector(GF(3), 10, 0)
    assert L.is_ideal(built.subspaces["A"])
    assert L.is_subalgebra(built.subspaces["M"])
    assert built.subspaces["Splus"] <= built.subspaces["A"]


def test_example34_brackets_by_hand():
    f = GF(3)
    p = 3
    L = example34(f, p).algebra

    def idx(a, j):
        return (a + 1) * p + j

    def e(i):
        return L.space.pack(unit_vector(f, 10, i))

    # tensor rule: [u0 ox x, u1 ox x] = [u0, u1] ox x^2 = u1 ox x^2
    assert L.bracket(e(idx(0, 1)), e(idx(1, 1))) == e(idx(1, 2))
    # [um1 ox 1, u0 ox 1] = um1 ox 1
    assert L.bracket(e(idx(-1, 0)), e(idx(0, 0))) == e(idx(-1, 0))
    # truncation: x^2 * x^2 = x^4 = 0
    assert L.bracket(e(idx(-1, 2)), e(idx(0, 2))) == L.space.pack((0,) * 10)
    # derivation rule: [D, u0 ox x] = u0 ox (1 + x)
    D = e(9)
    got = L.space.unpack(L.bracket(D, e(idx(0, 1))))
    want = tuple(
        f.norm(a + b) for a, b in zip(*map(L.space.unpack, (e(idx(0, 0)), e(idx(0, 1)))))
    )
    assert got == want
    # [D, u1 ox x^2] = u1 ox (2x + 2x^2)
    got = L.space.unpack(L.bracket(D, e(idx(1, 2))))
    expect = [f.zero] * 10
    expect[idx(1, 1)] = f.norm(2)
    expect[idx(1, 2)] = f.norm(2)
    assert got == tuple(expect)
    # [D, u_a ox 1] = 0
    assert L.bracket(D, e(idx(1, 0))) == L.space.pack((0,) * 10)


def test_example34_parameter_validation():
    with pytest.raises(PresetError):
        example34(GF(2), 2)
    with pytest.raises(PresetError):
        example34(GF(3), 5)
    with pytest.raises(PresetError):
        example34(QQ, 3)


# -- sums -------------------------------------------------------------------


def test_direct_sum_blocks_and_labels():
    f = GF(2)
    L = direct_sum(heisenberg(f).algebra, two_dim_nonabelian(f).algebra)
    assert L.dim == 5
    assert L.labels == ("e1_1", "e2_1", "e3_1", "x_2", "y_2")
    assert L.bracket_basis(0, 1) == (0, 0, 1, 0, 0)
    assert L.bracket_basis(3, 4) == (0, 0, 0, 0, 1)
    # summands never talk to each other
    assert L.bracket_basis(0, 3) == (0, 0, 0, 0, 0)
    s1 = L.span([unit_vector(f, 5, i) for i in range(3)])
    s2 = L.span([unit_vector(f, 5, i) for i in range(3, 5)])
    assert L.is_ideal(s1) and L.is_ideal(s2)


def test_direct_sum_requires_one_field():
    with pytest.raises(FieldMismatchError):
        direct_sum(heisenberg(GF(2)).algebra, heisenberg(GF(3)).algebra)


def test_build_dispatch_and_sum_subspaces():
    b = build("heisenberg", GF(2))
    assert isinstance(b, BuiltAlgebra) and b.algebra.dim == 3
    s = build(
        "direct_sum", GF(3), build("abelian", GF(3), 1), build("sl2", GF(3))
    )
    assert s.algebra.dim == 4
    assert s.subspaces["summand1"].dim == 1
    assert s.subspaces["summand2"].dim == 3
    assert s.algebra.is_ideal(s.subspaces["summand1"])


def test_build_rejects_bad_calls():
    f = GF(2)
    with pytest.raises(PresetError):
        build("nope", f)
    with pytest.raises(PresetError):
        build("abelian", f)  # missing arity
    with pytest.raises(PresetError):
        build("heisenberg", f, 1)
    with pytest.raises(PresetError):
        build("abelian", f, True)  # bools are not sizes
    with pytest.raises(PresetError):
        build("direct_sum", f, 1, 2)


def test_preset_registry_is_complete():
    for name in PRESETS:
        assert name in {
            "abelian",
            "heisenberg",
            "two_dim_nonabelian",
            "almost_abelian",
            "sl2",
            "example34",
            "direct_sum",
        }
