"""Field-layer tests: exhaustive axiom checks for small GF(p) with native
arithmetic and ``norm``, Fraction agreement for Q, literal parsing."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lieideals
from lieideals.errors import FieldMismatchError, LieIdealsError
from lieideals.exactfield import (
    GF,
    MAX_PRIME,
    QQ,
    PrimeField,
    RationalField,
    field_from_name,
    is_prime,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_against_small_table():
    for n in range(-3, 60):
        assert is_prime(n) == (n in SMALL_PRIMES)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_axioms_exhaustive(p):
    f = GF(p)
    els = list(f.elements())
    assert els == list(range(p))
    n = f.norm
    for a in els:
        assert n(a + f.zero) == a
        assert n(a * f.one) == a
        assert n(a + n(-a)) == f.zero
        if a != f.zero:
            assert n(a * f.inv(a)) == f.one
        for b in els:
            # closure: every result is a canonical residue
            assert n(a + b) in els and n(a - b) in els and n(a * b) in els
            assert n(a + b) == n(b + a)
            assert n(a * b) == n(b * a)
            assert n(a - b) == n(a + n(-b))
            for c in els:
                assert n(n(a + b) + c) == n(a + n(b + c))
                assert n(n(a * b) * c) == n(a * n(b * c))
                assert n(a * n(b + c)) == n(n(a * b) + n(a * c))


def test_prime_field_zero_division():
    f = GF(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.inv(10)  # a multiple of p is zero too


def test_prime_field_construction_guards():
    with pytest.raises(LieIdealsError):
        GF(4)
    with pytest.raises(LieIdealsError):
        GF(1)
    with pytest.raises(LieIdealsError):
        GF(-7)
    with pytest.raises(LieIdealsError):
        GF(257)  # past the cap, even though prime
    assert GF(MAX_PRIME).p == 251


def test_prime_field_parse_format_round_trip():
    f = GF(7)
    for a in f.elements():
        assert f.parse(f.format(a)) == a
    assert f.parse("12") == 5
    assert f.parse("-1") == 6
    with pytest.raises(LieIdealsError):
        f.parse("x")
    with pytest.raises(LieIdealsError):
        f.parse("1/2")


def test_field_identity_and_mismatch():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ == RationalField()
    assert hash(GF(3)) == hash(GF(3))
    with pytest.raises(FieldMismatchError):
        GF(5).check_same(QQ)
    GF(5).check_same(GF(5))


rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


@given(rationals, rationals)
def test_rationals_match_fraction_arithmetic(a, b):
    # Fraction arithmetic is already canonical: norm keeps every result
    for x in (a + b, a - b, a * b, -a):
        assert QQ.norm(x) is x
    if b != 0:
        assert a * QQ.inv(b) == a / b
        assert type(QQ.inv(b)) is Fraction
    if b.denominator == 1 and b != 0:
        # an int scalar inverts to a Fraction, never to a float
        assert QQ.inv(int(b)) == Fraction(1, int(b))
        assert type(QQ.inv(int(b))) is Fraction


@given(rationals)
def test_rationals_parse_format_round_trip(a):
    assert QQ.parse(QQ.format(a)) == a


def test_rationals_parse_details():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.parse("5") == Fraction(5)
    with pytest.raises(LieIdealsError):
        QQ.parse("1/0")
    with pytest.raises(LieIdealsError):
        QQ.parse("1.5")
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_characteristics():
    assert GF(3).characteristic() == 3
    assert QQ.characteristic() == 0


def test_field_from_name():
    assert field_from_name("Q") == QQ
    assert field_from_name("GF(11)") == GF(11)
    assert field_from_name(" GF(2) ") == GF(2)
    for bad in ["GF(4)", "GF(x)", "R", "gf(3)", "GF[3]"]:
        with pytest.raises(LieIdealsError):
            field_from_name(bad)


def _reductions_modulo_p(tree):
    """Lines that reduce modulo a field's ``p``: ``x % f.p``, ``x %= f.p``,
    ``pow(x, e, f.p)``, ``divmod(x, f.p)``, or any of them through a name
    bound to ``f.p``."""
    aliases = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "p"
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def is_p(e):
        return (isinstance(e, ast.Attribute) and e.attr == "p") or (
            isinstance(e, ast.Name) and e.id in aliases
        )

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            hit = is_p(node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
            hit = is_p(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = node.args
            hit = (node.func.id == "pow" and len(args) == 3 and is_p(args[2])) or (
                node.func.id == "divmod" and len(args) == 2 and is_p(args[1])
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_exactfield_reduces_modulo_p():
    # every reduction to a canonical residue goes through field.norm
    package = Path(lieideals.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "exactfield.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{n}" for n in _reductions_modulo_p(tree)]
    assert offenders == []


def test_the_modulo_p_scan_sees_each_form():
    src = (
        "q = f.p\n"
        "a = x % f.p\n"
        "b = x % q\n"
        "x %= self.p\n"
        "c = pow(x, 3, f.p)\n"
        "d = divmod(x, q)\n"
        "e = x % 7 + len(s) % n\n"
    )
    assert _reductions_modulo_p(ast.parse(src)) == [2, 3, 4, 5, 6]
