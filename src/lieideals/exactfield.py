"""Exact scalars over GF(p) and over the rationals.

Scalars are native Python numbers: an int residue in ``0..p-1`` over a
prime field, a :class:`~fractions.Fraction` (or an int) over the rationals.
Callers combine them with ``+``, ``-`` and ``*`` and pass each result
through ``field.norm``, which returns the canonical representative, so
equal field elements always compare equal.  Division goes through
``field.inv``.  A field object decides only what differs between GF(p) and
Q: ``zero``, ``one``, ``norm``, ``inv``, literals and enumeration.
"""

from fractions import Fraction

from .errors import FieldMismatchError, LieIdealsError

MAX_PRIME = 251  # residues fit a byte; enumeration caps are far below this


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for the supported range."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Common interface of :class:`PrimeField` and :class:`RationalField`."""

    def characteristic(self) -> int:
        raise NotImplementedError

    def check_same(self, other: "Field"):
        if self != other:
            raise FieldMismatchError(f"mixed fields: {self} and {other}")

    # Subclasses provide: zero, one, norm, inv, parse, format.


class PrimeField(Field):
    """GF(p) for a prime p <= 251.  Elements are ints in ``0..p-1``."""

    def __init__(self, p: int):
        # the cap comes first: trial division of a huge literal would not end
        if isinstance(p, int) and p > MAX_PRIME:
            raise LieIdealsError(f"modulus {p} exceeds supported cap {MAX_PRIME}")
        if not isinstance(p, int) or not is_prime(p):
            raise LieIdealsError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def characteristic(self) -> int:
        return self.p

    def norm(self, a):
        """The residue of the integer a in ``0..p-1``."""
        return a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def parse(self, text: str):
        try:
            n = int(text, 10)
        except ValueError:
            raise LieIdealsError(f"bad GF({self.p}) scalar literal {text!r}") from None
        return n % self.p

    def format(self, a) -> str:
        return str(a)


class RationalField(Field):
    """The rationals with arbitrary-precision Fraction elements."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def characteristic(self) -> int:
        return 0

    def norm(self, a):
        """a itself: int and Fraction arithmetic is exact and a Fraction is
        always in lowest terms, so a new Fraction would only cost time."""
        return a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def parse(self, text: str):
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num, 10), int(den, 10))
            return Fraction(int(text, 10))
        except (ValueError, ZeroDivisionError):
            raise LieIdealsError(f"bad rational scalar literal {text!r}") from None

    def format(self, a) -> str:
        return f"{a.numerator}/{a.denominator}"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_name(name: str) -> Field:
    """Parse a field name: ``Q`` or ``GF(p)``."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        try:
            p = int(name[3:-1], 10)
        except ValueError:
            raise LieIdealsError(f"bad field name {name!r}") from None
        return PrimeField(p)
    raise LieIdealsError(f"bad field name {name!r}")
