"""Deterministic builders for the named algebras used in tests and the
verification suite.

Every builder validates its parameters, constructs the structure-constant
table explicitly, and returns the algebra together with any distinguished
subspaces the construction singles out.  All tables pass the Jacobi check at
build time.
"""

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import PresetError
from .exactfield import PrimeField
from .liecore import LieAlgebra
from .linspace import unit_vector


@dataclass
class BuiltAlgebra:
    """An algebra plus the named subspaces and vectors its builder exposes."""

    algebra: LieAlgebra
    subspaces: dict = dc_field(default_factory=dict)
    vectors: dict = dc_field(default_factory=dict)


def abelian(f, n):
    if n < 0:
        raise PresetError("abelian(n) needs n >= 0")
    return BuiltAlgebra(LieAlgebra(f, n, {}))


def heisenberg(f):
    one = f.one
    z = f.zero
    return BuiltAlgebra(LieAlgebra(f, 3, {(0, 1): (z, z, one)}))


def two_dim_nonabelian(f):
    one = f.one
    z = f.zero
    alg = LieAlgebra(f, 2, {(0, 1): (z, one)}, labels=["x", "y"])
    return BuiltAlgebra(alg)


def almost_abelian(f, n):
    """Basis x, y1, ..., y_{n-1} with [x, y_i] = y_i; the y_i span L^2."""
    if n < 1:
        raise PresetError("almost_abelian(n) needs n >= 1")
    brackets = {}
    for i in range(1, n):
        brackets[(0, i)] = unit_vector(f, n, i)
    labels = ["x"] + [f"y{i}" for i in range(1, n)]
    return BuiltAlgebra(LieAlgebra(f, n, brackets, labels=labels))


def sl2(f):
    """Basis u_{-1}, u_0, u_1 with [u_{-1},u_0] = u_{-1}, [u_{-1},u_1] = u_0,
    [u_0,u_1] = u_1."""
    brackets = {
        (0, 1): unit_vector(f, 3, 0),
        (0, 2): unit_vector(f, 3, 1),
        (1, 2): unit_vector(f, 3, 2),
    }
    return BuiltAlgebra(LieAlgebra(f, 3, brackets, labels=["um1", "u0", "u1"]))


# sl2 structure constants in the u basis: [u_a, u_b] for a < b
_SL2 = {(-1, 0): (-1, 1), (-1, 1): (0, 1), (0, 1): (1, 1)}


def _sl2_bracket(a, b):
    """[u_a, u_b] as (index, sign) or None."""
    if a == b:
        return None
    if a < b:
        return _SL2[(a, b)]
    idx, sgn = _SL2[(b, a)]
    return (idx, -sgn)


def example34(f, p):
    """The characteristic-p algebra sl(2) tensor the truncated polynomial
    ring O_1 = F[x]/(x^p), extended by the derivation D = d/dx + x d/dx.

    Basis order: u_i otimes x^j for i = -1, 0, 1 (outer) and j = 0..p-1
    (inner), then D; dim 3p + 1.  Brackets: [a ox f, b ox g] = [a,b] ox fg
    and [D, a ox f] = a ox D(f), with x^p = 0 and D(x^j) = j x^{j-1} + j x^j.

    Distinguished pieces: A = sl(2) ox O_1 (dim 3p), M = (Fu_0 + Fu_1) ox O_1
    + FD (dim 2p + 1), Splus = sl(2) ox O_1^+ (dim 3(p-1)), and the vector
    um1 = u_{-1} ox 1.
    """
    if not isinstance(f, PrimeField) or f.p != p:
        raise PresetError(f"example34({p}) needs the ground field GF({p})")
    if p <= 2:
        raise PresetError("example34(p) needs a prime p > 2")
    n = 3 * p + 1
    D = n - 1

    def idx(i, j):
        return (i + 1) * p + j

    brackets = {}

    def put(r, c, vec):
        if r == c:
            return
        if r > c:
            r, c = c, r
            vec = tuple(f.norm(-a) for a in vec)
        if any(a != f.zero for a in vec):
            brackets[(r, c)] = vec

    # tensor part against tensor part
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            br = _sl2_bracket(a, b)
            if br is None:
                continue
            tgt, sgn = br
            for s in range(p):
                for t in range(p):
                    if idx(a, s) >= idx(b, t):
                        continue
                    v = [f.zero] * n
                    if s + t < p:
                        v[idx(tgt, s + t)] = f.norm(sgn)
                    put(idx(a, s), idx(b, t), tuple(v))
    # the derivation: [D, u_a ox x^j] = u_a ox (j x^{j-1} + j x^j)
    for a in (-1, 0, 1):
        for j in range(p):
            if j == 0:
                continue
            v = [f.zero] * n
            v[idx(a, j - 1)] = f.norm(j)
            v[idx(a, j)] = f.norm(j)
            put(D, idx(a, j), tuple(v))

    labels = []
    for a in (-1, 0, 1):
        tag = "um1" if a == -1 else f"u{a}"
        labels.extend(f"{tag}_{j}" for j in range(p))
    labels.append("D")
    alg = LieAlgebra(f, n, brackets, labels=labels)

    def coord_span(indices):
        return alg.span([unit_vector(f, n, i) for i in indices])

    A = coord_span([idx(a, j) for a in (-1, 0, 1) for j in range(p)])
    M = coord_span([idx(a, j) for a in (0, 1) for j in range(p)] + [D])
    Splus = coord_span([idx(a, j) for a in (-1, 0, 1) for j in range(1, p)])
    um1 = unit_vector(f, n, idx(-1, 0))
    return BuiltAlgebra(
        alg,
        subspaces={"A": A, "M": M, "Splus": Splus},
        vectors={"um1": um1},
    )


def direct_sum(L1, L2):
    """Block-diagonal sum; each summand's image is an ideal."""
    L1.field.check_same(L2.field)
    f = L1.field
    n1, n2 = L1.dim, L2.dim
    brackets = {}
    for i, j in itertools.combinations(range(n1), 2):
        brackets[(i, j)] = L1.bracket_basis(i, j) + (f.zero,) * n2
    for i, j in itertools.combinations(range(n2), 2):
        brackets[(i + n1, j + n1)] = (f.zero,) * n1 + L2.bracket_basis(i, j)
    labels = [f"{a}_1" for a in L1.labels] + [f"{a}_2" for a in L2.labels]
    return LieAlgebra(f, n1 + n2, brackets, labels=labels)


def _sum_built(f, b1, b2):
    alg = direct_sum(b1.algebra, b2.algebra)
    s1 = alg.span([unit_vector(f, alg.dim, i) for i in range(b1.algebra.dim)])
    s2 = alg.span(
        [unit_vector(f, alg.dim, b1.algebra.dim + i) for i in range(b2.algebra.dim)]
    )
    return BuiltAlgebra(alg, subspaces={"summand1": s1, "summand2": s2})


# name -> (min arity, max arity); arguments are ints or nested preset calls
PRESETS = {
    "abelian": (1, 1),
    "heisenberg": (0, 0),
    "two_dim_nonabelian": (0, 0),
    "almost_abelian": (1, 1),
    "sl2": (0, 0),
    "example34": (1, 1),
    "direct_sum": (2, 2),
}


def build(name, f, *args):
    """Dispatch a preset by name.  Integer arguments stay integers; for
    direct_sum the arguments are BuiltAlgebra values."""
    if name not in PRESETS:
        raise PresetError(f"unknown preset {name!r}")
    lo, hi = PRESETS[name]
    if not (lo <= len(args) <= hi):
        raise PresetError(f"preset {name} takes {lo} argument(s), got {len(args)}")
    if name == "abelian":
        return abelian(f, _int_arg(name, args[0]))
    if name == "heisenberg":
        return heisenberg(f)
    if name == "two_dim_nonabelian":
        return two_dim_nonabelian(f)
    if name == "almost_abelian":
        return almost_abelian(f, _int_arg(name, args[0]))
    if name == "sl2":
        return sl2(f)
    if name == "example34":
        return example34(f, _int_arg(name, args[0]))
    if name == "direct_sum":
        for a in args:
            if not isinstance(a, BuiltAlgebra):
                raise PresetError("direct_sum arguments must be preset invocations")
        return _sum_built(f, args[0], args[1])
    raise AssertionError(name)


def _int_arg(name, a):
    if not isinstance(a, int) or isinstance(a, bool):
        raise PresetError(f"preset {name} takes an integer argument")
    return a
