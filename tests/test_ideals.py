"""Cores, closures, subideal chains and the two certificate kinds.

The enumeration-backed oracles here never call the functions under test:
the core oracle sums enumerated ideals directly, and the subideal oracle
does a plain recursive search over one-step extensions.
"""

import json
import time
from fractions import Fraction

import pytest

from lieideals.corpus import (
    BuiltAlgebra,
    abelian,
    almost_abelian,
    direct_sum,
    heisenberg,
    sl2,
    two_dim_nonabelian,
)
from lieideals.document import parse_document
from lieideals.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    EnumerationUnsupportedError,
    FieldMismatchError,
    NotASubalgebraError,
    NotContainedError,
)
from lieideals.exactfield import GF, QQ
from lieideals.ideals import (
    CIdealCertificate,
    SubidealChain,
    WeakCIdealCertificate,
    core,
    find_c_witness,
    find_weak_c_witness,
    ideal_closure,
    ideals_of,
    is_weak_c_ideal,
    lattice,
    subalgebras,
    subideal_chain,
    subideal_complement_mod_core,
)
from lieideals.liecore import DERIVED, LOWER_CENTRAL, LieAlgebra
from lieideals.linspace import MASK_LIMIT, Subspace, element_mask, zero_subspace
from lieideals.structure import (
    cartan_subalgebras,
    frattini,
    maximal_subalgebras,
    nilpotent_subalgebras,
)
from lieideals.verify import default_corpus


def heis(f):
    return heisenberg(f).algebra


def brute_core(L, B):
    """Largest ideal inside B, as the sum of all enumerated ideals below B."""
    total = L.zero_space()
    for I in ideals_of(L):
        if I <= B:
            total = total + I
    return total


def brute_subideal(L, S, memo=None):
    """Recursive subideal decision over one-step extensions only."""
    if memo is None:
        memo = {}
    if S.rows in memo:
        return memo[S.rows]
    if S.is_full():
        return True
    ok = any(
        S.dim < T.dim and S <= T
        and L.product_space(T, S) <= S
        and brute_subideal(L, T, memo)
        for T in subalgebras(L)
    )
    memo[S.rows] = ok
    return ok


# -- lattice primitives -----------------------------------------------------


def test_subalgebra_and_ideal_counts_heisenberg_gf2():
    L = heis(GF(2))
    subs = subalgebras(L)
    # zero, seven lines, the three planes containing the center, and L
    assert len(subs) == 12
    assert [S.dim for S in subs] == [0] + [1] * 7 + [2] * 3 + [3]
    ids = ideals_of(L)
    # zero, the center, the three planes above it, and L
    assert len(ids) == 6
    assert subalgebras(L) is subs  # memoized on the algebra


def test_enumeration_refuses_infinite_fields():
    L = heis(QQ)
    with pytest.raises(EnumerationUnsupportedError):
        subalgebras(L)


# -- core -------------------------------------------------------------------


def test_core_known_values():
    N = two_dim_nonabelian(GF(3)).algebra
    x_line = N.span([(1, 0)])
    y_line = N.span([(0, 1)])
    assert core(N, x_line).is_zero()
    assert core(N, y_line) == y_line
    L = heis(QQ)
    assert core(L, L.span([(1, 0, 0)])).is_zero()
    assert core(L, L.span([(1, 0, 0), (0, 0, 1)])) == L.span(
        [(1, 0, 0), (0, 0, 1)]
    )
    assert core(L, L.full_space()).is_full()
    assert core(L, L.zero_space()).is_zero()
    # over Q the core runs through exact rational annihilators
    N = two_dim_nonabelian(QQ).algebra
    assert core(N, N.span([(1, 0)])).is_zero()
    assert core(N, N.span([(0, 1)])) == N.span([(0, 1)])
    assert core(N, N.span([(1, Fraction(-1, 2))])).is_zero()
    assert core(N, N.full_space()).is_full()
    S = sl2(QQ).algebra  # simple: every proper subalgebra has zero core
    borel = S.span([(1, 0, 0), (0, 1, 0)])
    assert S.is_subalgebra(borel)
    assert core(S, borel).is_zero()
    assert core(S, S.span([(0, 1, 0)])).is_zero()
    assert core(S, S.span([(0, 0, 1)])).is_zero()
    assert core(S, S.full_space()).is_full()


def test_core_of_a_large_sparse_table_is_fast():
    # the dual closure starts from 299 annihilator vectors; each image step
    # reads the one table entry instead of 300 dense ad matrices
    L = parse_document("field GF(2)\ndim 300\n[e1,e2] = e3\n").algebra
    e = lambda i: tuple(int(j == i) for j in range(300))
    t0 = time.perf_counter()
    assert core(L, L.span([e(0)])).is_zero()
    assert core(L, L.span([e(2), e(3)])) == L.span([e(2), e(3)])
    assert time.perf_counter() - t0 < 2.0


def test_core_requires_a_subalgebra():
    L = heis(QQ)
    with pytest.raises(NotASubalgebraError):
        core(L, L.span([(1, 0, 0), (0, 1, 0)]))


@pytest.mark.parametrize(
    "built",
    [
        pytest.param(heisenberg(GF(2)), id="heis2"),
        pytest.param(two_dim_nonabelian(GF(3)), id="nonab3"),
        pytest.param(almost_abelian(GF(2), 3), id="almost2"),
        pytest.param(sl2(GF(3)), id="sl2-3"),
        # x between y1 and y2, so e_x meets table entries on both sides and
        # the sign of each transposed-ad entry shows
        pytest.param(
            BuiltAlgebra(LieAlgebra(GF(3), 3, {(0, 1): (2, 0, 0), (1, 2): (0, 0, 1)})),
            id="almost3-x-middle",
        ),
    ]
    + [
        # every small corpus member, over GF(2), GF(3) and GF(5)
        pytest.param(m.built, id=m.member_id)
        for m in default_corpus()
        if m.algebra.dim <= 5
    ],
)
def test_core_matches_enumerated_ideal_sum(built):
    L = built.algebra
    for B in subalgebras(L):
        got = core(L, B)
        assert got == brute_core(L, B)
        assert L.is_ideal(got) and got <= B


# -- ideal closure and subideal chains --------------------------------------


def product_space_closure(L, B, K):
    """Smallest ideal of K containing B, as the fixed point of
    U -> U + [K, U] computed one whole product space at a time."""
    U = B
    while True:
        nxt = U + L.product_space(K, U)
        if nxt == U:
            return U
        U = nxt


@pytest.mark.parametrize(
    "built",
    [heisenberg(GF(3)), sl2(GF(3)), almost_abelian(GF(2), 3)],
    ids=["heis3", "sl2-3", "almost2"],
)
def test_ideal_closure_matches_product_space_fixed_point(built):
    L = built.algebra
    subs = subalgebras(L)
    pairs = 0
    for K in subs:
        for B in subs:
            if B <= K:
                assert ideal_closure(L, B, K) == product_space_closure(L, B, K)
                pairs += 1
    assert pairs > 2 * len(subs)


def test_ideal_closure_heisenberg():
    L = heis(GF(5))
    e1 = L.span([(1, 0, 0)])
    assert ideal_closure(L, e1, L.full_space()) == L.span(
        [(1, 0, 0), (0, 0, 1)]
    )
    plane = L.span([(1, 0, 0), (0, 0, 1)])
    assert ideal_closure(L, e1, plane) == e1  # the plane centralizes e1
    with pytest.raises(NotContainedError):
        ideal_closure(L, L.span([(0, 1, 0)]), e1)


def test_subideal_chain_literal_heisenberg():
    L = heis(GF(2))
    e1 = L.span([(1, 0, 0)])
    chain = subideal_chain(L, e1)
    assert chain is not None
    assert chain.terms == (e1, L.span([(1, 0, 0), (0, 0, 1)]), L.full_space())
    assert chain.bottom == e1
    assert chain.problems(L) == []
    assert subideal_chain(L, e1) is chain  # cached


def test_subideal_chain_none_for_self_normalizing_line():
    N = two_dim_nonabelian(QQ).algebra
    assert subideal_chain(N, N.span([(1, 0)])) is None
    assert subideal_chain(N, N.span([(0, 1)])) is not None


def test_subideal_chain_trivial_ends():
    L = heis(GF(3))
    whole = subideal_chain(L, L.full_space())
    assert whole.terms == (L.full_space(),)
    zero = subideal_chain(L, L.zero_space())
    assert zero.terms == (L.zero_space(), L.full_space())
    with pytest.raises(NotASubalgebraError):
        subideal_chain(L, L.span([(1, 0, 0), (0, 1, 0)]))


def _line(L):
    return L.span([(1, 0, 0)])


@pytest.mark.parametrize(
    "query",
    [
        subalgebras,
        ideals_of,
        maximal_subalgebras,
        nilpotent_subalgebras,
        cartan_subalgebras,
        frattini,
        lambda L, **kw: find_weak_c_witness(L, _line(L), **kw),
        lambda L, **kw: find_c_witness(L, _line(L), **kw),
    ],
    ids=[
        "subalgebras",
        "ideals_of",
        "maximal_subalgebras",
        "nilpotent_subalgebras",
        "cartan_subalgebras",
        "frattini",
        "find_weak_c_witness",
        "find_c_witness",
    ],
)
def test_warm_memo_still_obeys_the_budget(query):
    # the same query with the same budget answers the same, cold or warm
    L = heis(GF(2))
    with pytest.raises(BudgetExceededError):
        query(heis(GF(2)), budget=1)
    first = query(L)
    with pytest.raises(BudgetExceededError) as exc:
        query(L, budget=1)
    assert (exc.value.needed, exc.value.budget) == (16, 1)
    assert query(L, budget=16) is first
    assert query(L, budget=None) is first


SUBSPACE_QUERIES = {
    "core": core,
    "subideal_chain": subideal_chain,
    "is_solvable": lambda L, S: L.is_solvable(S),
    "is_nilpotent": lambda L, S: L.is_nilpotent(S),
    "is_ideal": lambda L, S: L.is_ideal(S),
    "quotient": lambda L, S: L.quotient(S),
    "restrict": lambda L, S: L.restrict(S),
    "find_weak_c_witness": find_weak_c_witness,
    "find_c_witness": find_c_witness,
}


@pytest.mark.parametrize("query", sorted(SUBSPACE_QUERIES))
@pytest.mark.parametrize("case", ["foreign-field", "wrong-ambient-zero"])
def test_memo_answers_do_not_depend_on_call_history(query, case):
    # a GF(2) subspace has the rows of a GF(3) one, and every zero subspace
    # has no rows: asking about L's own subspace first must not answer the
    # other one from the memo
    ask = SUBSPACE_QUERIES[query]
    L = heis(GF(3))
    if case == "foreign-field":
        native = L.span([(0, 0, 1)])
        other, error = Subspace(GF(2), 3, [(0, 0, 1)]), FieldMismatchError
    else:
        native = L.zero_space()
        other, error = zero_subspace(GF(3), 4), AmbientMismatchError
    assert other.rows == native.rows
    with pytest.raises(error):
        ask(L, other)
    ask(L, native)
    with pytest.raises(error):
        ask(L, other)


@pytest.mark.parametrize(
    "built",
    [
        heisenberg(GF(2)),
        two_dim_nonabelian(GF(3)),
        almost_abelian(GF(2), 3),
        sl2(GF(2)),
        sl2(GF(3)),
    ],
    ids=["heis2", "nonab3", "almost2", "sl2-2", "sl2-3"],
)
def test_subideal_chain_matches_recursive_search(built):
    L = built.algebra
    memo = {}
    for S in subalgebras(L):
        chain = subideal_chain(L, S)
        assert (chain is not None) == brute_subideal(L, S, memo)
        if chain is not None:
            assert chain.problems(L) == []
            assert chain.bottom == S


def test_chain_problem_strings():
    L = heis(QQ)
    e1 = L.span([(1, 0, 0)])
    mid = L.span([(1, 0, 0), (0, 0, 1)])
    assert SubidealChain(()).problems(L) == ["chain is empty"]
    assert SubidealChain((e1, mid)).problems(L) == [
        "last term is not the whole algebra"
    ]
    bad_mid = SubidealChain((e1, L.span([(1, 0, 0), (0, 1, 0)]), L.full_space()))
    probs = bad_mid.problems(L)
    assert "term 1 is not a subalgebra" in probs
    assert "term 0 is not an ideal of term 1" in probs
    repeat = SubidealChain((e1, e1, L.full_space()))
    assert "term 0 does not strictly increase into term 1" in repeat.problems(L)
    not_ideal = SubidealChain((L.span([(0, 1, 0)]), L.full_space()))
    assert not_ideal.problems(L) == ["term 0 is not an ideal of term 1"]


def test_chain_json_round_trip():
    L = heis(GF(2))
    chain = subideal_chain(L, L.span([(1, 0, 0)]))
    doc = json.loads(json.dumps(chain.to_json()))
    back = SubidealChain.from_json(GF(2), 3, doc)
    assert back == chain
    assert back.problems(L) == []


# -- verification against supplied witnesses --------------------------------


def test_weak_certificate_problems_for_supplied_witnesses():
    L = heis(QQ)
    e1 = L.span([(1, 0, 0)])
    N = two_dim_nonabelian(QQ).algebra
    x_line = N.span([(1, 0)])
    assert subideal_chain(N, x_line) is None  # a witness that is not a subideal

    def weak(C):
        return WeakCIdealCertificate(e1, C, subideal_chain(L, C), core(L, e1))

    assert weak(L.span([(1, 0, 0), (0, 0, 1)])).problems(L) == [
        "B + C is not the whole algebra",
        "B ∩ C is not inside the claimed core",
    ]
    assert weak(L.full_space()).problems(L) == [
        "B ∩ C is not inside the claimed core"
    ]
    plane = L.span([(1, 0, 0), (0, 1, 0)])  # not a subalgebra
    bad_c = WeakCIdealCertificate(
        e1, plane, SubidealChain((plane, L.full_space())), core(L, e1)
    )
    assert bad_c.problems(L) == [
        "C is not a subalgebra",
        "chain: term 0 is not a subalgebra",
        "chain: term 0 is not an ideal of term 1",
        "B + C is not the whole algebra",
        "B ∩ C is not inside the claimed core",
    ]


def test_c_certificate_problems_accept_and_reject():
    L = heis(QQ)
    e2 = L.span([(0, 1, 0)])
    cert = CIdealCertificate(e2, L.span([(1, 0, 0), (0, 0, 1)]), core(L, e2))
    assert cert.problems(L) == []
    assert cert.core_B.is_zero()
    B = L.span([(0, 1, 0), (0, 0, 1)])
    bad = CIdealCertificate(B, L.span([(1, 0, 0)]), core(L, B))
    assert bad.problems(L) == ["C is not an ideal of L"]


def test_c_certificate_upgrades_to_weak():
    L = heis(QQ)
    e2 = L.span([(0, 1, 0)])
    cert = CIdealCertificate(e2, L.span([(1, 0, 0), (0, 0, 1)]), core(L, e2))
    weak = cert.to_weak(L)
    assert isinstance(weak, WeakCIdealCertificate)
    assert weak.problems(L) == []
    assert weak.chain.bottom == weak.C


def test_certificate_problem_strings_after_tampering():
    L = almost_abelian(GF(2), 3).algebra
    x_line = L.span([(1, 0, 0)])
    y1 = L.span([(0, 1, 0)])
    cert = find_weak_c_witness(L, x_line)
    assert cert is not None and cert.problems(L) == []
    wrong_core = WeakCIdealCertificate(cert.B, cert.C, cert.chain, L.full_space())
    assert wrong_core.problems(L) == ["claimed core is not contained in B"]
    not_ideal_core = WeakCIdealCertificate(cert.B, cert.C, cert.chain, cert.B)
    assert not_ideal_core.problems(L) == ["claimed core is not an ideal of L"]
    short = WeakCIdealCertificate(cert.B, y1, cert.chain, cert.core_B)
    assert short.problems(L) == [
        "chain does not start at C",
        "B + C is not the whole algebra",
    ]

    cert = find_c_witness(L, x_line)
    assert cert is not None and cert.problems(L) == []
    wrong_core = CIdealCertificate(cert.B, cert.C, L.full_space())
    assert wrong_core.problems(L) == ["claimed core is not contained in B"]
    not_ideal_core = CIdealCertificate(cert.B, cert.C, cert.B)
    assert not_ideal_core.problems(L) == ["claimed core is not an ideal of L"]
    short = CIdealCertificate(cert.B, y1, cert.core_B)
    assert short.problems(L) == ["B + C is not the whole algebra"]


def test_weak_certificate_json_round_trip():
    L = almost_abelian(GF(3), 3).algebra
    cert = find_weak_c_witness(L, L.span([(1, 0, 0)]))
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc["kind"] == "weak-c-ideal"
    assert set(doc) == {"kind", "subalgebra", "witness", "chain", "core"}
    back = WeakCIdealCertificate.from_json(GF(3), 3, doc)
    assert back == cert
    assert back.problems(L) == []


def test_c_certificate_json_round_trip():
    L = heis(GF(2))
    cert = find_c_witness(L, L.span([(0, 1, 0)]))
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc["kind"] == "c-ideal"
    back = CIdealCertificate.from_json(GF(2), 3, doc)
    assert back == cert and back.problems(L) == []


# -- exhaustive searches ----------------------------------------------------


def test_search_is_canonical_and_deterministic():
    outs = []
    for _ in range(2):
        L = heis(GF(3))
        docs = [
            find_weak_c_witness(L, S).to_json()
            if find_weak_c_witness(L, S)
            else None
            for S in subalgebras(L)
        ]
        outs.append(json.dumps(docs))
    assert outs[0] == outs[1]


def brute_is_ideal(L, S):
    return all(L.bracket(x, s) in S for x in L.full_space().vecs for s in S.vecs)


@pytest.mark.parametrize(
    "built",
    [
        heisenberg(GF(3)),
        almost_abelian(GF(2), 3),
        sl2(GF(3)),
        BuiltAlgebra(
            direct_sum(abelian(GF(2), 1).algebra, two_dim_nonabelian(GF(2)).algebra)
        ),
        # 67^2 > MASK_LIMIT: the lattice tests run on the Subspace operators
        two_dim_nonabelian(GF(67)),
    ],
    ids=["heis3", "almost2", "sl2-3", "ab1+nonab2", "nonab2-67"],
)
def test_searches_return_the_first_witness_by_definition(built):
    # each search returns the first C in subalgebras(L) order that meets the
    # definition, with the core and the subideal test done by brute force
    L = built.algebra
    full = L.full_space()
    subs = subalgebras(L)
    memo = {}
    for B in subs:
        core_B = brute_core(L, B)
        splits = [C for C in subs if B + C == full and (B & C) <= core_B]
        weak = next((C for C in splits if brute_subideal(L, C, memo)), None)
        c = next((C for C in splits if brute_is_ideal(L, C)), None)
        found = find_weak_c_witness(L, B)
        assert (None if found is None else found.C) == weak, B.basis_strings()
        found = find_c_witness(L, B)
        assert (None if found is None else found.C) == c, B.basis_strings()


def test_full_subalgebra_gets_the_zero_witness():
    L = heis(GF(2))
    cert = find_weak_c_witness(L, L.full_space())
    assert cert.C.is_zero()
    assert cert.chain.terms == (L.zero_space(), L.full_space())


def test_simple_algebra_admits_only_trivial_weak_c_ideals():
    L = sl2(GF(3)).algebra
    for S in subalgebras(L):
        expected = S.is_zero() or S.is_full()
        assert is_weak_c_ideal(L, S) == expected


def test_every_ideal_is_a_c_ideal_and_weak_c_ideal():
    L = heis(GF(2))
    for I in ideals_of(L):
        assert find_c_witness(L, I) is not None
        assert is_weak_c_ideal(L, I)


def test_search_caches_results():
    L = heis(GF(2))
    B = L.span([(1, 0, 0)])
    assert find_weak_c_witness(L, B) is find_weak_c_witness(L, B)
    assert find_c_witness(L, B) is find_c_witness(L, B)


def test_search_requires_a_subalgebra():
    L = heis(GF(2))
    plane = L.span([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(NotASubalgebraError):
        find_weak_c_witness(L, plane)
    with pytest.raises(NotASubalgebraError):
        find_c_witness(L, plane)
    with pytest.raises(NotASubalgebraError):
        subideal_complement_mod_core(L, plane)


@pytest.mark.parametrize(
    "built",
    [heisenberg(GF(2)), almost_abelian(GF(3), 3), sl2(GF(3))],
    ids=["heis2", "almost3", "sl2-3"],
)
def test_complement_mod_core_matches_witness_search(built):
    L = built.algebra
    for B in subalgebras(L):
        K = subideal_complement_mod_core(L, B)
        cert = find_weak_c_witness(L, B)
        assert (K is None) == (cert is None)
        if K is not None:
            core_B = core(L, B)
            assert core_B <= K
            assert B + K == L.full_space()
            assert (B & K) <= core_B
            chain = subideal_chain(L, K)
            assert chain is not None
            assert WeakCIdealCertificate(B, K, chain, core_B).problems(L) == []


# -- series containment -----------------------------------------------------


def test_min_power_in_examples():
    L = heis(GF(3))
    assert L.series(DERIVED).min_index_inside(L.center()) == 2
    assert L.series(LOWER_CENTRAL).min_index_inside(L.zero_space()) == 3
    N = two_dim_nonabelian(QQ).algebra
    assert N.series(LOWER_CENTRAL).min_index_inside(N.span([(0, 1)])) == 2
    assert N.series(LOWER_CENTRAL).min_index_inside(N.zero_space()) is None
    S = sl2(GF(2)).algebra
    assert S.series(DERIVED).min_index_inside(S.full_space()) == 1
    assert S.series(DERIVED).min_index_inside(S.zero_space()) is None


# -- the lattice index: mask tests against the Subspace operators -----------


def _mask_members():
    small = [
        pytest.param(m.built, id=m.member_id)
        for m in default_corpus()
        if m.built.algebra.dim <= 4
    ]
    big = direct_sum(heisenberg(GF(2)).algebra, two_dim_nonabelian(GF(2)).algebra)
    return small + [pytest.param(BuiltAlgebra(big), id="heis+nonab2-gf2")]


@pytest.mark.parametrize("built", _mask_members())
def test_lattice_mask_tests_match_the_subspace_operators(built):
    L = built.algebra
    q, n = L.field.characteristic(), L.dim
    assert q**n <= MASK_LIMIT
    lat = lattice(L)
    subs = lat.subalgebras
    full = L.full_space()
    masks = [element_mask(S) for S in subs]
    for B, m_B in zip(subs, masks):
        core_B = core(L, B)
        outside_core = ~element_mask(core_B)
        complements = []
        for C, m_C in zip(subs, masks):
            spans = B + C == full
            meet_in_core = (B & C) <= core_B
            assert ((m_B & m_C).bit_count() == q ** (B.dim + C.dim - n)) == spans
            assert (not m_B & m_C & outside_core) == meet_in_core
            assert (not m_B & ~m_C) == (B <= C)
            if spans and meet_in_core:
                complements.append(C)
        assert list(lat.complements(B, core_B)) == complements
        assert lat.containing(B) == [C for C in subs if B <= C]
        assert lat.inside(B) == [C for C in subs if C <= B]
    proper = subs[:-1]
    assert lat.maximal(proper) == [
        S for S in proper if not any(S.dim < T.dim and S <= T for T in proper)
    ]


def test_lattice_masks_stop_at_the_gate():
    # 61^2 <= MASK_LIMIT < 67^2
    assert lattice(two_dim_nonabelian(GF(61)).algebra)._masked
    assert not lattice(two_dim_nonabelian(GF(67)).algebra)._masked
