"""Document language round trips and the command front end.

End-to-end tests drive main() with the golden files under tests/data and
check the exit-code contract: 0 for verdicts (yes and no alike), 2 for
usage and parse problems, 3 for questions outside the artifact's reach.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import lieideals
from lieideals import linspace
from lieideals.cli import main
from lieideals.document import parse_document, render_document
from lieideals.errors import (
    DuplicateBracketError,
    JacobiError,
    ParseError,
    PresetError,
    UnknownLabelError,
)
from lieideals.exactfield import GF, QQ
from lieideals.verify import CheckResult, Report

DATA = Path(__file__).parent / "data"

HEIS_TEXT = (DATA / "heis.alg").read_text()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ----------------------------------------------------------------


def test_parse_explicit_document():
    built = parse_document(HEIS_TEXT)
    L = built.algebra
    assert L.dim == 3 and L.field == GF(2)
    assert L.labels == ("e1", "e2", "e3")
    assert L.bracket_basis(0, 1) == (0, 0, 1)
    assert set(built.subspaces) == {"Z", "P", "W", "N"}
    assert built.subspaces["Z"] == L.span([(0, 0, 1)])
    assert built.subspaces["N"].dim == 2


def test_parse_defaults_and_reversed_brackets():
    built = parse_document("field GF(3)\ndim 2\n[e2,e1] = e2\n")
    L = built.algebra
    assert L.labels == ("e1", "e2")
    # [e1,e2] = -[e2,e1] = -e2 = 2 e2 over GF(3)
    assert L.bracket_basis(0, 1) == (0, 2)


def test_parse_scalars_reduce_into_the_field():
    built = parse_document(
        "field GF(5)\ndim 2\nbasis a b\n[a,b] = 7*b - a\n"
    )
    assert built.algebra.bracket_basis(0, 1) == (4, 2)


def test_parse_rational_scalars():
    built = parse_document(
        "field Q\ndim 2\nbasis x y\n[x,y] = 1/2*y\n"
        "subspace S = span(-3/4*x + y)\n"
    )
    L = built.algebra
    assert L.bracket_basis(0, 1) == (0, Fraction(1, 2))
    assert built.subspaces["S"] == L.span([(Fraction(-3, 4), 1)])


def test_parse_zero_rhs_comments_and_empty_span():
    built = parse_document(
        "# leading comment\n"
        "field GF(2)\n\n"
        "dim 2\n"
        "[e1,e2] = 0   # no bracket after all\n"
        "subspace Z = span()\n"
    )
    L = built.algebra
    assert L.product_space(L.full_space(), L.full_space()).is_zero()
    assert built.subspaces["Z"].is_zero()


def test_parse_structural_errors():
    with pytest.raises(ParseError, match="missing field line"):
        parse_document("dim 2\n")
    with pytest.raises(ParseError, match="missing dim line"):
        parse_document("field GF(2)\n")
    with pytest.raises(ParseError, match="duplicate field line"):
        parse_document("field GF(2)\nfield GF(3)\ndim 1\n")
    with pytest.raises(ParseError, match="declares 2 labels for dim 3"):
        parse_document("field GF(2)\ndim 3\nbasis a b\n")
    with pytest.raises(ParseError, match="duplicate basis label"):
        parse_document("field GF(2)\ndim 2\nbasis a a\n")
    with pytest.raises(ParseError, match="bad label"):
        parse_document("field GF(2)\ndim 2\nbasis a 2b\n")
    with pytest.raises(ParseError, match="unrecognized statement"):
        parse_document("field GF(2)\ndim 1\nfoo bar\n")
    with pytest.raises(ParseError, match="malformed bracket line"):
        parse_document("field GF(2)\ndim 2\n[e1 e2] = e1\n")


def test_parse_bracket_semantics_errors():
    with pytest.raises(ParseError, match="antisymmetry"):
        parse_document("field GF(2)\ndim 2\n[e1,e1] = e2\n")
    # a zero diagonal bracket is redundant but lawful
    parse_document("field GF(2)\ndim 2\n[e1,e1] = 0\n")
    with pytest.raises(DuplicateBracketError):
        parse_document(
            "field GF(2)\ndim 3\n[e1,e2] = e3\n[e2,e1] = e3\n"
        )
    exc = None
    try:
        parse_document("field GF(2)\ndim 2\n[e1,e9] = e2\n")
    except UnknownLabelError as e:
        exc = e
    assert exc is not None and exc.line == 3
    with pytest.raises(UnknownLabelError):
        parse_document("field GF(2)\ndim 2\n[e1,e2] = zz\n")
    with pytest.raises(ParseError):
        parse_document("field GF(2)\ndim 2\n[e1,e2] = 1/2*e1\n")


def test_parse_surfaces_jacobi_failures():
    with pytest.raises(JacobiError) as exc:
        parse_document((DATA / "bad_jacobi.alg").read_text())
    assert exc.value.triple == (1, 2, 3)


def test_parsing_a_large_sparse_table_is_fast():
    # the Jacobi check visits only the triples that meet a table entry: 298
    # here, where all basis triples would be about 4.5 million
    t0 = time.perf_counter()
    built = parse_document("field GF(2)\ndim 300\n[e1,e2] = e3\n")
    assert time.perf_counter() - t0 < 5.0
    assert built.algebra.dim == 300


def test_nilpotency_of_a_large_sparse_table_is_fast():
    # all but two of the 90,300 basis brackets here are zero: bracket
    # returns them without building a vector, and rref drops them before
    # its pivot search
    L = parse_document("field GF(2)\ndim 300\n[e1,e2] = e3\n").algebra
    t0 = time.perf_counter()
    assert L.is_nilpotent()
    assert time.perf_counter() - t0 < 2.0


def test_parse_preset_documents():
    built = parse_document((DATA / "ex34.alg").read_text())
    assert built.algebra.dim == 10
    assert built.algebra.field == GF(3)
    assert set(built.subspaces) == {"A", "M", "Splus"}
    summed = parse_document((DATA / "sum.alg").read_text())
    assert summed.algebra.dim == 3
    assert summed.algebra.labels == ("e1_1", "x_2", "y_2")
    assert set(summed.subspaces) == {"summand1", "summand2"}


def test_parse_preset_errors():
    with pytest.raises(ParseError, match="needs a field line"):
        parse_document("preset heisenberg()\n")
    with pytest.raises(ParseError, match="cannot also declare"):
        parse_document("field GF(2)\npreset heisenberg()\ndim 3\n")
    with pytest.raises(ParseError, match="must be a call"):
        parse_document("field GF(2)\npreset 3\n")
    with pytest.raises(ParseError, match="trailing text"):
        parse_document("field GF(2)\npreset heisenberg() junk\n")
    with pytest.raises(ParseError, match="bad preset syntax"):
        parse_document("field GF(2)\npreset foo(@)\n")
    with pytest.raises(PresetError):
        parse_document("field GF(2)\npreset nope()\n")
    with pytest.raises(PresetError):
        parse_document("field Q\npreset example34(3)\n")


# -- rendering --------------------------------------------------------------


def test_render_exact_text():
    got = render_document(parse_document(HEIS_TEXT))
    assert got == (
        "field GF(2)\n"
        "dim 3\n"
        "basis e1 e2 e3\n"
        "[e1,e2] = e3\n"
        "subspace N = span(e1, e2)\n"
        "subspace P = span(e1, e3)\n"
        "subspace W = span(e1)\n"
        "subspace Z = span(e3)\n"
    )


@pytest.mark.parametrize(
    "name", ["heis.alg", "sl2q.alg", "ex34.alg", "sum.alg"]
)
def test_parse_render_round_trip(name):
    built = parse_document((DATA / name).read_text())
    back = parse_document(render_document(built))
    assert back.algebra.to_json() == built.algebra.to_json()
    assert back.algebra.labels == built.algebra.labels
    assert set(back.subspaces) == set(built.subspaces)
    for key, S in built.subspaces.items():
        assert back.subspaces[key] == S


def test_render_rational_scalars():
    built = parse_document(
        "field Q\ndim 2\nbasis x y\n[x,y] = 1/2*y\n"
    )
    assert "[x,y] = 1/2*y" in render_document(built)
    built = parse_document("field Q\ndim 2\nbasis x y\n[x,y] = 2*y\n")
    text = render_document(built)
    assert "[x,y] = 2*y" in text and "2/1" not in text


# -- check command ----------------------------------------------------------


def heis_path():
    return str(DATA / "heis.alg")


def test_check_weak_c_ideal_yes_with_certificate(capsys):
    code, out, err = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["certificate"]["kind"] == "weak-c-ideal"


def test_check_subideal_emits_chain(capsys):
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "subideal",
        "--subspace", "W",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert len(doc["chain"]) == 3


def test_check_ideal_and_core(capsys):
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "ideal", "--subspace", "N"
    )
    assert code == 0 and json.loads(out)["verdict"] == "no"
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "core", "--subspace", "W"
    )
    assert code == 0 and json.loads(out)["core"] == []
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "core", "--subspace", "Z"
    )
    assert json.loads(out)["core"] == [["0", "0", "1"]]


def test_check_restricted_flag_predicates(capsys):
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "nilpotent",
        "--subspace", "P",
    )
    assert code == 0 and json.loads(out)["verdict"] == "yes"
    code, _, err = run(
        capsys, "check", heis_path(), "--predicate", "nilpotent",
        "--subspace", "N",
    )
    assert code == 2 and "not a subalgebra" in err


def test_check_no_verdicts_still_exit_zero(capsys):
    code, out, _ = run(
        capsys, "check", str(DATA / "sl2q.alg"), "--predicate", "solvable"
    )
    assert code == 0 and json.loads(out)["verdict"] == "no"
    code, out, _ = run(
        capsys, "check", str(DATA / "sl2q.alg"), "--predicate", "supersolvable"
    )
    assert code == 0 and json.loads(out)["verdict"] == "no"


def test_check_unsupported_exits_three(capsys):
    code, out, _ = run(
        capsys, "check", str(DATA / "sl2q.alg"), "--predicate", "simple"
    )
    assert code == 3 and json.loads(out)["verdict"] == "unsupported"
    # witness searches cannot enumerate over Q
    code, out, _ = run(
        capsys, "check", str(DATA / "sl2q.alg"), "--predicate",
        "weak-c-ideal", "--subspace", "B",
    )
    assert code == 2  # no such subspace in the file
    code, out, _ = run(
        capsys, "check", str(DATA / "ex34.alg"), "--predicate",
        "weak-c-ideal", "--subspace", "M",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "unsupported" and "budget" in doc["reason"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--predicate", "c-ideal", "--subspace", "W"],
        ["check", "--predicate", "weak-c-ideal", "--subspace", "W"],
        ["lattice"],
    ],
    ids=["c-ideal", "weak-c-ideal", "lattice"],
)
def test_budget_reason_for_a_count_too_long_to_print(tmp_path, capsys, argv):
    # GF(2)^300 has a subspace count of 6,775 digits, past Python's default
    # integer-to-string limit
    alg = tmp_path / "d300.alg"
    alg.write_text("field GF(2)\ndim 300\n[e1,e2] = e3\nsubspace W = span(e1)\n")
    code, out, err = run(capsys, argv[0], str(alg), *argv[1:])
    assert code == 3 and "Traceback" not in err
    doc = json.loads(out)
    reason = doc["reason"] if "reason" in doc else doc["lattice"]["unsupported"]
    assert reason == "enumeration needs at least 10^6774 subspaces, budget is 1000000"


def test_check_rejects_a_negative_budget_before_any_question(capsys):
    # the answer must not depend on whether an enumeration gate is reached:
    # supersolvability of P never enumerates, the weak c-ideal search does
    heis = str(DATA / "heis.alg")
    for predicate, name in (("supersolvable", "P"), ("weak-c-ideal", "Z")):
        code, out, err = run(capsys, "check", heis, "--predicate", predicate,
                             "--subspace", name, "--budget", "-5")
        assert (code, out) == (2, "")
        assert err == "lieideals check: error: --budget must be at least 0, got -5\n"
    code, out, _ = run(capsys, "check", heis, "--predicate", "supersolvable",
                       "--subspace", "P", "--budget", "0")
    assert code == 0 and json.loads(out)["verdict"] == "yes"


def test_lattice_rejects_a_negative_budget(capsys):
    code, out, err = run(capsys, "lattice", str(DATA / "heis.alg"), "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "lieideals lattice: error: --budget must be at least 0, got -1\n"
    code, out, _ = run(capsys, "lattice", str(DATA / "heis.alg"), "--budget", "0")
    assert code == 3 and "unsupported" in json.loads(out)["lattice"]


def test_first_budget_refusal_on_a_large_algebra_is_fast(tmp_path, capsys):
    # the budget gate sums the Gaussian binomials of GF(2)^300 by their
    # ratio recurrence; rebuilding each binomial took about 0.7 s
    alg = tmp_path / "d300.alg"
    alg.write_text("field GF(2)\ndim 300\n[e1,e2] = e3\nsubspace W = span(e1)\n")
    linspace._subspace_total.cache_clear()
    t0 = time.perf_counter()
    code, _, _ = run(capsys, "check", str(alg), "--predicate", "c-ideal", "--subspace", "W")
    assert time.perf_counter() - t0 < 0.2
    assert code == 3


def test_a_rational_root_search_past_the_budget_is_unsupported(tmp_path, capsys):
    # the constant and leading coefficients of ad(e1)'s characteristic
    # polynomial each have 6,720 divisors: 90,316,800 candidate roots
    alg = tmp_path / "roots.alg"
    alg.write_text(
        "field Q\ndim 3\n[e1,e2] = 1/963761198400*e2 - 1*e3\n[e1,e3] = 1*e2\n"
    )
    code, out, _ = run(capsys, "check", str(alg), "--predicate", "supersolvable")
    assert code == 3
    assert json.loads(out) == {
        "predicate": "supersolvable",
        "verdict": "unsupported",
        "reason": "rational root search needs 90316800 candidates, budget is 1000000",
    }


def test_the_trial_division_of_a_root_search_is_bounded_by_the_budget(tmp_path, capsys):
    # ad(e1) has characteristic polynomial t (t^2 - 999999999989); factoring
    # the prime takes about 10^6 trial divisions, so a budget of 10 (divisor
    # cap 100) refuses where the default budget (cap 10^12) answers
    alg = tmp_path / "prime.alg"
    alg.write_text("field Q\ndim 3\n[e1,e2] = e3\n[e1,e3] = 999999999989*e2\n")
    code, out, _ = run(capsys, "check", str(alg), "--predicate", "supersolvable",
                       "--budget", "10")
    assert code == 3
    assert json.loads(out) == {
        "predicate": "supersolvable",
        "verdict": "unsupported",
        "reason": "rational root search needs the divisors of 999999999989, cap is 100",
    }
    code, out, _ = run(capsys, "check", str(alg), "--predicate", "supersolvable")
    assert code == 0 and json.loads(out)["verdict"] == "no"


def test_check_simple_over_q_names_the_reason(capsys):
    code, out, _ = run(
        capsys, "check", str(DATA / "sl2q.alg"), "--predicate", "simple"
    )
    doc = json.loads(out)
    assert code == 3 and doc["verdict"] == "unsupported"
    assert doc["reason"] == "subspace enumeration unsupported over infinite field Q"


def test_check_searches_over_q_reject_non_subalgebras_before_giving_up(
    tmp_path, capsys
):
    alg = tmp_path / "heisq.alg"
    alg.write_text(
        "field Q\ndim 3\n[e1,e2] = e3\n"
        "subspace P = span(e1, e2)\nsubspace Z = span(e3)\n"
    )
    for predicate in ("weak-c-ideal", "c-ideal"):
        code, out, err = run(
            capsys, "check", str(alg), "--predicate", predicate,
            "--subspace", "P",
        )
        assert code == 2 and out == "" and "needs a subalgebra" in err
        code, out, _ = run(
            capsys, "check", str(alg), "--predicate", predicate,
            "--subspace", "Z",
        )
        assert code == 3 and json.loads(out)["verdict"] == "unsupported"


def test_check_usage_errors(capsys):
    code, _, err = run(
        capsys, "check", heis_path(), "--predicate", "c-ideal"
    )
    assert code == 2 and "needs --subspace" in err
    code, _, err = run(
        capsys, "check", heis_path(), "--predicate", "ideal",
        "--subspace", "Missing",
    )
    assert code == 2 and "no subspace named" in err
    code, _, err = run(
        capsys, "check", str(DATA / "nope.alg"), "--predicate", "solvable"
    )
    assert code == 2
    code, _, err = run(
        capsys, "check", str(DATA / "bad_jacobi.alg"), "--predicate", "solvable"
    )
    assert code == 2
    assert "Jacobi identity fails at basis triple (1,2,3)" in err


def test_check_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "dup.alg"
    bad.write_text("field GF(2)\ndim 3\n[e1,e2] = e3\n[e2,e1] = e3\n")
    code, _, err = run(
        capsys, "check", str(bad), "--predicate", "solvable"
    )
    assert code == 2 and "defined twice" in err and "line 4" in err


def test_check_deeply_nested_preset_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.alg"
    deep.write_text("field GF(2)\n\npreset " + "direct_sum(" * 5000 + "\n")
    code, _, err = run(capsys, "check", str(deep), "--predicate", "solvable")
    assert code == 2 and "nesting exceeds" in err and "line 3" in err
    assert "Traceback" not in err


def test_check_deeply_nested_witness_is_a_bad_witness(tmp_path, capsys):
    wfile = tmp_path / "deep.json"
    wfile.write_text("[" * 100_000)
    code, out, err = run(
        capsys, "check", heis_path(), "--predicate", "subideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 2 and out == "" and "bad witness file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "--predicate", "nilpotent"],
    ["lattice"],
    ["series", "--kind", "derived"],
])
def test_a_document_that_is_not_utf8_is_an_input_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"field GF(2)\ndim 1\n\xff\xfe\n")
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 2 and out == ""
    assert err == "input is not UTF-8: invalid start byte at byte 18\n"


@pytest.mark.parametrize("argv", [
    ["check", "--predicate", "nilpotent"],
    ["lattice"],
    ["series", "--kind", "derived"],
])
def test_a_unicode_digit_is_not_a_dimension(tmp_path, capsys, argv):
    # "²".isdigit() is true, but int("²") raises
    doc = tmp_path / "sup.alg"
    doc.write_text("field GF(2)\ndim ²\n", encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(doc), *argv[1:])
    assert code == 2 and out == ""
    assert err == "line 2: dim takes one non-negative integer\n"


def test_a_huge_modulus_is_refused_without_trial_division(tmp_path, capsys):
    doc = tmp_path / "big.alg"
    doc.write_text("field GF(1" + "0" * 40 + "7)\ndim 1\n")
    code, _, err = run(capsys, "series", str(doc), "--kind", "derived")
    assert code == 2 and "exceeds supported cap 251" in err


# -- witness mode -----------------------------------------------------------


def test_witness_round_trip_and_tamper(tmp_path, capsys):
    _, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z",
    )
    cert = json.loads(out)["certificate"]
    wfile = tmp_path / "cert.json"
    wfile.write_text(json.dumps(cert))
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 0 and json.loads(out)["verdict"] == "yes"

    bad = dict(cert)
    bad["core"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    wfile.write_text(json.dumps(bad))
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no"
    assert any("core" in p for p in doc["problems"])

    wfile.write_text(json.dumps(dict(cert, chain=[])))
    code, out, err = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["verdict"] == "no"
    assert "chain: chain is empty" in doc["problems"]


def test_tampered_c_ideal_witness_lists_every_problem(tmp_path, capsys):
    _, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "c-ideal",
        "--subspace", "W",
    )
    cert = json.loads(out)["certificate"]
    wfile = tmp_path / "cert.json"
    wfile.write_text(json.dumps(dict(cert, witness=[["0", "1", "0"]])))
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "c-ideal",
        "--subspace", "W", "--witness", str(wfile),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no"
    assert doc["problems"] == [
        "C is not an ideal of L",
        "B + C is not the whole algebra",
    ]


def test_witness_about_the_wrong_subspace(tmp_path, capsys):
    _, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "W",
    )
    cert = json.loads(out)["certificate"]
    wfile = tmp_path / "cert.json"
    wfile.write_text(json.dumps(cert))
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no"
    assert doc["problems"] == ["certificate is not about the named subspace"]


def test_subideal_witness_round_trip(tmp_path, capsys):
    _, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "subideal",
        "--subspace", "W",
    )
    chain = json.loads(out)["chain"]
    wfile = tmp_path / "chain.json"
    wfile.write_text(json.dumps(chain))
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "subideal",
        "--subspace", "W", "--witness", str(wfile),
    )
    assert code == 0 and json.loads(out)["verdict"] == "yes"
    wfile.write_text(json.dumps(chain[:-1]))  # drop the top of the chain
    code, out, _ = run(
        capsys, "check", heis_path(), "--predicate", "subideal",
        "--subspace", "W", "--witness", str(wfile),
    )
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "no" and doc["problems"]


def test_witness_verification_works_over_q(tmp_path, capsys):
    alg = tmp_path / "heisq.alg"
    alg.write_text(
        "field Q\ndim 3\n[e1,e2] = e3\nsubspace Z = span(e3)\n"
    )
    chain = [[["0", "0", "1"]], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]
    wfile = tmp_path / "chain.json"
    wfile.write_text(json.dumps(chain))
    code, out, _ = run(
        capsys, "check", str(alg), "--predicate", "subideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 0 and json.loads(out)["verdict"] == "yes"


HEIS3_TEXT = "field GF(3)\ndim 3\n[e1,e2] = e3\nsubspace Z = span(e3)\n"


@pytest.mark.parametrize("predicate, field", [
    ("subideal", None),
    ("weak-c-ideal", "subalgebra"),
    ("weak-c-ideal", "witness"),
    ("weak-c-ideal", "core"),
    ("weak-c-ideal", "chain"),
    ("c-ideal", "subalgebra"),
    ("c-ideal", "witness"),
    ("c-ideal", "core"),
])
def test_a_row_written_as_one_string_is_a_bad_witness(
    tmp_path, capsys, predicate, field
):
    # "001" must not read as the vector (0, 0, 1): a basis is a list of rows,
    # each a list of scalars
    alg = tmp_path / "heis3.alg"
    alg.write_text(HEIS3_TEXT)
    argv = ["check", str(alg), "--predicate", predicate, "--subspace", "Z"]
    _, out, _ = run(capsys, *argv)
    found = json.loads(out)
    flat = lambda rows: ["".join(row) for row in rows]
    if field is None:
        doc = [flat(term) for term in found["chain"]]
    else:
        cert = found["certificate"]
        if field == "chain":
            doc = dict(cert, chain=[flat(term) for term in cert["chain"]])
        else:
            doc = dict(cert, **{field: flat(cert[field])})
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--witness", str(wfile))
    assert code == 2 and out == ""
    assert err == "bad witness file: a basis must be a list of lists of scalars\n"


def test_witness_file_abuse(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text("not json at all")
    code, _, err = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 2 and "bad witness file" in err
    wfile.write_text(json.dumps({"kind": "weak-c-ideal"}))
    code, _, err = run(
        capsys, "check", heis_path(), "--predicate", "weak-c-ideal",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 2 and "bad witness file" in err
    wfile.write_text(json.dumps([]))
    code, _, err = run(
        capsys, "check", heis_path(), "--predicate", "nilpotent",
        "--subspace", "Z", "--witness", str(wfile),
    )
    assert code == 2 and "does not apply" in err


# -- lattice and series commands --------------------------------------------


def test_lattice_command(capsys):
    code, out, _ = run(capsys, "lattice", heis_path())
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["nilpotent"] == "true"
    assert doc["lattice"]["subalgebras_by_dim"]["1"] == 7
    code, out, _ = run(capsys, "lattice", str(DATA / "sl2q.alg"))
    assert code == 3
    assert "unsupported" in json.loads(out)["lattice"]


def test_series_command(capsys):
    code, out, _ = run(
        capsys, "series", heis_path(), "--kind", "lower-central"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "lower-central"
    assert doc["reaches_zero"] is True
    assert len(doc["terms"]) == 3
    code, out, _ = run(
        capsys, "series", str(DATA / "sl2q.alg"), "--kind", "derived"
    )
    doc = json.loads(out)
    assert doc["reaches_zero"] is False and len(doc["terms"]) == 2
    code, _, _ = run(capsys, "series", heis_path(), "--kind", "upper")
    assert code == 2


# -- verify command plumbing ------------------------------------------------


def _fake_report(status):
    return Report([CheckResult("lemma-0.0", "fake", status, 1, {})])


def test_verify_formats_and_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(
        "lieideals.cli.run_suite", lambda: _fake_report("pass")
    )
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {"pass": 1}
    code, out, _ = run(capsys, "verify")
    assert code == 0 and "total=1" in out
    monkeypatch.setattr(
        "lieideals.cli.run_suite", lambda: _fake_report("fail")
    )
    code, _, _ = run(capsys, "verify", "--json")
    assert code == 1


def test_argparse_surface(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["check", heis_path(), "--predicate", "bogus"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs():
    # the child imports the same copy of the package as this process, also
    # from a checkout that is not installed
    src = str(Path(lieideals.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "lieideals.cli",
            "check",
            heis_path(),
            "--predicate",
            "nilpotent",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "yes"
    # the package does not import the entry module, so runpy has no
    # RuntimeWarning to print
    assert proc.stderr == ""


def test_main_called_again_in_one_process_answers_as_a_fresh_process(capsys, monkeypatch):
    # the parser is built once per process: a usage error, a valid check and
    # the same usage error, run in turn here, each give the exit code and
    # output of a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(lieideals.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    usage_error = ["check", heis_path(), "--predicate", "bogus"]
    valid = ["check", heis_path(), "--predicate", "nilpotent"]
    for argv in (usage_error, valid, usage_error):
        proc = subprocess.run(
            [sys.executable, "-m", "lieideals.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)
    code, out, err = run(capsys, *usage_error)
    assert (code, out) == (2, "") and err.startswith("usage: lieideals check")
