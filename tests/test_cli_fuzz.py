"""Fuzzing the readers: ``cli.main`` over small malformed algebra documents
and ``--witness`` files.

Whatever the bytes, the front end ends in its exit-code contract (0 for a
verdict, 2 for a usage or input error, 3 for out of budget) and no
exception escapes.  A negative ``--budget`` is always a usage error.  Inputs stay short and every declared dimension is at
most 4, so no case allocates much or enumerates a large lattice.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from lieideals.cli import PREDICATES, main

LABELS = ["e1", "e2", "e3", "e4", "x", "y"]
HUGE = "9" * 5000  # past Python's integer-to-string limit
BIG = "1" + "0" * 40 + "7"

literals = st.sampled_from(["0", "1", "2", "-1", "1/2", "3/0", BIG, HUGE, "x"])
labels = st.sampled_from(LABELS)

field_lines = st.sampled_from([
    "field GF(2)", "field GF(3)", "field Q", "field GF(4)", "field GF(" + BIG + ")",
    "field GF(" + HUGE + ")", "field", "field GF(2", "field Q Q",
])
dim_lines = st.sampled_from(
    ["dim 0", "dim 1", "dim 2", "dim 3", "dim 4", "dim", "dim -1", "dim ²"]
)
basis_lines = st.lists(labels, max_size=5).map(lambda ls: " ".join(["basis"] + ls))
terms = st.tuples(literals, labels).map(lambda t: f"{t[0]}*{t[1]}") | labels
combos = st.lists(terms, min_size=1, max_size=3).map(" + ".join) | st.just("0")
bracket_lines = st.tuples(labels, labels, combos).map(lambda t: f"[{t[0]},{t[1]}] = {t[2]}")
subspace_lines = st.tuples(st.sampled_from(["S", "T", "9"]), st.lists(combos, max_size=3)).map(
    lambda t: f"subspace {t[0]} = span({', '.join(t[1])})"
)
# presets stay within dimension 4; no generated literal lands in their arguments
preset_lines = st.sampled_from([
    "preset heisenberg()", "preset sl2()", "preset abelian(3)", "preset almost_abelian(4)",
    "preset two_dim_nonabelian()", "preset direct_sum(abelian(1), heisenberg())",
    "preset nosuch(1)", "preset sl2(", "preset example34(2)",
])
lines = field_lines | dim_lines | basis_lines | bracket_lines | subspace_lines | preset_lines
# raw bytes to splice in: no digits, so no splice makes a number larger
noise = st.lists(
    st.integers(0, 255).filter(lambda b: not 48 <= b <= 57), max_size=4
).map(bytes)


@st.composite
def documents(draw):
    text = "\n".join(draw(st.lists(lines, max_size=6))) + "\n"
    data = text.encode()
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(noise) + data[at:]
    return data


def _certificate():
    return {
        "kind": "weak-c-ideal",
        "subalgebra": [["0", "0", "1"]],
        "witness": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "chain": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        "core": [["0", "0", "1"]],
    }


rows = st.lists(st.lists(literals, max_size=4), max_size=3)
values = rows | st.sampled_from([None, 7, "1", {}, [], [[]], [[[["0"]]]], {"a": 1}])


@st.composite
def witness_files(draw):
    doc = _certificate()
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        doc[key] = draw(values)
    if draw(st.booleans()):
        doc = draw(st.sampled_from([[], "x", 1, None, [doc]]))
    data = json.dumps(doc).encode()
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        data = draw(st.sampled_from([HUGE.encode(), b"\xff\xfe", b"[" * 3000, b""])) + data
    return data


budgets = st.sampled_from([[], ["--budget", "0"], ["--budget", "10"], ["--budget", "50"]]) | (
    st.integers(-60, -1).map(lambda b: ["--budget", str(b)]))
argvs = (
    st.tuples(
        st.just("check"),
        st.sampled_from(PREDICATES),
        st.sampled_from([[], ["--subspace", "S"], ["--subspace", "T"], ["--subspace", "Z"]]),
        budgets,
    ).map(lambda t: [t[0], "--predicate", t[1]] + t[2] + t[3])
    | budgets.map(lambda b: ["lattice"] + b)
    | st.sampled_from([["series", "--kind", "derived"], ["series", "--kind", "lower-central"]])
)


def _negative_budget(argv):
    return "--budget" in argv and int(argv[argv.index("--budget") + 1]) < 0


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(data=documents(), argv=argvs)
@example(data=b"field GF(2)\ndim 1\n\xff\xfe\n", argv=["check", "--predicate", "nilpotent"])
@example(data=b"preset\n", argv=["lattice"])
@example(data="field GF(2)\ndim ²\n".encode(), argv=["check", "--predicate", "nilpotent"])
@example(data=b"field GF(2)\npreset heisenberg()\n", argv=["lattice", "--budget", "-1"])
def test_malformed_documents_end_in_an_exit_code(tmp_path_factory, data, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.alg"
    path.write_bytes(data)
    code = _run([argv[0], str(path), *argv[1:]])
    # a negative budget is a usage error, whether or not the document parses
    assert code == 2 if _negative_budget(argv) else code in {0, 2, 3}


HEIS = "field GF(2)\ndim 3\n[e1,e2] = e3\nsubspace Z = span(e3)\nsubspace W = span(e1)\n"


@FUZZ
@given(
    data=witness_files(),
    predicate=st.sampled_from(["weak-c-ideal", "c-ideal", "subideal", "nilpotent"]),
    name=st.sampled_from(["Z", "W"]),
)
@example(data=b'{"kind": "weak-c-ideal", "subalgebra": [["9', predicate="weak-c-ideal", name="Z")
def test_malformed_witness_files_end_in_an_exit_code(tmp_path_factory, data, predicate, name):
    base = tmp_path_factory.getbasetemp()
    (base / "heis.alg").write_text(HEIS)
    (base / "witness.json").write_bytes(data)
    code = _run([
        "check", str(base / "heis.alg"), "--predicate", predicate,
        "--subspace", name, "--witness", str(base / "witness.json"),
    ])
    assert code in {0, 2}
