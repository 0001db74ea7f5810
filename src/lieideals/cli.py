"""Command-line front end.

Algebras are read from files in the document language of
:mod:`lieideals.document`.  Commands wrap the library predicates and the
verification suite; exit codes separate verdicts (0, whether yes or no)
from usage problems (2) and from questions the artifact cannot decide at
the given budget (3).
"""

import argparse
import functools
import json
import sys

from .document import parse_document
from .errors import (
    BudgetExceededError,
    EnumerationUnsupportedError,
    LieIdealsError,
)
from .ideals import (
    CIdealCertificate,
    SubidealChain,
    WeakCIdealCertificate,
    core,
    find_c_witness,
    find_weak_c_witness,
    subideal_chain,
)
from .liecore import DERIVED, LOWER_CENTRAL
from .linspace import DEFAULT_BUDGET
from .structure import is_simple, is_supersolvable, structure_report
from .verify import run_suite


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

PREDICATES = [
    "ideal",
    "subideal",
    "c-ideal",
    "weak-c-ideal",
    "core",
    "nilpotent",
    "solvable",
    "supersolvable",
    "simple",
]

_NEEDS_SUBSPACE = {"ideal", "subideal", "c-ideal", "weak-c-ideal", "core"}


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _verdict(flag):
    return "yes" if flag else "no"


def _load_built(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


# predicate -> (witness reader, attribute naming its subspace, mismatch message)
_WITNESS_READERS = {
    "subideal": (SubidealChain, "bottom", "chain does not start at the named subspace"),
    "weak-c-ideal": (
        WeakCIdealCertificate, "B", "certificate is not about the named subspace"
    ),
    "c-ideal": (CIdealCertificate, "B", "certificate is not about the named subspace"),
}


def _check_with_witness(L, S, predicate, witness_doc):
    if predicate not in _WITNESS_READERS:
        raise LieIdealsError(f"--witness does not apply to predicate {predicate}")
    reader, attr, mismatch = _WITNESS_READERS[predicate]
    witness = reader.from_json(L.field, L.dim, witness_doc)
    problems = witness.problems(L)
    if not problems and getattr(witness, attr) != S:
        problems = [mismatch]
    out = {"predicate": predicate, "verdict": _verdict(not problems)}
    if problems:
        out["problems"] = problems
    return out


def cmd_check(args):
    built = _load_built(args.file)
    L = built.algebra
    predicate = args.predicate
    S = None
    if args.subspace is not None:
        if args.subspace not in built.subspaces:
            sys.stderr.write(f"no subspace named {args.subspace!r} in the document\n")
            return 2
        S = built.subspaces[args.subspace]
    if predicate in _NEEDS_SUBSPACE and S is None:
        sys.stderr.write(f"predicate {predicate} needs --subspace\n")
        return 2

    if args.witness is not None:
        try:
            with open(args.witness, "r", encoding="utf-8") as fh:
                witness_doc = json.load(fh)
            payload = _check_with_witness(L, S, predicate, witness_doc)
        except (LieIdealsError, ValueError, KeyError, TypeError, RecursionError) as e:
            sys.stderr.write(f"bad witness file: {e}\n")
            return 2
        _emit(payload)
        return 0

    if S is not None and predicate not in _NEEDS_SUBSPACE and not L.is_subalgebra(S):
        sys.stderr.write("named subspace is not a subalgebra\n")
        return 2

    try:
        if predicate == "ideal":
            payload = {"predicate": predicate, "verdict": _verdict(L.is_ideal(S))}
        elif predicate == "subideal":
            chain = subideal_chain(L, S)
            payload = {"predicate": predicate, "verdict": _verdict(chain is not None)}
            if chain is not None:
                payload["chain"] = chain.to_json()
        elif predicate in ("weak-c-ideal", "c-ideal"):
            # looked up at call time, so a rebound module name is the one used
            find = find_weak_c_witness if predicate == "weak-c-ideal" else find_c_witness
            cert = find(L, S, budget=args.budget)
            payload = {"predicate": predicate, "verdict": _verdict(cert is not None)}
            if cert is not None:
                payload["certificate"] = cert.to_json()
        elif predicate == "core":
            payload = {"predicate": predicate, "core": core(L, S).basis_strings()}
        elif predicate == "nilpotent":
            payload = {"predicate": predicate, "verdict": _verdict(L.is_nilpotent(S))}
        elif predicate == "solvable":
            payload = {"predicate": predicate, "verdict": _verdict(L.is_solvable(S))}
        else:
            # supersolvable and simple search the subalgebra as an algebra
            decide = is_supersolvable if predicate == "supersolvable" else is_simple
            target = L if S is None else L.restrict(S)[0]
            payload = {
                "predicate": predicate,
                "verdict": _verdict(decide(target, budget=args.budget)),
            }
    except (BudgetExceededError, EnumerationUnsupportedError) as e:
        _emit({"predicate": predicate, "verdict": "unsupported", "reason": str(e)})
        return 3
    _emit(payload)
    return 0


def cmd_lattice(args):
    built = _load_built(args.file)
    report = structure_report(built.algebra, budget=args.budget)
    _emit(report)
    return 3 if "unsupported" in report.get("lattice", {}) else 0


def cmd_series(args):
    built = _load_built(args.file)
    rep = built.algebra.series(args.kind)
    _emit(
        {
            "kind": rep.kind,
            "reaches_zero": rep.reaches_zero,
            "terms": [t.basis_strings() for t in rep.terms],
        }
    )
    return 0


def cmd_verify(args):
    report = run_suite()
    sys.stdout.write(report.json_text() if args.json else report.text_table())
    return report.exit_code


class _Budget(argparse.Action):
    """``--budget N`` with N at least 0.  A negative budget is a usage
    error whatever the question, not a refusal that only the questions
    reaching a budget gate would give."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.exit(2, f"{parser.prog}: error: {option_string} must be at least 0, "
                           f"got {value}\n")
        setattr(namespace, self.dest, value)


@functools.cache
def _build_parser():
    """The command-line parser, built once: ``parse_args`` leaves it as it is."""
    p = argparse.ArgumentParser(
        prog="lieideals",
        description="exact predicates and witness searches for small Lie algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide a predicate for an algebra file")
    c.add_argument("file")
    c.add_argument("--predicate", required=True, choices=PREDICATES)
    c.add_argument("--subspace", default=None, metavar="NAME")
    c.add_argument("--witness", default=None, metavar="FILE")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET, action=_Budget)
    c.set_defaults(fn=cmd_check)

    lat = sub.add_parser("lattice", help="report flags and subalgebra lattice data")
    lat.add_argument("file")
    lat.add_argument("--budget", type=int, default=DEFAULT_BUDGET, action=_Budget)
    lat.set_defaults(fn=cmd_lattice)

    s = sub.add_parser("series", help="print a descending series")
    s.add_argument("file")
    s.add_argument("--kind", required=True, choices=[DERIVED, LOWER_CENTRAL])
    s.set_defaults(fn=cmd_series)

    v = sub.add_parser("verify", help="run the suite of recorded checks")
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except UnicodeDecodeError as e:
        sys.stderr.write(f"input is not UTF-8: {e.reason} at byte {e.start}\n")
        return 2
    except (OSError, LieIdealsError) as e:
        sys.stderr.write(str(e) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
