"""Regenerate the recorded answers in perfbench/expected/ from the current
library:

    python3 perfbench/record.py

- verify_corpus.json: the seed-0 (identity basis) report of the default
  corpus: its SHA-256, counts, every cell's status and a digest per row.
- lattice_ladder.json: every cell's status on the ladder algebras.
- query_pool.json: for each search algebra, a fixed sample of proper
  subalgebras in the preset basis with their weak c-ideal and c-ideal
  certificates, subideal chains and cores.

The answers are facts about the algebras, so they hold in every basis the
workloads move them to.  Only rerun this when a change is meant to alter
them, and say so.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from lieideals.ideals import core, find_c_witness, find_weak_c_witness, subalgebras, subideal_chain  # noqa: E402
from lieideals.verify import run_suite  # noqa: E402

import gen  # noqa: E402
from workloads import row_digest  # noqa: E402

POOL_PER_ALGEBRA = 16


def suite_record(members):
    report = run_suite(members)
    rows = [r.to_json() for r in report.results]
    return {
        "sha256_seed0": hashlib.sha256(report.json_text().encode()).hexdigest(),
        "counts": dict(sorted(report.counts.items())),
        "statuses": {f"{r['algebra']}/{r['check']}": r["status"] for r in rows},
        "row_sha256": {f"{r['algebra']}/{r['check']}": row_digest(r) for r in rows},
    }


def ints(rows):
    return [[int(a) for a in row] for row in rows]


def cert_doc(cert):
    if cert is None:
        return None
    doc = cert.to_json()
    for key in ("subalgebra", "witness", "core"):
        doc[key] = ints(doc[key])
    if "chain" in doc:
        doc["chain"] = [ints(t) for t in doc["chain"]]
    return doc


def pool_record():
    rng = random.Random("query-pool")
    out = {}
    for name, build in gen.SEARCH_ALGEBRAS.items():
        L = build().algebra
        proper = [S for S in subalgebras(L) if S.dim < L.dim]
        picks = sorted(rng.sample(range(len(proper)), min(POOL_PER_ALGEBRA, len(proper))))
        entries = []
        for k in picks:
            B = proper[k]
            chain = subideal_chain(L, B)
            entries.append({
                "B": ints(B.basis_strings()),
                "weak-c-ideal": cert_doc(find_weak_c_witness(L, B)),
                "c-ideal": cert_doc(find_c_witness(L, B)),
                "subideal": None if chain is None else [ints(t) for t in chain.to_json()],
                "core": ints(core(L, B).basis_strings()),
            })
        out[name] = entries
    return {"algebras": out}


def write(name, doc):
    path = HERE / "expected" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(HERE.parent)}")


def main():
    write("query_pool.json", pool_record())
    write("lattice_ladder.json", {"statuses": suite_record(gen.ladder_members(0))["statuses"]})
    write("verify_corpus.json", suite_record(gen.verify_corpus_members(0)))


if __name__ == "__main__":
    main()
