"""Benchmark runner for lieideals.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run sets up the seeded input at least
``SETUP_MIN_REPS`` times and for at least ``SETUP_MIN_SECONDS``, then
repeats whole passes over it until ``--seconds`` would be exceeded (always
at least one pass) and reports the end-to-end metrics.  With ``--trace 1``
it sets up once and runs one pass in which every cell or query runs twice,
back to back, untraced and traced; it reports the per-layer metrics plus
the tracing overhead.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_MIN_REPS = 20
SETUP_MIN_SECONDS = 3.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lieideals, lieideals.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds():
    """Time to import the library in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def quantile(values, q):
    """Nearest-rank quantile (0 < q <= 1) of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q) - 1)]


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def select(metrics, wanted):
    """Exactly the metrics BENCHMARK.json names, with its units."""
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def end_to_end(setups, passes):
    """The bounded metrics, and the report lines that add the latencies of
    each query class where a workload has several (query-stream)."""
    import resource

    out = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = dict(out)
    items = [(c, d) for p in passes for c, d in p.items]
    classes = sorted({c for c, _ in items})
    for cls in classes if len(classes) > 1 else []:
        ds = [d for c, d in items if c == cls]
        report[f"{cls}_p50_ms"] = 1000 * statistics.median(ds)
        report[f"{cls}_p90_ms"] = 1000 * quantile(ds, 0.9)
    return out, report


def per_layer(tracer, counts, check_s, paired):
    import lieideals.verify as verify

    st = tracer.stats
    out = {}

    def put(name, *fields):
        s = st.get(name)
        for f in fields:
            out[f"{name}.{f}"] = 0 if s is None else {
                "calls": s.calls, "self_s": s.self_s, "yielded": s.extra}[f]

    def ratio(a, b):
        return a / b if b else 0.0

    put("structure.spin", "calls", "self_s")
    out["structure.spin.distinct_ratio"] = ratio(counts["spin_distinct"],
                                                 st["structure.spin"].calls)
    for name in ("minimal_ideals", "is_simple", "is_supersolvable", "maximal_subalgebras",
                 "nilpotent_subalgebras", "classify_one_dim_weak_c"):
        put(f"structure.{name}", "self_s")
    out["structure.minimal_ideals.wall_share"] = ratio(
        st["structure.minimal_ideals"].total_s, paired.traced)
    put("linspace.rref", "calls", "self_s")
    out["linspace.rref.cells"] = counts["rref_cells"]
    put("linspace.EchelonBasis.add", "calls", "self_s")
    put("linspace.Subspace.__and__", "calls", "self_s")
    put("linspace.enumerate_subspaces", "yielded", "self_s")
    put("linspace.projective_points", "yielded")
    put("liecore.LieAlgebra.bracket", "calls")
    for name in ("product_space", "restrict", "quotient"):
        put(f"liecore.LieAlgebra.{name}", "calls", "self_s")
    put("liecore.LieAlgebra.__init__", "self_s")
    for name in ("subalgebras", "core", "subideal_chain", "find_weak_c_witness",
                 "find_c_witness", "certificate.problems"):
        put(f"ideals.{name}", "calls", "self_s")
    weak = st["ideals.find_weak_c_witness"].calls
    out["ideals.find_weak_c_witness.found_ratio"] = ratio(counts["weak_found"], weak)
    out["ideals.find_weak_c_witness.repeat_ratio"] = ratio(counts["weak_repeat"], weak)
    out["ideals.find_c_witness.found_ratio"] = ratio(
        counts["c_found"], st["ideals.find_c_witness"].calls)
    put("ideals.subideal_complement_mod_core", "self_s")
    for cid in verify.ALL_CHECK_IDS:
        out[f"verify.{cid}.s"] = check_s.get(cid, 0.0)
    out["verify.unsupported"] = counts["unsupported"]
    put("cli.parse_document", "calls", "self_s")
    put("cli.main", "self_s")
    out["trace.wall_s"] = paired.traced
    out["trace.overhead_s"] = paired.traced - paired.wall
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lieideals" / "__init__.py").is_file():
        sys.stderr.write(f"no library sources under {SRC}; run from a full checkout\n")
        return 2
    bench = spec()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    work_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            import tracing

            wl.setup(args.seed, work_dir)
            tracer = tracing.Tracer()
            counts, check_s = tracing.install(tracer)
            try:
                passes = [wl.run_pass(tracer)]
            finally:
                tracer.unpatch()
            metrics = per_layer(tracer, counts, check_s, passes[0])
            tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            wanted = bench["per_layer"]
            report = dict(metrics)
        else:
            setups = []
            start = perf_counter()
            while len(setups) < SETUP_MIN_REPS or perf_counter() - start < SETUP_MIN_SECONDS:
                imp = import_seconds()
                t0 = perf_counter()
                wl.setup(args.seed, work_dir)
                setups.append(imp + perf_counter() - t0)
            passes = []
            start = perf_counter()
            while True:
                passes.append(wl.run_pass())
                elapsed = perf_counter() - start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            metrics, report = end_to_end(setups, passes)
            wanted = bench["end_to_end"]

        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes) + wl.recheck_certificates()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report["fail_frac"] = failed / max(attempted, 1)
    samples = collections.Counter(c for p in passes for c, _ in p.items)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} attempted={attempted} failed={failed} samples="
          + ",".join(f"{c}:{n}" for c, n in sorted(samples.items())))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in report.items():
        unit = units.get(name) or ("ms" if name.endswith("_ms") else "ratio")
        print(f"#   {name:<48} {value} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(metrics, wanted),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
