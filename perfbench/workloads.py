"""The benchmark's three workloads.

Each is a closed loop with one client in one single-threaded process: the
next cell or query starts when the previous one has returned.  A workload
has ``setup(seed)``, which generates its inputs (the part timed as set-up),
and ``run_pass(tracer)``, which runs the whole seeded input once on fresh
objects, so that no cache carries over from one pass to the next, and
judges every output.  Given a tracer, the pass runs every cell or query
twice, back to back, once untraced and once traced (``Tracer.pair``), and
the two answers must agree.
"""

import contextlib
import hashlib
import io
import json
import resource
import traceback
from pathlib import Path
from time import perf_counter

import lieideals.cli as cli
import lieideals.verify as verify

import gen

EXPECTED = Path(__file__).resolve().parent / "expected"


def cpu_now():
    """CPU seconds of this process and its children, user plus system."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def load_expected(name):
    with open(EXPECTED / name, encoding="utf-8") as fh:
        return json.load(fh)


def row_digest(row):
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


class PassResult:
    def __init__(self, wall, cpu, items, failed, traced=None):
        self.wall = wall      # seconds for the whole pass (traced: untraced calls)
        self.cpu = cpu
        self.items = items    # [(class, seconds)], one per cell or query, untraced
        self.failed = failed  # items whose output was wrong or that raised
        self.traced = traced  # seconds of the traced calls, in a traced pass
        self.attempted = len(items) * (1 if traced is None else 2)


class SuiteWorkload:
    """``run_suite`` over seeded members, as ``lieideals verify`` runs it.
    One item per (member, check) cell.

    Every cell's status must match the statuses recorded at the commit that
    defined the benchmark: statuses do not depend on the basis.  Where the
    recorded rows are byte-exact for the seed (seed 0 of verify-corpus, the
    identity basis), each row and the whole report hash must match too.
    """

    def __init__(self, build, expected_file, members=None):
        self.build = build
        self.expected = load_expected(expected_file)
        self.members = members  # restricts the member list (used by tests)

    def setup(self, seed, work_dir):
        self.seed = seed
        self._members()

    def _members(self):
        members = self.build(self.seed)
        if self.members is not None:
            members = [m for m in members if m.member_id in self.members]
        return members

    def run_pass(self, tracer=None):
        members = self._members()
        # In a traced pass each traced call runs on a twin member built from
        # the same seed, which has seen the same cells and so holds the same
        # caches.
        twins = None if tracer is None else {m.member_id: m for m in self._members()}
        cells, traced = [], []
        mismatched = 0
        run_check = verify.run_check

        def timed(check_id, member):
            nonlocal mismatched
            if tracer is None:
                t0 = perf_counter()
                result = run_check(check_id, member)
                cells.append(("cell", perf_counter() - t0))
                return result
            tracer.item = f"{member.member_id}/{check_id}"
            (result, d), (twin_result, td) = tracer.pair(
                len(cells), lambda: run_check(check_id, member),
                lambda: tracer.run_check(check_id, twins[member.member_id]))
            cells.append(("cell", d))
            traced.append(td)
            mismatched += twin_result.to_json() != result.to_json()
            return result

        verify.run_check = timed
        c0, t0 = cpu_now(), perf_counter()
        try:
            report = verify.run_suite(members)
        except Exception:
            traceback.print_exc()
            report = None
        finally:
            wall, cpu = perf_counter() - t0, cpu_now() - c0
            verify.run_check = run_check
        traced_s = None
        if tracer is not None:
            wall, traced_s = sum(d for _, d in cells), sum(traced)
        expected_cells = len(members) * len(verify.ALL_CHECK_IDS)
        if report is None:
            return PassResult(wall, cpu, cells, max(expected_cells, len(cells)), traced_s)
        failed = mismatched + self.judge(report, {m.member_id for m in members})
        return PassResult(wall, cpu, cells, failed, traced_s)

    def judge(self, report, member_ids):
        statuses = self.expected["statuses"]
        digests = self.expected.get("row_sha256") if self.seed == 0 else None
        want = {k for k in statuses if k.split("/", 1)[0] in member_ids}
        failed = 0
        seen = set()
        for r in report.results:
            key = f"{r.algebra}/{r.check_id}"
            seen.add(key)
            if statuses.get(key) != r.status:
                failed += 1
            elif digests is not None and digests.get(key) != row_digest(r.to_json()):
                failed += 1
        failed += len(want - seen)
        if digests is not None and member_ids >= set(k.split("/", 1)[0] for k in statuses):
            whole = hashlib.sha256(report.json_text().encode()).hexdigest()
            if whole != self.expected["sha256_seed0"] and failed == 0:
                failed = 1
        return failed

    def recheck_certificates(self):
        """Suite cells emit no certificates to re-verify."""
        return 0


def verify_corpus(**kw):
    return SuiteWorkload(gen.verify_corpus_members, "verify_corpus.json", **kw)


def lattice_ladder(**kw):
    return SuiteWorkload(gen.ladder_members, "lattice_ladder.json", **kw)


class QueryStream:
    """Independent ``lieideals check`` queries through ``cli.main``, each
    parsing a fresh document, so every query starts with cold caches.

    Outputs are judged on four points: exit code 0; `search` verdicts and
    cores equal to the recorded pool's answers moved to the query's basis;
    `recheck`/`recheck_q` verdicts equal to what the generator built (valid
    or tampered); and, after the timed passes, every `yes` certificate a
    search emitted re-verifies on a fresh parse.  Outputs must also repeat
    byte for byte from pass to pass.
    """

    def __init__(self, per_class=144):
        self.per_class = per_class

    def setup(self, seed, work_dir):
        self.work_dir = work_dir
        pool = load_expected("query_pool.json")["algebras"]
        self.queries = gen.query_stream(seed, pool, self.per_class)
        self.argvs = gen.write_queries(self.queries, work_dir)
        self.first_outputs = None

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, tracer=None):
        items, outputs, traced = [], [], []
        failed = 0
        c0, t0 = cpu_now(), perf_counter()
        for q, argv in zip(self.queries, self.argvs):
            s = perf_counter()
            try:
                if tracer is None:
                    code, text = self.call(argv)
                    d = perf_counter() - s
                else:
                    tracer.item = q.qid
                    ((code, text), d), (twin, td) = tracer.pair(
                        len(items), lambda: self.call(argv), lambda: self.call(argv))
                    traced.append(td)
                    failed += twin != (code, text)
            except Exception:
                traceback.print_exc()
                code, text, d = None, "", perf_counter() - s
            items.append((q.cls, d))
            outputs.append(text)
            failed += not (code == 0 and self.judge(q, text))
        wall, cpu = perf_counter() - t0, cpu_now() - c0
        traced_s = None
        if tracer is not None:
            wall, traced_s = sum(d for _, d in items), sum(traced)
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            failed += sum(a != b for a, b in zip(outputs, self.first_outputs))
        return PassResult(wall, cpu, items, failed, traced_s)

    @staticmethod
    def judge(q, text):
        try:
            payload = json.loads(text)
        except ValueError:
            return False
        if "core" in q.expect:
            ar = gen.Arith(q.expect["p"])
            rows = [[ar.parse(a) for a in row] for row in payload.get("core", [])]
            return gen.rref_rows(ar, rows) == q.expect["core"]
        return payload.get("verdict") == q.expect["verdict"]

    def recheck_certificates(self):
        """Re-verify every `yes` certificate the searches emitted by feeding
        it back through ``--witness`` on a fresh parse.  Returns failures."""
        failed = 0
        for q, argv, text in zip(self.queries, self.argvs, self.first_outputs):
            if q.cls != "search" or q.pred == "core":
                continue
            try:
                payload = json.loads(text)
            except ValueError:
                continue  # already counted by judge
            if payload.get("verdict") != "yes":
                continue
            witness = payload.get("chain" if q.pred == "subideal" else "certificate")
            path = self.work_dir / f"{q.qid}.emitted.json"
            path.write_text(json.dumps(witness), encoding="utf-8")
            code, out = self.call(argv + ["--witness", str(path)])
            try:
                ok = code == 0 and json.loads(out).get("verdict") == "yes"
            except ValueError:
                ok = False
            failed += not ok
        return failed


WORKLOADS = {
    "verify-corpus": verify_corpus,
    "lattice-ladder": lattice_ladder,
    "query-stream": QueryStream,
}
