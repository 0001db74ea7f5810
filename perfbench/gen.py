"""Seeded inputs for the benchmark.

Every function here is a pure function of its seed.  Scalars are plain ints
mod p (GF(p)) or Fractions (Q), and the arithmetic below is the benchmark's
own, so a change to the library's kernel cannot change the inputs it is
measured on.  Library objects are only built at the end, from the generated
tables, through the same public constructors a user would call.
"""

import json
import random
from fractions import Fraction

from lieideals import corpus
from lieideals.exactfield import GF, QQ
from lieideals.liecore import LieAlgebra
from lieideals.verify import CorpusMember, default_corpus

# ---------------------------------------------------------------------------
# exact scalar arithmetic and matrices (columns of P = new basis, old coords)
# ---------------------------------------------------------------------------


class Arith:
    """Scalars mod p for p > 0, Fractions for p == 0."""

    def __init__(self, p):
        self.p = p

    def norm(self, a):
        return a % self.p if self.p else Fraction(a)

    def inv(self, a):
        if self.p:
            return pow(a, self.p - 2, self.p)
        return 1 / Fraction(a)

    def fmt(self, a):
        return str(a) if self.p else f"{a.numerator}/{a.denominator}"

    def parse(self, text):
        return int(text) % self.p if self.p else Fraction(text)


def arith_of(field):
    return Arith(getattr(field, "p", 0))


def mat_vec(ar, M, v):
    return tuple(ar.norm(sum(a * b for a, b in zip(row, v))) for row in M)


def mat_inv(ar, M):
    """Gauss-Jordan inverse, or None when M is singular."""
    n = len(M)
    work = [[ar.norm(x) for x in row] + [ar.norm(int(i == j)) for j in range(n)]
            for i, row in enumerate(M)]
    for c in range(n):
        pr = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pr is None:
            return None
        work[c], work[pr] = work[pr], work[c]
        inv = ar.inv(work[c][c])
        work[c] = [ar.norm(inv * x) for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                k = work[r][c]
                work[r] = [ar.norm(x - k * y) for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


def rref_rows(ar, rows):
    """Canonical basis of the row space, for comparing subspaces."""
    work = [[ar.norm(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = ar.inv(work[r][c])
        work[r] = [ar.norm(inv * x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                k = work[i][c]
                work[i] = [ar.norm(x - k * y) for x, y in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


class Basis:
    """A change of basis: P's columns are the new basis vectors in old
    coordinates; ``to_new`` maps an old coordinate vector to new ones."""

    def __init__(self, ar, P, Pinv):
        self.ar, self.P, self.Pinv = ar, P, Pinv

    def to_new(self, v):
        return mat_vec(self.ar, self.Pinv, v)

    def rows_to_new(self, rows):
        return [self.to_new(v) for v in rows]


def identity_basis(ar, n):
    I = [[ar.norm(int(i == j)) for j in range(n)] for i in range(n)]
    return Basis(ar, I, I)


def monomial_basis(ar, n, rng):
    """New basis f_i = d_i e_{perm(i)}: keeps sparsity and lattice sizes,
    changes coordinates and canonical order."""
    perm = list(range(n))
    rng.shuffle(perm)
    scal = [ar.norm(rng.randrange(1, ar.p)) for _ in range(n)]
    P = [[ar.norm(0)] * n for _ in range(n)]
    Pinv = [[ar.norm(0)] * n for _ in range(n)]
    for i in range(n):
        P[perm[i]][i] = scal[i]
        Pinv[i][perm[i]] = ar.inv(scal[i])
    return Basis(ar, P, Pinv), perm


def dense_basis(ar, n, rng):
    """A uniformly random invertible matrix over GF(p); over Q, small
    integer entries in [-2, 2] so denominators stay modest."""
    while True:
        if ar.p:
            P = [[rng.randrange(ar.p) for _ in range(n)] for _ in range(n)]
        else:
            P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        Pinv = mat_inv(ar, P)
        if Pinv is not None:
            return Basis(ar, P, Pinv)


def algebra_table(L):
    """The structure constants {(i, j): [e_i, e_j]} for i < j, read through
    the public bracket accessor."""
    out = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            v = tuple(L.bracket_basis(i, j))
            if any(a != 0 for a in v):
                out[(i, j)] = v
    return out


def transform_table(ar, n, table, basis):
    """Structure constants in the new basis:
    [f_a, f_b] = sum_{i,j} P[i][a] P[j][b] [e_i, e_j], in new coordinates."""
    def c(i, j):
        if i < j:
            return table.get((i, j))
        v = table.get((j, i))
        return None if v is None else tuple(-x for x in v)

    P = basis.P
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = [0] * n
            for i in range(n):
                if P[i][a] == 0:
                    continue
                for j in range(n):
                    if P[j][b] == 0 or i == j:
                        continue
                    v = c(i, j)
                    if v is None:
                        continue
                    k = P[i][a] * P[j][b]
                    for t in range(n):
                        if v[t] != 0:
                            w[t] += k * v[t]
            w = basis.to_new(tuple(ar.norm(x) for x in w))
            if any(x != 0 for x in w):
                out[(a, b)] = w
    return out


def transform_built(built, basis, labels=None):
    """A BuiltAlgebra in the new basis, with its named subspaces and vectors
    mapped along; the table goes through the Jacobi check again."""
    L = built.algebra
    table = transform_table(basis.ar, L.dim, algebra_table(L), basis)
    L2 = LieAlgebra(L.field, L.dim, table, labels=labels or L.labels)
    return corpus.BuiltAlgebra(
        L2,
        subspaces={k: L2.span(basis.rows_to_new(S.rows)) for k, S in built.subspaces.items()},
        vectors={k: basis.to_new(v) for k, v in built.vectors.items()},
    )


def monomial_member(member, seed):
    """Seed 0 is the identity; seed s > 0 a seeded monomial change of basis,
    drawn per member so members do not share one permutation."""
    built = member.built
    L = built.algebra
    ar = arith_of(L.field)
    if seed == 0:
        basis, labels = identity_basis(ar, L.dim), None
    else:
        rng = random.Random(f"monomial/{seed}/{member.member_id}")
        basis, perm = monomial_basis(ar, L.dim, rng)
        labels = [L.labels[k] for k in perm]
    return CorpusMember(member.member_id, transform_built(built, basis, labels))


# ---------------------------------------------------------------------------
# workload inputs: verify-corpus and lattice-ladder
# ---------------------------------------------------------------------------


def verify_corpus_members(seed):
    return [monomial_member(m, seed) for m in default_corpus()]


def _sum(f, a, b):
    """The direct-sum preset, which keeps the two summands as subspaces."""
    return corpus.build("direct_sum", f, a, b)


# Five algebras outside the default corpus, largest lattice first.
LADDER = {
    "almostabelian5-gf2": lambda: corpus.almost_abelian(GF(2), 5),
    "almostabelian4-gf3": lambda: corpus.almost_abelian(GF(3), 4),
    "sum-heisenberg-nonabelian2-gf2": lambda: _sum(
        GF(2), corpus.heisenberg(GF(2)), corpus.two_dim_nonabelian(GF(2))),
    "sum-nonabelian2-nonabelian2-gf3": lambda: _sum(
        GF(3), corpus.two_dim_nonabelian(GF(3)), corpus.two_dim_nonabelian(GF(3))),
    "sum-sl2-abelian1-gf3": lambda: _sum(
        GF(3), corpus.sl2(GF(3)), corpus.abelian(GF(3), 1)),
}


def ladder_members(seed):
    return [monomial_member(CorpusMember(k, build()), seed) for k, build in LADDER.items()]


# ---------------------------------------------------------------------------
# workload inputs: query-stream
# ---------------------------------------------------------------------------

# Algebras behind the `search` and `recheck` classes (dims 3 to 6 over
# GF(2), GF(3), GF(5)); the recorded pool holds subalgebras of each in the
# preset basis with this commit's answers.
SEARCH_ALGEBRAS = {
    "heisenberg-gf2": lambda: corpus.heisenberg(GF(2)),
    "heisenberg-gf5": lambda: corpus.heisenberg(GF(5)),
    "sl2-gf3": lambda: corpus.sl2(GF(3)),
    "sl2-gf5": lambda: corpus.sl2(GF(5)),
    "almostabelian4-gf2": lambda: corpus.almost_abelian(GF(2), 4),
    "almostabelian4-gf3": lambda: corpus.almost_abelian(GF(3), 4),
    "sum-nonabelian2-nonabelian2-gf3": lambda: _sum(
        GF(3), corpus.two_dim_nonabelian(GF(3)), corpus.two_dim_nonabelian(GF(3))),
    "sum-heisenberg-nonabelian2-gf2": lambda: _sum(
        GF(2), corpus.heisenberg(GF(2)), corpus.two_dim_nonabelian(GF(2))),
    "almostabelian6-gf2": lambda: corpus.almost_abelian(GF(2), 6),
}

SEARCH_PREDICATES = ("weak-c-ideal", "c-ideal", "core", "subideal")


def _span_rows(n, idx):
    return [tuple(int(i == k) for i in range(n)) for k in idx]


def _q_templates():
    """Q algebras with certificates built by hand in the preset basis:
    [(built, [(predicate, subalgebra rows, witness document)])]."""
    def weak(B, C, chain, core):
        return {"kind": "weak-c-ideal", "subalgebra": B, "witness": C,
                "chain": chain, "core": core}

    def cid(B, C, core):
        return {"kind": "c-ideal", "subalgebra": B, "witness": C, "core": core}

    out = []
    # Heisenberg [e1, e2] = e3: <e2, e3> is an ideal complementing <e1>,
    # and <e1> < <e1, e3> < L is a subideal chain.
    n = 3
    full = _span_rows(n, range(n))
    x, yz, xz = _span_rows(n, [0]), _span_rows(n, [1, 2]), _span_rows(n, [0, 2])
    out.append((corpus.heisenberg(QQ), [
        ("c-ideal", x, cid(x, yz, [])),
        ("weak-c-ideal", x, weak(x, yz, [yz, full], [])),
        ("subideal", x, [x, xz, full]),
    ]))
    # almost_abelian(4): x acts as the identity on the ideal Y = <y1..y3>.
    n = 4
    full = _span_rows(n, range(n))
    x, Y, y1 = _span_rows(n, [0]), _span_rows(n, [1, 2, 3]), _span_rows(n, [1])
    xy1 = _span_rows(n, [0, 1])
    out.append((corpus.almost_abelian(QQ, 4), [
        ("c-ideal", x, cid(x, Y, [])),
        ("weak-c-ideal", xy1, weak(xy1, Y, [Y, full], y1)),
        ("subideal", y1, [y1, full]),
    ]))
    # Direct sums: each summand is an ideal complementing the other.
    for built in (
        _sum(QQ, corpus.heisenberg(QQ), corpus.two_dim_nonabelian(QQ)),
        _sum(QQ, corpus.sl2(QQ), corpus.abelian(QQ, 1)),
    ):
        n = built.algebra.dim
        d1 = built.subspaces["summand1"].dim
        full = _span_rows(n, range(n))
        s1, s2 = _span_rows(n, range(d1)), _span_rows(n, range(d1, n))
        out.append((built, [
            ("c-ideal", s1, cid(s1, s2, s1)),
            ("weak-c-ideal", s2, weak(s2, s1, [s1, full], s2)),
            ("subideal", s2, [s2, full]),
        ]))
    return out


def _map_rows(basis, rows):
    return [[basis.ar.fmt(a) for a in v] for v in basis.rows_to_new(rows)]


def map_witness(basis, pred, doc):
    """A witness document with every subspace moved to the new basis."""
    if pred == "subideal":
        return [_map_rows(basis, t) for t in doc]
    out = {"kind": doc["kind"]}
    for key in ("subalgebra", "witness", "core"):
        out[key] = _map_rows(basis, doc[key])
    if "chain" in doc:
        out["chain"] = [_map_rows(basis, t) for t in doc["chain"]]
    return out


def tamper(pred, doc, n, ar):
    """Break a valid witness so that it must be rejected, keeping it well
    formed.

    A subideal chain, or a weak c-ideal chain of two or more terms, loses
    its last term (L itself, where a chain must end).  Otherwise the
    certificate claims the whole algebra as the core of B, which is never
    contained in B: the pool and the templates never have B = L.
    """
    if pred == "subideal":
        return doc[:-1]
    out = dict(doc)
    if pred == "weak-c-ideal" and len(doc["chain"]) > 1:
        out["chain"] = doc["chain"][:-1]
    else:
        out["core"] = [[ar.fmt(ar.norm(int(i == j))) for j in range(n)] for i in range(n)]
    return out


def render_document(ar, field_name, n, table, subspaces):
    """The algebra in the CLI's document language, basis e1..en."""
    labels = [f"e{i + 1}" for i in range(n)]

    def combo(vec):
        terms = [(c < 0, labels[i] if abs(c) == 1 else f"{ar.fmt(abs(c))}*{labels[i]}")
                 for i, c in enumerate(vec) if c != 0]
        if not terms:
            return "0"
        text = ("-" if terms[0][0] else "") + terms[0][1]
        for neg, term in terms[1:]:
            text += f" {'-' if neg else '+'} {term}"
        return text

    lines = [f"field {field_name}", f"dim {n}", "basis " + " ".join(labels)]
    for (i, j), v in sorted(table.items()):
        lines.append(f"[{labels[i]},{labels[j]}] = {combo(v)}")
    for name, rows in subspaces.items():
        lines.append(f"subspace {name} = span({', '.join(combo(r) for r in rows)})")
    return "\n".join(lines) + "\n"


class Query:
    """One `lieideals check` call and the answer it must produce."""

    def __init__(self, qid, cls, pred, doc_text, witness, expect):
        self.qid, self.cls, self.pred = qid, cls, pred
        self.doc_text, self.witness, self.expect = doc_text, witness, expect

    def argv(self, doc_path, witness_path):
        out = ["check", doc_path, "--predicate", self.pred, "--subspace", "B"]
        if witness_path is not None:
            out += ["--witness", witness_path]
        return out


def _document_for(built, basis, B_rows):
    L = built.algebra
    ar = basis.ar
    table = transform_table(ar, L.dim, algebra_table(L), basis)
    return render_document(ar, repr(L.field), L.dim, table, {"B": basis.rows_to_new(B_rows)})


def _balanced(rng, cells, count):
    """``count`` draws cycling through ``cells`` in seeded order, so every
    seed gets the same mix of algebras and predicates."""
    out = []
    while len(out) < count:
        block = list(cells)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _tamper_flags(rng, count):
    flags = [k < count // 3 for k in range(count)]
    rng.shuffle(flags)
    return flags


def query_stream(seed, pool, per_class=144):
    """The seeded query list, all classes shuffled together.

    `search` asks about every pool entry once, entry k with predicate
    k mod 4, so the seed changes only bases and order and the cost of the
    search mix does not swing with the seed.  `recheck` and `recheck_q`
    have ``per_class`` queries each, with a balanced (algebra, predicate)
    mix and exactly a third of the witnesses tampered; the seed picks the
    entries, the bases and the order.

    Each query carries its own dense basis, so no two share a document.
    Expected answers come from the recorded pool (GF(p)) or from the
    hand-built certificates (Q), moved to the query's basis.
    """
    rng = random.Random(f"query-stream/{seed}")
    presets = {k: SEARCH_ALGEBRAS[k]() for k in SEARCH_ALGEBRAS}
    names = sorted(presets)
    queries = []

    for name in names:
        for k, entry in enumerate(pool[name]):
            pred = SEARCH_PREDICATES[k % len(SEARCH_PREDICATES)]
            built = presets[name]
            basis = dense_basis(arith_of(built.algebra.field), built.algebra.dim, rng)
            if pred == "core":
                expect = {"core": rref_rows(basis.ar, basis.rows_to_new(entry["core"])),
                          "p": basis.ar.p}
            else:
                expect = {"verdict": "yes" if entry[pred] is not None else "no"}
            queries.append(Query(None, "search", pred,
                                 _document_for(built, basis, entry["B"]), None, expect))

    cells = [(name, pred) for name in names for pred in ("weak-c-ideal", "c-ideal", "subideal")
             if any(e[pred] is not None for e in pool[name])]
    picks = _balanced(rng, cells, per_class)
    for (name, pred), bad in zip(picks, _tamper_flags(rng, per_class)):
        entry = rng.choice([e for e in pool[name] if e[pred] is not None])
        built = presets[name]
        n = built.algebra.dim
        basis = dense_basis(arith_of(built.algebra.field), n, rng)
        witness = map_witness(basis, pred, entry[pred])
        if bad:
            witness = tamper(pred, witness, n, basis.ar)
        queries.append(Query(None, "recheck", pred, _document_for(built, basis, entry["B"]),
                             witness, {"verdict": "no" if bad else "yes"}))

    cells = [(built, cert) for built, certs in _q_templates() for cert in certs]
    picks = _balanced(rng, cells, per_class)
    for (built, (pred, B_rows, doc)), bad in zip(picks, _tamper_flags(rng, per_class)):
        n = built.algebra.dim
        basis = dense_basis(Arith(0), n, rng)
        witness = map_witness(basis, pred, doc)
        if bad:
            witness = tamper(pred, witness, n, basis.ar)
        queries.append(Query(None, "recheck_q", pred, _document_for(built, basis, B_rows),
                             witness, {"verdict": "no" if bad else "yes"}))

    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q.qid = f"q{i:04d}"
    return queries


def write_queries(queries, out_dir):
    """Write each query's document and witness file; returns argv lists."""
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for q in queries:
        doc_path = out_dir / f"{q.qid}.alg"
        doc_path.write_text(q.doc_text, encoding="utf-8")
        witness_path = None
        if q.witness is not None:
            witness_path = out_dir / f"{q.qid}.json"
            witness_path.write_text(json.dumps(q.witness, sort_keys=True), encoding="utf-8")
        argvs.append(q.argv(str(doc_path), None if witness_path is None else str(witness_path)))
    return argvs
