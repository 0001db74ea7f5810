"""Outside-in tracing: wrap the library's public functions and methods,
count calls and self time, and record spans at the coarse boundaries.

Nothing inside the library changes.  A function is replaced in every
``lieideals`` module that holds it (``from .linspace import rref`` binds the
name in the importing module too), and a method on its class.  Self time is
a call's duration minus the time spent in wrapped callees.  Hot boundaries
get counters only; coarse ones also get a span (id, name, start, end,
parent span, item) kept in memory and written out by ``write_spans``.

``install`` prepares the wrappers without applying them; ``pair`` applies
them around one traced call, run back to back with the same call untraced,
so that the difference between the two measures the tracing overhead.
"""

import gzip
import json
import sys
from time import perf_counter
import weakref


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.item = None          # id of the cell or query being run
        self._stack = [[0.0]]     # child-time accumulators, root sentinel
        self._span_stack = [0]
        self._next_span = 1
        self._patches = []        # (owner, attr, original, wrapper)
        self.run_check = None     # traced verify.run_check, set by install()
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = 1

    def stat(self, name):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def serial(self, obj):
        """An id for an object (an algebra) that no other object ever gets,
        unlike ``id()``, which is reused once the object is freed."""
        s = self._serials.get(obj)
        if s is None:
            s = self._serials[obj] = self._next_serial
            self._next_serial += 1
        return s

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name, fn, span=False, after=None):
        """Timed stand-in for fn.  ``after(args, result, duration)`` runs
        outside the timed interval."""
        stat = self.stat(name)
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            if span:
                sid = tracer._next_span
                tracer._next_span = sid + 1
                parent = span_stack[-1]
                span_stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                stat.calls += 1
                stat.self_s += d - child[0]
                stat.total_s += d
                if span:
                    span_stack.pop()
                    spans.append((sid, name, t0, t1, parent, tracer.item))
            if after is not None:
                after(args, result, d)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn):
        """Stand-in for a generator function: each step is timed as self
        time, and ``extra`` counts the items yielded."""
        stat = self.stat(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    child = [0.0]
                    stack.append(child)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        d = perf_counter() - t0
                        stack.pop()
                        stack[-1][0] += d
                        stat.self_s += d - child[0]
                        stat.total_s += d
                    stat.extra += 1
                    yield item

            return steps()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def patch_function(self, module, attr, name, generator=False, **kw):
        """Prepare to replace ``module.attr`` in every loaded lieideals module
        bound to it."""
        orig = getattr(sys.modules[module], attr)
        w = self.wrap_generator(name, orig) if generator else self.wrap(name, orig, **kw)
        for mname, mod in list(sys.modules.items()):
            if (mname == "lieideals" or mname.startswith("lieideals.")) and \
                    getattr(mod, attr, None) is orig:
                self._patches.append((mod, attr, orig, w))

    def patch_method(self, cls, attr, name, **kw):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig, self.wrap(name, orig, **kw)))

    def patch(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def unpatch(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def pair(self, parity, plain, traced):
        """Run ``plain()``, and ``traced()`` with the wrappers applied, back
        to back; ``traced`` goes first when ``parity`` is odd, so neither
        side always runs on a warmer machine.  Returns ``(result, seconds)``
        for the plain call, then for the traced one."""
        out = {}
        for on in ((False, True) if parity % 2 == 0 else (True, False)):
            if on:
                self.patch()
            t0 = perf_counter()
            try:
                result = (traced if on else plain)()
            finally:
                d = perf_counter() - t0
                if on:
                    self.unpatch()
            out[on] = (result, d)
        return out[False], out[True]

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        """One JSON array per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps([sid, name, round(t0, 7), round(t1, 7), parent, item]))
                fh.write("\n")


def install(tracer):
    """Prepare a wrapper for every boundary the benchmark reports.  Returns
    the counters the ratio metrics need.  ``verify.run_check`` is not
    patched, because the suite workloads replace it to time each cell; they
    call ``tracer.run_check`` instead."""
    import lieideals.cli  # noqa: F401  (loaded so it can be patched by name)
    import lieideals.ideals as ideals
    import lieideals.liecore as liecore
    import lieideals.linspace as linspace
    import lieideals.structure  # noqa: F401
    import lieideals.verify as verify

    seen_spins = set()
    seen_weak = set()
    counts = {"spin_distinct": 0, "weak_found": 0, "weak_repeat": 0, "c_found": 0,
              "unsupported": 0, "rref_cells": 0}
    check_s = {}

    def after_spin(args, result, d):
        key = (tracer.serial(args[0]), result.rows)
        if key not in seen_spins:
            seen_spins.add(key)
            counts["spin_distinct"] += 1

    def after_weak(args, result, d):
        key = (tracer.serial(args[0]), args[1].rows)
        if key in seen_weak:
            counts["weak_repeat"] += 1
        seen_weak.add(key)
        counts["weak_found"] += result is not None

    def after_c(args, result, d):
        counts["c_found"] += result is not None

    def after_check(args, result, d):
        check_s[args[0]] = check_s.get(args[0], 0.0) + d
        counts["unsupported"] += result.status == verify.UNSUPPORTED

    def after_rref(args, result, d):
        rows = args[1]
        if rows:
            counts["rref_cells"] += len(rows) * len(rows[0])

    fn = tracer.patch_function
    fn("lieideals.linspace", "rref", "linspace.rref", after=after_rref)
    fn("lieideals.linspace", "enumerate_subspaces", "linspace.enumerate_subspaces",
       generator=True)
    fn("lieideals.linspace", "projective_points", "linspace.projective_points",
       generator=True)
    m = tracer.patch_method
    m(linspace.EchelonBasis, "add", "linspace.EchelonBasis.add")
    m(linspace.Subspace, "__and__", "linspace.Subspace.__and__")
    m(liecore.LieAlgebra, "bracket", "liecore.LieAlgebra.bracket")
    m(liecore.LieAlgebra, "product_space", "liecore.LieAlgebra.product_space")
    m(liecore.LieAlgebra, "restrict", "liecore.LieAlgebra.restrict", span=True)
    m(liecore.LieAlgebra, "quotient", "liecore.LieAlgebra.quotient", span=True)
    m(liecore.LieAlgebra, "__init__", "liecore.LieAlgebra.__init__")
    fn("lieideals.ideals", "subalgebras", "ideals.subalgebras", span=True)
    fn("lieideals.ideals", "core", "ideals.core", span=True)
    fn("lieideals.ideals", "subideal_chain", "ideals.subideal_chain", span=True)
    fn("lieideals.ideals", "find_weak_c_witness", "ideals.find_weak_c_witness",
       span=True, after=after_weak)
    fn("lieideals.ideals", "find_c_witness", "ideals.find_c_witness", span=True,
       after=after_c)
    fn("lieideals.ideals", "subideal_complement_mod_core",
       "ideals.subideal_complement_mod_core", span=True)
    for cls in (ideals.SubidealChain, ideals.WeakCIdealCertificate, ideals.CIdealCertificate):
        m(cls, "problems", "ideals.certificate.problems")
    fn("lieideals.structure", "spin", "structure.spin", span=True, after=after_spin)
    fn("lieideals.structure", "minimal_ideals", "structure.minimal_ideals", span=True)
    for attr in ("is_simple", "is_supersolvable", "maximal_subalgebras",
                 "nilpotent_subalgebras", "classify_one_dim_weak_c"):
        fn("lieideals.structure", attr, f"structure.{attr}")
    tracer.run_check = tracer.wrap("verify.run_check", verify.run_check, span=True,
                                   after=after_check)
    fn("lieideals.cli", "parse_document", "cli.parse_document", span=True)
    fn("lieideals.cli", "main", "cli.main", span=True)
    return counts, check_s
