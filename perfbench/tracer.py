"""Spans around the program's public functions, recorded from outside.

The tracer replaces a function by a recording wrapper in the namespace
it is called from (a module global or a class attribute), so
`dymatch.ccghc.ghc` is traced where ccghc calls it. Spans are kept in
memory as parallel arrays, indexed by span id in start order, with the
parent's id; they are aggregated and written when the run ends.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name). One span name may cover several
# call sites. A target that no longer exists is skipped; a span name none
# of whose targets exist is reported absent.
TARGETS = (
    ("dymatch.cli", "main", "cli.main"),
    ("dymatch.cli", "kronecker_pmf", "pmf.kronecker"),
    ("dymatch.cli", "kronecker_cost", "pmf.kronecker"),
    ("dymatch.pmf", "kronecker_pmf", "pmf.kronecker"),
    ("dymatch.pmf", "kronecker_cost", "pmf.kronecker"),
    ("dymatch.pmf", "DyadicPmf.kraft_sum", "pmf.kraft_sum"),
    ("dymatch.ccghc", "average_cost_exact", "pmf.average_cost_exact"),
    ("dymatch.ccghc", "kl_divergence", "pmf.kl_divergence"),
    ("dymatch.simplex", "kl_divergence", "pmf.kl_divergence"),
    ("dymatch.cli", "ccghc", "ccghc"),
    ("dymatch.ccghc", "ccghc", "ccghc"),
    ("dymatch.ccghc", "ghc", "ghc"),
    ("dymatch.simplex", "solve_simplex", "simplex.solve_simplex"),
    ("dymatch.simplex", "tilted_pmf", "simplex.tilted_pmf"),
    ("dymatch.cli", "canonical_code", "codes.canonical_code"),
    ("dymatch.pipeline", "verify_kraft", "codes.verify_kraft"),
    ("dymatch.facade", "load_code", "codes.load_code"),
    ("dymatch.pipeline", "compress_text", "pipeline.compress_text"),
    ("dymatch.pipeline", "match_bits", "pipeline.match_bits"),
    ("dymatch.pipeline", "unmatch_symbols", "pipeline.unmatch_symbols"),
    ("dymatch.pipeline", "decompress_bits", "pipeline.decompress_bits"),
    ("dymatch.pipeline", "facade_stats", "pipeline.facade_stats"),
    ("dymatch.pipeline", "run_facade", "pipeline.run_facade"),
)


def _probes(result):
    return {"ccghc.probes": len(result.trace)}


def _leaves(result):
    return {"ghc.leaves": len(result.lengths)}


# counts read from a span's return value
COUNTERS = {"ccghc": _probes, "ghc": _leaves}


class Tracer:
    """Records spans while installed; install() before, uninstall() after."""

    def __init__(self):
        self.names = []
        self._code = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("h")
        self.roots = []  # span id of each root span
        self.counts = []  # one Counter per root span
        self._stack = [-1]
        self._saved = []
        self.installed = set()
        self.broken = set()  # counters whose return value lacked the field

    def _name_code(self, name):
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        return self._code[name]

    def _open(self, code):
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(code)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, span_name):
        code = self._name_code(span_name)
        counter = COUNTERS.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._stack[-1] < 0:
                # outside every root span: the benchmark's own code
                return fn(*args, **kwargs)
            sid = tracer._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if counter is not None:
                try:
                    tracer.counts[-1].update(counter(result))
                except (AttributeError, TypeError):
                    tracer.broken.add(span_name)
            return result
        return traced

    def install(self):
        for modname, path, span_name in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            self.installed.add(span_name)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, span_name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def root(self, name):
        """Context manager for the root span of one op or one set-up."""
        return _Root(self, name)

    def aggregate(self) -> list:
        """Per root span: (root name, {span name: [calls, total s,
        self s]}, counts)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        bounds = self.roots + [n]
        ops = []
        for j, root in enumerate(self.roots):
            per = defaultdict(lambda: [0, 0.0, 0.0])
            for i in range(root, bounds[j + 1]):
                acc = per[self.names[self.name[i]]]
                acc[0] += 1
                acc[1] += dur[i]
                acc[2] += dur[i] - child[i]
            ops.append((self.names[self.name[root]], dict(per),
                        self.counts[j]))
        return ops

    def write_csv(self, path):
        """One line per span: id, parent, name, start and end in seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                        f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.code = tracer._name_code(name)

    def __enter__(self):
        self.tracer.counts.append(Counter())
        self.sid = self.tracer._open(self.code)
        self.tracer.roots.append(self.sid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False
