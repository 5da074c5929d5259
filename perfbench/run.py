"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload facade-k7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src,
never from an installed copy. One process and one thread run the ops
closed loop, one after another, in whole rounds, as many as bring the
ops' time nearest to --seconds. Every op's output is checked by the
benchmark's own code, outside the op's timing.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced ops over at least two rounds and prints the per-layer
metrics, averaged per traced op, plus the tracing overhead. The last
line of stdout is one JSON object; details and spans go to
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckError
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7
# a fresh interpreter imports the package and loads the shipped tables,
# what every workload does before its first op, then says it is ready
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import dymatch.cli; from dymatch import facade; "
              "facade.source_code(); facade.matcher_code(); "
              "print('ready', flush=True)")
TRACED_SETUPS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("gap_bits", "bits/symbol"),
)

CALLS, MS, SELF_MS, COUNT = "calls", "ms", "self_ms", "count"
# (metric, unit, better, statistic, span or counter). Statistics are means
# per traced op; the three without a span are computed apart.
PER_LAYER = (
    ("pmf.kraft_sum.calls", "count", "lower", CALLS, "pmf.kraft_sum"),
    ("pmf.kraft_sum.ms", "ms", "lower", MS, "pmf.kraft_sum"),
    ("pmf.average_cost_exact.calls", "count", "lower", CALLS,
     "pmf.average_cost_exact"),
    ("pmf.average_cost_exact.ms", "ms", "lower", MS,
     "pmf.average_cost_exact"),
    ("pmf.kronecker.ms", "ms", "lower", MS, "pmf.kronecker"),
    ("pmf.kl_divergence.ms", "ms", "lower", MS, "pmf.kl_divergence"),
    ("ghc.calls", "count", "lower", CALLS, "ghc"),
    ("ghc.self_ms", "ms", "lower", SELF_MS, "ghc"),
    ("ghc.leaves_per_s", "1/s", "higher", None, "ghc"),
    ("ccghc.probes", "count", "lower", COUNT, "ccghc"),
    ("ccghc.self_ms", "ms", "lower", SELF_MS, "ccghc"),
    ("simplex.solve_simplex.ms", "ms", "lower", MS, "simplex.solve_simplex"),
    ("simplex.tilted_pmf.calls", "count", "lower", CALLS,
     "simplex.tilted_pmf"),
    ("codes.canonical_code.ms", "ms", "lower", MS, "codes.canonical_code"),
    ("codes.verify_kraft.ms", "ms", "lower", MS, "codes.verify_kraft"),
    ("codes.load_code.ms", "ms", "lower", None, "codes.load_code"),
    ("pipeline.compress_text.ms", "ms", "lower", MS, "pipeline.compress_text"),
    ("pipeline.match_bits.ms", "ms", "lower", MS, "pipeline.match_bits"),
    ("pipeline.unmatch_symbols.ms", "ms", "lower", MS,
     "pipeline.unmatch_symbols"),
    ("pipeline.decompress_bits.ms", "ms", "lower", MS,
     "pipeline.decompress_bits"),
    ("pipeline.facade_stats.ms", "ms", "lower", MS, "pipeline.facade_stats"),
    ("pipeline.run_facade.self_ms", "ms", "lower", SELF_MS,
     "pipeline.run_facade"),
    ("pipeline.bits", "count", "lower", COUNT, "pipeline.run_facade"),
    ("pipeline.pad_bits", "count", "lower", COUNT, "pipeline.run_facade"),
    ("cli.main.self_ms", "ms", "lower", SELF_MS, "cli.main"),
    ("trace.overhead_ms", "ms", "lower", None, None),
    ("trace.unattributed_ms", "ms", "lower", SELF_MS, "op"),
)


def import_program():
    """Import dymatch from this checkout's src, or exit with code 1."""
    if not (SRC / "dymatch" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'dymatch'} not found; run the benchmark "
                 "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import dymatch
    if SRC not in Path(dymatch.__file__).resolve().parents:
        sys.exit(f"error: dymatch imported from {dymatch.__file__}, "
                 f"not from {SRC}")


def measure_setup() -> list:
    """Seconds from spawning each set-up interpreter to its ready line.

    The blocking read returns as soon as the line is written; waiting for
    the exit with a timeout would poll in steps of up to 50 ms.
    """
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line != b"ready\n":
                raise RuntimeError(f"set-up interpreter failed: {line!r}")
    return times


def trace_setups(tracer):
    """Load the shipped tables a few times under the tracer: the part of
    set-up that the program's own functions do."""
    from dymatch import facade
    tracer.install()
    try:
        for _ in range(TRACED_SETUPS):
            with tracer.root("setup"):
                facade.source_code()
                facade.matcher_code()
    finally:
        tracer.uninstall()


class Run:
    """Closed-loop rounds of one workload, with their checks."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.times = {False: [], True: []}
        self.failed_s = 0.0
        self.attempted = self.failed = 0
        self.correct = True
        self.errors = []
        self.first = [None] * len(wl.items)  # check values of round 0
        self.rounds = 0

    def until(self, seconds):
        """Whole rounds while one more brings the ops' time nearer to
        `seconds`: at least one, and with a tracer two, so every input
        runs both untraced and traced."""
        while (self.rounds < (2 if self.tracer else 1)
               or self.busy() * (1 + 0.5 / self.rounds) < seconds):
            self.round()

    def round(self):
        """One pass over the inputs. With a tracer, ops alternate between
        untraced and traced, and the next round swaps them, so both
        kinds see the same inputs and the same phases of the host."""
        for i, item in enumerate(self.wl.items):
            traced = self.tracer is not None and (i + self.rounds) % 2 == 1
            if traced:
                self.tracer.install()
            try:
                self._one(i, item, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
        self.rounds += 1

    def _one(self, i, item, traced):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.root("op"):
                    out = self.wl.op(item)
            else:
                out = self.wl.op(item)
        except Exception as e:  # a raising op is a failed op, not a crash
            self.failed += 1
            self.failed_s += time.perf_counter() - t0
            self._error(f"op {i} failed: {type(e).__name__}: {e}")
            return
        self.times[traced].append(time.perf_counter() - t0)
        if traced:
            self.tracer.counts[-1].update(self.wl.counts(out))
        try:
            value = self.wl.check(item, out)
            if self.rounds == 0:
                self.first[i] = value
            elif value != self.first[i]:
                raise CheckError("output differs from the first round's")
        except CheckError as e:
            self.correct = False
            self._error(f"op {i} output wrong: {e}")

    def _error(self, msg):
        if len(self.errors) < 20:
            self.errors.append(msg)
            print(msg, file=sys.stderr)

    def checked(self) -> list:
        """(input, check value) of every first-round op that passed."""
        return [(item, v) for item, v in zip(self.wl.items, self.first)
                if v is not None]

    def busy(self) -> float:
        return (sum(self.times[False]) + sum(self.times[True])
                + self.failed_s)


def end_to_end(run, setup_times) -> dict:
    times = run.times[False]
    gap, _ = run.wl.summary(run.checked())
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "gap_bits": gap,
    }


def per_layer(run, tracer) -> tuple:
    """Per-layer values, the names reported absent, and how much of the
    traced op time the named spans' self times cover."""
    roots = tracer.aggregate()
    ops = [(per, counts) for name, per, counts in roots if name == "op"]
    setups = [per for name, per, _ in roots if name == "setup"]
    n = len(ops)
    field = {CALLS: 0, MS: 1, SELF_MS: 2}
    present = tracer.installed | {"op"}
    values, absent = {}, []
    for metric, _, _, stat, span in PER_LAYER:
        if span is not None and span not in present:
            absent.append(metric)
            values[metric] = 0.0
            continue
        if stat in field:
            scale = 1 if stat == CALLS else 1e3
            total = sum(per.get(span, (0, 0.0, 0.0))[field[stat]]
                        for per, _ in ops)
            values[metric] = total * scale / n
        elif stat == COUNT:
            values[metric] = sum(c.get(metric, 0) for _, c in ops) / n
        elif metric == "ghc.leaves_per_s":
            self_s = sum(per.get("ghc", (0, 0.0, 0.0))[2] for per, _ in ops)
            leaves = sum(c.get("ghc.leaves", 0) for _, c in ops)
            values[metric] = leaves / self_s if self_s else 0.0
        elif metric == "codes.load_code.ms":
            values[metric] = statistics.fmean(
                per.get(span, (0, 0.0))[1] for per in setups) * 1e3
        elif metric == "trace.overhead_ms":
            values[metric] = (statistics.median(run.times[True])
                              - statistics.median(run.times[False])) * 1e3
    absent += sorted(f"{c} (counter)" for c in tracer.broken)
    op_s = sum(per["op"][1] for per, _ in ops)
    info = {"traced_op_p50_ms": statistics.median(run.times[True]) * 1e3,
            "untraced_op_p50_ms": statistics.median(run.times[False]) * 1e3,
            "named_self_share": 1 - sum(per["op"][2] for per, _ in ops) / op_s}
    return values, absent, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    setup_times = [] if args.trace else measure_setup()
    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed,
                                            OUT / args.workload)
    if tracer is not None:
        trace_setups(tracer)

    run = Run(wl, tracer)
    run.until(args.seconds)
    if not run.times[False] or (tracer and not run.times[True]):
        print("error: no op succeeded", file=sys.stderr)
        return 1

    if tracer is None:
        values = end_to_end(run, setup_times)
        units = dict(END_TO_END)
        absent, info = [], {}
    else:
        values, absent, info = per_layer(run, tracer)
        units = {m: u for m, u, *_ in PER_LAYER}
        tracer.write_csv(OUT / f"{args.workload}.spans.csv")
        if absent:
            print(f"absent from the program: {', '.join(absent)}",
                  file=sys.stderr)
    _, extra = wl.summary(run.checked())
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {m: {"value": values[m], "unit": units[m]}
                          for m in units}}
    details = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, rounds=run.rounds,
                   ops_per_round=len(wl.items), setup_times_s=setup_times,
                   absent=absent, errors=run.errors, **info, **extra)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
