"""The benchmark's three workloads.

Each workload builds one round of op inputs from the seed, runs one op
at a time (`op`, the timed part) and checks its output (`check`, not
timed). A run repeats whole rounds, so every run attempts the same ops
in the same proportions. `summary` turns the first round's check values
into the gap_bits metric, exact for a given seed, and a few counts.

dymatch functions are looked up through their modules at call time, so
the tracer's wrappers see the calls the benchmark makes too.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import random
import statistics
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from checks import (CheckError, DesignRef, check_design, check_freqs,
                    check_lagrangian_optimal, check_match_output,
                    check_round_trip, check_wall, exact_cost, relaxed_distance,
                    slat_counts)

# modules, not names: the package re-exports functions under the names of
# their modules (dymatch.ccghc is the function), and the tracer patches
# module globals
cli, ccghc, facade, pipeline, pmf, simplex = (
    importlib.import_module(f"dymatch.{m}")
    for m in ("cli", "ccghc", "facade", "pipeline", "pmf", "simplex"))

# the reference installation, spelled out here rather than read from the
# program: uniform target over l/r/m, slat widths and the shadow budget
SLATS = "lrm"
FACADE_T = [1 / 3] * 3
FACADE_W = ["0.18", "0.18", "0.31"]
FACADE_S = "0.2063"
WALL = 4264


class FacadeK7:
    """`dymatch match --block 7` on the facade instance, in process.

    The instance does not depend on the seed; a round is one op.
    """

    name = "facade-k7"
    K = 7

    def __init__(self, seed, workdir: Path, round_size=1):
        workdir.mkdir(parents=True, exist_ok=True)
        target, costs = workdir / "target.json", workdir / "costs.json"
        target.write_text(json.dumps(FACADE_T), encoding="utf-8")
        costs.write_text(json.dumps(FACADE_W), encoding="utf-8")
        self.argv = ["match", "--target", str(target), "--costs", str(costs),
                     "--budget", FACADE_S, "--block", str(self.K),
                     "--alphabet", SLATS]
        self.blocks = ["".join(b) for b in
                       itertools.product(SLATS, repeat=self.K)]
        self.ref = DesignRef(FACADE_T, FACADE_W, FACADE_S, self.K)
        self.items = [None] * round_size

    def op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"dymatch match exited {code}")
        return buf.getvalue()

    def check(self, item, out):
        return check_match_output(out, self.blocks, self.ref)

    def counts(self, out):
        return {}

    def summary(self, checked):
        return statistics.fmean(kl for _, kl in checked) - self.ref.D, {}


class Instance:
    __slots__ = ("k", "t", "w", "S", "T", "W", "ref", "exhaustive")


class RandomSmall:
    """Seeded random instances: m = 3..8 symbols, blocklength 1 or 2.

    Every (m, k) shape takes the same share of a round, so op times do
    not hinge on how the seed mixes shapes. Targets are random, costs
    have 4 decimals and are distinct, and the budget (4 decimals) lies
    between the cheapest two-symbol cost and w.t. One op builds the
    block instance, runs ccghc on it and solve_simplex for D(S).
    """

    name = "random-small"
    SHAPES = [(m, k) for m in range(3, 9) for k in (1, 2)]

    def __init__(self, seed, workdir: Path, round_size=2496):
        rng = random.Random(seed)
        self.items = [self._instance(rng, *self.SHAPES[i % len(self.SHAPES)])
                      for i in range(round_size)]

    @staticmethod
    def _instance(rng, m, k):
        it = Instance()
        it.k = k
        cents = rng.sample(range(500, 10001), m)
        it.w = [Fraction(c, 10000) for c in cents]
        x = [rng.expovariate(1.0) for _ in range(m)]
        it.t = [v / math.fsum(x) for v in x]
        a, b = sorted(cents)[:2]
        lo = (a + b + 1) // 2
        wt = math.floor(sum(p * c for p, c in zip(it.t, cents)))
        it.S = Fraction(rng.randint(lo, max(lo, wt)), 10000)
        it.T = pmf.Pmf(np.array(it.t))
        it.W = pmf.CostVector(it.w)
        it.ref = DesignRef(it.t, it.w, it.S, it.k)
        it.exhaustive = it.k == 1 and rng.random() < 0.5
        return it

    def op(self, it):
        tk = pmf.kronecker_pmf(it.T, it.k)
        wk = pmf.kronecker_cost(it.W, it.k)
        res = ccghc.ccghc(tk, wk, it.k * it.S)
        sol = simplex.solve_simplex(it.T, it.W, float(it.S))
        return res, sol

    def check(self, it, out):
        res, sol = out
        lengths = list(res.d.lengths)
        kl = check_design(lengths, it.ref)
        if exact_cost(lengths, it.ref) != res.cost_exact:
            raise CheckError(f"cost_exact {res.cost_exact} is not the cost "
                             f"of the lengths")
        if abs(sol.D - it.ref.D) > 1e-9:
            raise CheckError(f"solve_simplex D {sol.D}, expected {it.ref.D}")
        if it.exhaustive:
            check_lagrangian_optimal(lengths, it.t, [float(c) for c in it.w],
                                     res.lambda_star)
        single = self._beaten_single(it, lengths) if it.k == 1 else None
        return kl, single

    @staticmethod
    def _beaten_single(it, lengths):
        """None unless the result is a single symbol; then whether a
        feasible two-leaf pmf has smaller KL."""
        if sum(l is not None for l in lengths) != 1:
            return None
        kl = -math.log2(it.t[lengths.index(0)])
        return any((it.w[i] + it.w[j]) / 2 <= it.S and
                   -1 - (math.log2(it.t[i]) + math.log2(it.t[j])) / 2 < kl
                   for i, j in itertools.combinations(range(len(it.t)), 2))

    def counts(self, out):
        return {}

    def summary(self, checked):
        gap = statistics.fmean(kl - it.ref.D for it, (kl, _) in checked)
        single = [b for _, (_, b) in checked if b is not None]
        return gap, {"k1_ops": sum(it.k == 1 for it, _ in checked),
                     "single_symbol": len(single),
                     "single_symbol_beaten_by_two_leaves": sum(single)}


class TextWalls:
    """Seeded messages, 200-3000 characters, encoded, decoded and fitted
    to the wall.

    Characters are drawn with probability 2^-len(codeword) of the shipped
    source code, so the compressed bits are fair coin flips. Lengths are
    spread evenly over 200-3000 (one uniform draw per equal slice), so
    op times do not hinge on the seed's mix of long and short messages;
    about half the messages fill the wall and half are truncated.
    """

    name = "text-walls"

    def __init__(self, seed, workdir: Path, round_size=3800):
        self.src = facade.source_code()
        self.mat = facade.matcher_code()
        self.w = pmf.CostVector(FACADE_W)
        chars = [s for s, _ in self.src.entries]
        weights = [2.0 ** -len(b) for _, b in self.src.entries]
        bits = {s: len(b) for s, b in self.src.entries}
        rng = random.Random(seed)
        lengths = [200 + int((i + rng.random()) * 2801 / round_size)
                   for i in range(round_size)]
        rng.shuffle(lengths)
        self.items = []
        for n in lengths:
            text = "".join(rng.choices(chars, weights, k=n))
            self.items.append((text, sum(bits[c] for c in text)))
        self.D = relaxed_distance(FACADE_T, [float(c) for c in FACADE_W],
                                  float(FACADE_S))

    def op(self, item):
        text, _ = item
        p = pipeline
        natural = p.run_facade(text, self.src, self.mat, self.w)
        back = p.decompress_bits(
            p.unmatch_symbols(natural.symbols, self.mat, natural.bit_count),
            self.src)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wall = p.run_facade(text, self.src, self.mat, self.w,
                                slat_budget=WALL)
        return natural, back, wall, len(caught)

    def check(self, item, out):
        text, bit_count = item
        natural, back, wall, warned = out
        check_round_trip(text, back)
        if natural.bit_count != bit_count or wall.bit_count != bit_count:
            raise CheckError(f"bit count {natural.bit_count}/"
                             f"{wall.bit_count}, expected {bit_count}")
        counts = slat_counts(natural.symbols, SLATS)
        check_freqs(natural.stats.effective_freqs, counts)
        check_wall(natural.symbols, wall.symbols, WALL)
        check_freqs(wall.stats.effective_freqs,
                    slat_counts(wall.symbols, SLATS))
        if warned != (len(natural.symbols) > WALL):
            raise CheckError(f"{warned} warnings for a natural stream of "
                             f"{len(natural.symbols)} slats")
        return tuple(counts)

    def counts(self, out):
        wall = out[2]
        return {"pipeline.bits": wall.bit_count,
                "pipeline.pad_bits": wall.pad_bits}

    def summary(self, checked):
        """gap_bits is the per-symbol KL of the pooled natural-stream slat
        frequencies to the uniform target, above D(S)."""
        values = [counts for _, counts in checked]
        pooled = [sum(c) for c in zip(*values)]
        n = sum(pooled)
        kl = sum(c / n * math.log2(3 * c / n) for c in pooled if c)
        truncated = sum(sum(c) > WALL for c in values)
        return kl - self.D, {"truncated": truncated,
                             "filled": len(values) - truncated}


WORKLOADS = {w.name: w for w in (FacadeK7, RandomSmall, TextWalls)}
