"""Shared fixtures, the heap merge that is the oracle for ghc's merge
core, the recomputing and the bisecting ccghc that are the oracles for
ccghc, and the acceptance-criteria summary.

Tests in test_acceptance.py carry a `criterion(num, title)` marker; the
terminal summary prints one PASS/FAIL line per criterion so the whole
contract is visible at a glance.
"""
import heapq
import math
import random
from dataclasses import replace
from fractions import Fraction
from math import inf, ldexp, log2

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dymatch import (CcGhcResult, ConvergenceError, CostVector, DyadicPmf,
                     InfeasibleConstraintError, Pmf, as_fraction,
                     average_cost_exact, ghc, kl_divergence, kronecker_cost,
                     kronecker_pmf, tilt)
from dymatch.ccghc import KL_AGREEMENT, WIDTH, Evaluation, _Tilt
from dymatch.facade import SLAT_COSTS, TARGET
from dymatch.ghc import (_as_weights, group_leaves, leaf_lengths,
                         merge_classes)

settings.register_profile(
    "ci", max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
# for a harder run of chosen property tests: --hypothesis-profile=deep
settings.register_profile(
    "deep", max_examples=2000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion identity")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        num, title = marker.args
        if report.passed:
            status = "PASS"
        elif report.skipped:
            status = "SKIP"
        else:
            status = "FAIL"
        _RESULTS[num] = (title, status)
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, status = _RESULTS[num]
        terminalreporter.write_line(f"{status}  {num:2d}. {title}")


@pytest.fixture
def facade_t() -> Pmf:
    return TARGET


@pytest.fixture
def facade_w() -> CostVector:
    return SLAT_COSTS


@pytest.fixture
def facade_budget():
    return as_fraction("0.2063")


def random_pmf(rng: np.random.Generator, m: int, floor: float = 0.01) -> Pmf:
    probs = rng.uniform(floor, 1.0, m)
    return Pmf(probs / probs.sum())


def random_costs(rng: np.random.Generator, m: int) -> CostVector:
    # round to avoid astronomically fine rationals in exact comparisons
    return CostVector([round(c, 4) for c in rng.uniform(0.05, 1.0, m)])


def seeded_instances():
    """60 seeded (target, costs, blocklength, budget) instances: 2-6
    symbols, blocklength 1 or 2, and a per-symbol budget between the
    cheapest symbol and the target's own cost, written to 4 places."""
    rng = np.random.default_rng(23)
    for i in range(60):
        m, k = int(rng.integers(2, 7)), 1 + i % 2
        t, w = random_pmf(rng, m), random_costs(rng, m)
        lo, hi = float(min(w.exact)), float(np.dot(t.probs, w.costs))
        S = as_fraction(f"{lo + (hi - lo) * rng.uniform(0.05, 0.95):.4f}")
        yield t, w, k, k * max(S, min(w.exact))


def class_layout(keys) -> list:
    """The leaf indices in class layout order: classes of equal key in
    order of first appearance, each in index order."""
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return sorted(range(len(keys)), key=lambda i: (first[keys[i]], i))


def heap_ghc(x, layout=None) -> DyadicPmf:
    """ghc as one heap operation per node: pop the lightest two by
    (weight, smallest position in layout), drop the lighter at 4x, else
    push their merge. layout lists the leaf indices by position; by
    default the leaves of one weight form a class, as in ghc. Its
    products overflow or underflow for weights far from 1 (1e300 or
    1e-200), so it is the oracle only in between."""
    w = _as_weights(x)
    m = len(w)
    if layout is None:
        layout = class_layout(w.tolist())
    heap = [(float(w[i]), p, i) for p, i in enumerate(layout) if w[i] > 0]
    heapq.heapify(heap)
    while len(heap) > 1:
        wa, ta, a = heapq.heappop(heap)
        wb, tb, b = heapq.heappop(heap)
        if wb >= 4.0 * wa:
            heapq.heappush(heap, (wb, tb, b))
        else:
            heapq.heappush(heap, (2.0 * math.sqrt(wa * wb), min(ta, tb),
                                  (a, b)))
    lengths: list = [None] * m
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            lengths[node] = depth
        else:
            left, right = node
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
    return DyadicPmf(tuple(lengths))


def leaf_probe(t, w, S):
    """The recomputing oracle's probe at lam, as a function of lam that
    returns its Evaluation: heap_ghc on the leaf tilt over the type-class
    layout, its exact cost and kl_divergence on the leaves."""
    S_exact = as_fraction(S)
    layout = class_layout(list(zip(t.probs.tolist(), w.nums)))

    def probe(lam):
        d = heap_ghc(tilt(t, w, lam), layout)
        cost = average_cost_exact(d, w)
        return Evaluation(lam, float(cost), kl_divergence(d, t),
                          cost <= S_exact)
    return probe


def _recomputing_ccghc(t, w, S):
    # the earlier ccghc: the same bisection, which stops below WIDTH
    # times max(u, 1 / spread), then the merge, the exact cost and KL
    # computed once more at the feasible end of the bracket. It merges
    # the leaves a node at a time over the type-class layout, and its
    # probes take the KL with kl_divergence on the leaves
    S_exact = as_fraction(S)
    budget = float(S_exact)
    layout = class_layout(list(zip(t.probs.tolist(), w.nums)))
    evaluate = leaf_probe(t, w, S)
    trace = []

    def probe(lam):
        trace.append(evaluate(lam))
        return trace[-1].feasible

    def result(lam, iterations, bracket):
        d = heap_ghc(tilt(t, w, lam), layout)
        cost = average_cost_exact(d, w)
        kl = kl_divergence(d, t)
        bound = max(e.kl + e.lam * (e.cost - budget) for e in trace)
        return CcGhcResult(d=d, lambda_star=lam, cost=float(cost), kl=kl,
                           iterations=iterations, bracket=bracket,
                           trace=tuple(trace), cost_exact=cost,
                           dual_bound=min(kl, bound))

    if probe(0.0):
        return result(0.0, 0, (0.0, 0.0))
    lo, u = 0.0, 1.0
    while not probe(u):
        lo, u = u, 2.0 * u
    costs = [c for c, p in zip(w.exact, t.probs) if p > 0]
    spread = float(max(costs) - min(costs))
    iterations = 0
    while u - lo >= WIDTH * max(u, 1 / spread):
        iterations += 1
        mid = 0.5 * (lo + u)
        if probe(mid):
            u = mid
        else:
            lo = mid
    return result(u, iterations, (lo, u))


def _assert_trace(got, want, probe, kl_tol):
    """Each probe in got's trace is probe's at that multiplier, its KL to
    kl_tol relative to max(1, |kl|), and none is repeated; got's dual
    bound is no lower than want's, less KL_AGREEMENT relative to
    max(1, |kl|): it is the best line over fewer probes, which include
    both ends of the final bracket."""
    lams = [e.lam for e in got.trace]
    assert len(set(lams)) == len(lams)
    for e in got.trace:
        f = probe(e.lam)
        assert (e.lam, e.cost, e.feasible) == (f.lam, f.cost, f.feasible)
        assert abs(e.kl - f.kl) <= kl_tol * max(1.0, abs(f.kl))
    assert got.dual_bound >= want.dual_bound \
        - KL_AGREEMENT * max(1.0, abs(want.kl))


def assert_matches_oracle(got, t, w, S):
    """got, ccghc's result on (t, w, S), equals _recomputing_ccghc's in
    every field, the result's kl included, but the trace and the dual
    bound taken from it; those are checked by _assert_trace against
    leaf_probe, whose KL may differ from ccghc's, summed per type class,
    in the last bits."""
    want = _recomputing_ccghc(t, w, S)
    assert replace(got, trace=(), dual_bound=0.0) \
        == replace(want, trace=(), dual_bound=0.0)
    _assert_trace(got, want, leaf_probe(t, w, S), KL_AGREEMENT)


def bisection_probe(t, w, S):
    """ccghc's set-up and probe as they were while it probed every
    midpoint of its bisection: (probe, trace, order, spread). probe(lam)
    appends the probe's Evaluation to trace and returns (blocks of
    merge_classes, exact cost numerator and denominator, KL) when it is
    feasible, else None."""
    if len(t) != len(w):
        raise ValueError(f"length mismatch: {len(t)} vs {len(w)}")
    S_exact = as_fraction(S)
    keys, order, starts = group_leaves(zip(t.probs.tolist(), w.nums))
    cnum = [n for _, n in keys]
    tilted = _Tilt(np.array([p for p, _ in keys]),
                   CostVector._scaled(tuple(cnum), w.den))
    logs = [log2(p) if p > 0 else -inf for p, _ in keys]
    supported = [n for p, n in keys if p > 0]
    cheapest = Fraction(min(supported), w.den)
    if S_exact < cheapest:
        raise InfeasibleConstraintError(
            f"budget {S_exact} is below the cheapest supported symbol cost "
            f"{cheapest}")
    S_num, S_den = S_exact.numerator, S_exact.denominator
    bits = len(t).bit_length()
    trace = []

    def probe(lam: float):
        blocks = merge_classes(tilted(lam).tolist(), starts)
        top = blocks[-1][0] + bits
        kraft = cost = 0
        kl = 0.0
        for depth, c, _, d in blocks:
            share = 1 << (top - depth)
            kraft += share
            cost += cnum[c] * share
            kl -= ldexp(depth + d + logs[c], -depth)
        if kraft != 1 << top:
            raise ValueError(f"Kraft sum is {Fraction(kraft, 1 << top)}, "
                             "not 1")
        den = w.den << top
        feasible = cost * S_den <= S_num * den
        trace.append(Evaluation(lam, cost / den, kl, feasible))
        return (blocks, cost, den, kl) if feasible else None

    spread = (max(supported) - min(supported)) / w.den
    return probe, trace, order, spread


def bisecting_ccghc(t, w, S):
    """ccghc as it was before it located lambda_star from the dual's
    lines: the same bracket, halving loop and certificate, with a probe at
    every midpoint."""
    S_exact = as_fraction(S)
    probe, trace, order, spread = bisection_probe(t, w, S)
    lo = u = 0.0
    iterations = 0
    found = probe(0.0)
    if not found:
        u = 1.0
        found = probe(u)
        while not found:
            lo, u = u, 2.0 * u
            if u * spread > 2.0 ** 100:
                raise ConvergenceError(
                    "failed to bracket a feasible multiplier")
            found = probe(u)
    mid = 0.5 * (lo + u)
    while lo < mid < u and u - lo >= WIDTH * max(u, 1 / spread):
        iterations += 1
        at_mid = probe(mid)
        if at_mid:
            u, found = mid, at_mid
        else:
            lo = mid
        mid = 0.5 * (lo + u)
    blocks, num, den, probe_kl = found
    cost = Fraction(num, den)
    lengths = tuple(leaf_lengths(blocks, order, len(t)))
    d = ghc(tilt(t, w, u))
    value = None
    if d.lengths != lengths:
        value = kl_divergence(d, t) + u * float(average_cost_exact(d, w))
        d = DyadicPmf(lengths)
    kl = kl_divergence(d, t)
    if (average_cost_exact(d, w) != cost
            or abs(kl - probe_kl) > KL_AGREEMENT * max(1.0, abs(kl))
            or value is not None and abs(kl + u * float(cost) - value)
            > KL_AGREEMENT * max(1.0, abs(value))):
        raise RuntimeError(f"the class merge at lambda {u!r} disagrees "
                           "with ghc on the leaves")
    bound = kl if u == 0 else min(kl, max(
        e.kl + e.lam * (e.cost - float(S_exact)) for e in trace))
    return CcGhcResult(d=d, lambda_star=u, cost=float(cost), kl=kl,
                       iterations=iterations, bracket=(lo, u),
                       trace=tuple(trace), cost_exact=cost,
                       dual_bound=bound)


def assert_same_as_bisection(got, t, w, S) -> CcGhcResult:
    """got, ccghc's result on (t, w, S), has bisecting_ccghc's to_dict()
    and cost_exact, and its trace and dual bound pass _assert_trace
    against the bisection's probe, KL included. Returns the bisection's
    result."""
    want = bisecting_ccghc(t, w, S)
    assert got.to_dict() == want.to_dict()
    assert got.cost_exact == want.cost_exact
    probe, trace, _, _ = bisection_probe(t, w, S)

    def evaluate(lam):
        probe(lam)
        return trace[-1]

    _assert_trace(got, want, evaluate, 0.0)
    return want


def random_small_symbols(seed: int = 1, size: int = 2496):
    """(target, costs, budget per symbol, blocklength) of perfbench's
    random-small round, drawn as perfbench/workloads.py RandomSmall draws
    them: m = 3..8 symbols and blocklength 1 or 2 in turn, distinct
    4-decimal costs in [0.05, 1], an exponential-draw target, and a
    4-decimal budget per symbol between the mean of the two cheapest
    costs and w.t."""
    rng = random.Random(seed)
    shapes = [(m, k) for m in range(3, 9) for k in (1, 2)]
    for i in range(size):
        m, k = shapes[i % len(shapes)]
        cents = rng.sample(range(500, 10001), m)
        x = [rng.expovariate(1.0) for _ in range(m)]
        t = [v / math.fsum(x) for v in x]
        a, b = sorted(cents)[:2]
        lo = (a + b + 1) // 2
        wt = math.floor(sum(p * c for p, c in zip(t, cents)))
        S = Fraction(rng.randint(lo, max(lo, wt)), 10000)
        if k == 1:
            rng.random()  # the workload's draw: enumerate this result?
        w = CostVector([Fraction(c, 10000) for c in cents])
        yield Pmf(np.array(t)), w, S, k


def random_small_round(seed: int = 1, size: int = 2496):
    """(target, costs, budget) of the block instances of perfbench's
    random-small round (random_small_symbols)."""
    for t, w, S, k in random_small_symbols(seed, size):
        yield kronecker_pmf(t, k), kronecker_cost(w, k), k * S


def expand_blocks(weights, order, starts) -> tuple:
    """merge_classes on its arguments, as the lengths of leaves
    0..len(order)-1 (None if dropped), checking that every block lies
    inside its class and that no leaf is in two blocks."""
    lengths: list = [None] * len(order)
    for depth, c, pos, d in merge_classes(weights, starts):
        assert starts[c] <= pos and pos + (1 << d) <= starts[c + 1]
        for i in order[pos:pos + (1 << d)]:
            assert lengths[i] is None
            lengths[i] = depth + d
    return tuple(lengths)
