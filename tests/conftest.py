"""Shared fixtures, the heap merge that is the oracle for ghc's merge
core, the recomputing ccghc that is the oracle for ccghc, and the
acceptance-criteria summary.

Tests in test_acceptance.py carry a `criterion(num, title)` marker; the
terminal summary prints one PASS/FAIL line per criterion so the whole
contract is visible at a glance.
"""
import heapq
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dymatch import (CcGhcResult, CostVector, DyadicPmf, Pmf,
                     as_fraction, average_cost_exact, kl_divergence, tilt)
from dymatch.ccghc import KL_AGREEMENT, WIDTH, Evaluation
from dymatch.facade import SHADOWING_BUDGET, SLAT_COSTS, TARGET
from dymatch.ghc import _as_weights, merge_classes

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
    return SHADOWING_BUDGET


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


def _recomputing_ccghc(t, w, S):
    # the earlier ccghc: the same bisection, which stops below WIDTH
    # times max(u, 1 / spread), then the merge, the exact cost and KL
    # computed once more at the feasible end of the bracket. It merges
    # the leaves a node at a time over the type-class layout, and its
    # probes take the KL with kl_divergence on the leaves
    S_exact = as_fraction(S)
    budget = float(S_exact)
    layout = class_layout(list(zip(t.probs.tolist(), w.nums)))
    trace = []

    def probe(lam):
        d = heap_ghc(tilt(t, w, lam), layout)
        cost = average_cost_exact(d, w)
        feasible = cost <= S_exact
        trace.append(Evaluation(lam, float(cost), kl_divergence(d, t),
                                feasible))
        return feasible

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


def assert_matches_oracle(got, want):
    """got equals the oracle result want in every field, the result's kl
    included, except the probes' KLs and the dual bound taken from them:
    ccghc sums a probe's KL per type class, the oracle with kl_divergence
    on the leaves, so those may differ in the last bits. Each must agree
    to KL_AGREEMENT relative."""
    def without_kl(res):
        return replace(res, dual_bound=0.0, trace=tuple(
            replace(e, kl=0.0) for e in res.trace))

    assert without_kl(got) == without_kl(want)
    pairs = [(e.kl, f.kl) for e, f in zip(got.trace, want.trace)]
    for a, b in pairs + [(got.dual_bound, want.dual_bound)]:
        assert abs(a - b) <= KL_AGREEMENT * max(1.0, abs(b))


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
