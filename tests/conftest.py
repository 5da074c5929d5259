"""Shared fixtures and the acceptance-criteria summary.

Tests in test_acceptance.py carry a `criterion(num, title)` marker; the
terminal summary prints one PASS/FAIL line per criterion so the whole
contract is visible at a glance.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dymatch import CostVector, Pmf, as_fraction
from dymatch.facade import SHADOWING_BUDGET, SLAT_COSTS, TARGET

settings.register_profile(
    "ci", max_examples=50, deadline=None,
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
