"""Cost-constrained search: bisection on the tilted target."""
import importlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from dymatch import (CcGhcResult, CostVector, InfeasibleConstraintError,
                     Pmf, average_cost_exact, as_fraction, brute_force_dyadic,
                     ccghc, ghc, kl_divergence, kronecker_cost,
                     kronecker_pmf, tilt)
from dymatch.ccghc import Evaluation
from dymatch.ghc import TargetWeights
from conftest import random_costs, random_pmf

CCGHC_MODULE = importlib.import_module("dymatch.ccghc")

T3 = Pmf.uniform(3)
W3 = CostVector(("0.18", "0.18", "0.31"))


def objective(d, t, w, lam) -> float:
    """Lagrangian kl(d||t) + lam * cost(d), the quantity Ghc minimizes on
    the tilted target."""
    return (kl_divergence(Pmf(d.probs), t)
            + lam * float(average_cost_exact(d, w)))


class TestTilt:
    def test_identity_at_zero(self):
        x = tilt(T3, W3, 0.0)
        assert np.allclose(x.weights, T3.probs)

    def test_direct_evaluation(self):
        # t_i * 2^(lam (w_min - w_i)) with w_min = 0.18
        x = tilt(T3, W3, 10.0)
        want = [1 / 3, 1 / 3, 2.0 ** -1.3 / 3]
        assert np.allclose(x.weights, want, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tilt(T3, CostVector(("0.1", "0.2")), 1.0)

    def test_cost_nonincreasing_in_lambda(self):
        # the staircase: ghc(tilt(lam)) cost never rises with lam
        costs = []
        for lam in np.linspace(0.0, 15.0, 61):
            d = ghc(tilt(T3, W3, lam))
            costs.append(average_cost_exact(d, W3))
        assert all(a >= b for a, b in zip(costs, costs[1:]))


class TestCcghc:
    def test_loose_budget_returns_unconstrained_shape(self):
        # ghc(t) alone is infeasible at 0.2233 (cost 0.245), but any
        # positive tilt resolves the tie in favor of the cheap symbols
        res = ccghc(T3, W3, "0.2233")
        assert res.d.lengths == (2, 1, 2)
        assert res.cost_exact == Fraction(17, 80)  # 0.2125
        assert res.kl == pytest.approx(float(np.log2(3)) - 1.5, abs=1e-12)
        assert res.lambda_star < 1e-8

    def test_budget_above_ghc_cost_skips_bisection(self):
        res = ccghc(T3, W3, "0.245")
        assert res.lambda_star == 0.0
        assert res.iterations == 0
        assert res.d.lengths == (2, 2, 1)

    def test_tight_budget_drops_expensive_symbol(self):
        res = ccghc(T3, W3, "0.2063")
        assert res.d.lengths == (1, 1, None)
        assert res.cost_exact == Fraction(9, 50)
        assert res.kl == pytest.approx(np.log2(3) - 1.0, abs=1e-12)

    def test_feasibility_is_exact(self):
        res = ccghc(T3, W3, "0.2063")
        assert res.cost_exact <= as_fraction("0.2063")
        assert average_cost_exact(res.d, W3) == res.cost_exact

    def test_bracket_contract(self):
        res = ccghc(T3, W3, "0.21", eps=1e-9)
        lo, u = res.bracket
        assert u - lo < 1e-9
        assert res.lambda_star == u
        assert res.iterations <= 200

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleConstraintError):
            ccghc(T3, W3, "0.17")

    @pytest.mark.parametrize("eps", [0.0, -1e-9, float("nan")])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            ccghc(T3, W3, "0.2063", eps=eps)

    def test_infeasibility_threshold_is_supported_min(self):
        # symbol 0 is cheapest but has zero target mass: its cost does
        # not make a budget feasible
        t = Pmf(np.array([0.0, 0.5, 0.5]))
        w = CostVector(("0.01", "0.5", "0.6"))
        with pytest.raises(InfeasibleConstraintError):
            ccghc(t, w, "0.4")
        res = ccghc(t, w, "0.5")
        assert res.d.lengths[0] is None

    def test_equal_costs_degenerate(self):
        w = CostVector(("0.25", "0.25", "0.25"))
        res = ccghc(T3, w, "0.25")
        assert res.lambda_star == 0.0
        assert res.cost_exact == Fraction(1, 4)
        with pytest.raises(InfeasibleConstraintError):
            ccghc(T3, w, "0.2")

    def test_deterministic(self):
        a = ccghc(T3, W3, "0.2063")
        b = ccghc(T3, W3, "0.2063")
        assert a.lambda_star == b.lambda_star
        assert a.bracket == b.bracket
        assert a.d.lengths == b.d.lengths
        assert [e.lam for e in a.trace] == [e.lam for e in b.trace]

    def test_to_dict_shape(self):
        res = ccghc(T3, W3, "0.2063")
        payload = res.to_dict()
        assert set(payload) == {"lengths", "lambda_star", "cost", "kl",
                                "iterations", "bracket"}
        assert "trace" in res.to_dict(include_trace=True)


def _unsupported_shift_tilt(t, w, lam):
    # the earlier tilt, shifted by the cheapest cost of any symbol; on a
    # fully supported target it must give the very same weights
    shift = lam * float(w.costs.min())
    return TargetWeights(t.probs * np.exp2(shift - lam * w.costs))


def seeded_instances():
    """60 seeded fully supported (t, w, S) instances at k = 1 and 2."""
    rng = np.random.default_rng(11)
    for i in range(60):
        m, k = int(rng.integers(2, 7)), 1 + i % 2
        t, w = random_pmf(rng, m), random_costs(rng, m)
        lo, hi = float(min(w.exact)), float(np.dot(t.probs, w.costs))
        S = as_fraction(f"{lo + (hi - lo) * rng.uniform(0.05, 0.95):.4f}")
        yield (kronecker_pmf(t, k), kronecker_cost(w, k),
               k * max(S, min(w.exact)))


def facade_instance(k):
    return (kronecker_pmf(T3, k), kronecker_cost(W3, k),
            k * as_fraction("0.2063"))


class TestTiltOracle:
    """ccghc equals its run under the earlier tilt wherever every symbol
    is supported: the same lengths, bracket, cost and probe trace."""

    def _both(self, monkeypatch, t, w, S):
        got = ccghc(t, w, S)
        with monkeypatch.context() as m:
            m.setattr(CCGHC_MODULE, "tilt", _unsupported_shift_tilt)
            want = ccghc(t, w, S)
        return got, want

    def test_seeded_instances(self, monkeypatch):
        for t, w, S in seeded_instances():
            got, want = self._both(monkeypatch, t, w, S)
            assert got == want

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_facade(self, monkeypatch, k):
        got, want = self._both(monkeypatch, *facade_instance(k))
        assert got == want


def _recomputing_ccghc(t, w, S, eps=1e-9):
    # the earlier ccghc: the same bisection, then ghc, the exact cost and
    # KL computed once more at the feasible end of the bracket
    S_exact = as_fraction(S)
    trace = []

    def probe(lam):
        d = ghc(tilt(t, w, lam))
        cost = average_cost_exact(d, w)
        feasible = cost <= S_exact
        trace.append(Evaluation(lam, float(cost), kl_divergence(d, t),
                                feasible))
        return feasible

    def result(lam, iterations, bracket):
        d = ghc(tilt(t, w, lam))
        cost = average_cost_exact(d, w)
        return CcGhcResult(d=d, lambda_star=lam, cost=float(cost),
                           kl=kl_divergence(d, t), iterations=iterations,
                           bracket=bracket, trace=tuple(trace),
                           cost_exact=cost)

    if probe(0.0):
        return result(0.0, 0, (0.0, 0.0))
    lo, u = 0.0, 1.0
    while not probe(u):
        lo, u = u, 2.0 * u
    iterations = 0
    while u - lo >= eps:
        iterations += 1
        mid = 0.5 * (lo + u)
        if probe(mid):
            u = mid
        else:
            lo = mid
    return result(u, iterations, (lo, u))


class TestRecomputationOracle:
    """The result is the search's own probe at lambda_star, and equals
    (trace included) a final recomputation of ghc, cost and KL there."""

    def test_seeded_instances(self):
        bisected = 0
        for t, w, S in seeded_instances():
            got = ccghc(t, w, S)
            assert got == _recomputing_ccghc(t, w, S)
            bisected += got.iterations > 0
        assert bisected > 50

    @pytest.mark.parametrize("k", range(1, 8))
    def test_facade(self, k):
        t, w, S = facade_instance(k)
        assert ccghc(t, w, S) == _recomputing_ccghc(t, w, S)

    @pytest.fixture
    def merges(self, monkeypatch):
        calls = []
        monkeypatch.setattr(CCGHC_MODULE, "ghc",
                            lambda x: calls.append(x) or ghc(x))
        return calls

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_one_ghc_merge_per_probe(self, merges, k):
        res = ccghc(*facade_instance(k))
        assert len(merges) == len(res.trace)
        if k == 7:
            assert len(merges) == 37

    def test_one_ghc_merge_without_bisection(self, merges):
        res = ccghc(T3, W3, "0.245")
        assert res.lambda_star == 0.0 and len(merges) == len(res.trace) == 1


class TestFloatResolution:
    """The bisection ends when no float lies strictly inside the bracket,
    so an eps below the float spacing of lambda_star converges instead of
    probing the same midpoint again."""

    def test_eps_below_float_spacing(self):
        t, w, S = facade_instance(3)
        res = ccghc(t, w, S, eps=1e-20)
        lo, u = res.bracket
        assert u == np.nextafter(lo, np.inf)
        assert res.lambda_star == u
        assert res.d.lengths == ccghc(t, w, S).d.lengths
        lams = [e.lam for e in res.trace]
        assert len(set(lams)) == len(lams)
        assert res.iterations == len(lams) - 6  # probes 0, 1, 2, 4, 8, 16


class TestUnsupportedCheapSymbol:
    """A zero-target symbol far cheaper than the rest must not drag the
    tilted weights of the others down to underflow."""

    T = Pmf(np.array([0.0, 0.25, 0.25, 0.25, 0.25]))
    W = CostVector(("0", "10", "10.001", "10.002", "10.003"))

    def test_result(self):
        res = ccghc(self.T, self.W, "10.0012")
        assert res.d.lengths == (None, 1, 2, 3, 3)
        assert res.kl == pytest.approx(0.25, abs=1e-12)
        assert res.cost_exact == Fraction(80007, 8000)  # 10.000875
        assert res.lambda_star == pytest.approx(400, abs=1e-6)

    def test_same_as_without_the_symbol(self):
        res = ccghc(self.T, self.W, "10.0012")
        alone = ccghc(Pmf.uniform(4), CostVector(self.W.exact[1:]),
                      "10.0012")
        assert res.d.lengths[1:] == alone.d.lengths
        assert (res.lambda_star, res.cost_exact) == (alone.lambda_star,
                                                     alone.cost_exact)

    def test_tilt_keeps_exact_zeros(self):
        x = tilt(self.T, self.W, 1e6)
        assert x.weights[0] == 0.0
        assert x.weights[1] == 0.25


class TestBlockThree:
    """The shipped k=3 matcher table is this exact computation."""

    def test_reproduces_shipped_matcher(self):
        from dymatch.facade import matcher_code
        tk = kronecker_pmf(T3, 3)
        vk = kronecker_cost(W3, 3)
        res = ccghc(tk, vk, 3 * as_fraction("0.2063"))
        want = {sym: len(bits) for sym, bits in matcher_code().entries}
        blocks = ("".join(p) for p in itertools.product("lrm", repeat=3))
        assert dict(zip(blocks, res.d.lengths)) == want

    def test_strict_budget_fixture(self):
        # captured from the first certified run at S' = 0.206
        tk = kronecker_pmf(T3, 3)
        vk = kronecker_cost(W3, 3)
        res = ccghc(tk, vk, 3 * as_fraction("0.206"))
        assert res.lambda_star == pytest.approx(10.256410, abs=1e-5)
        assert float(res.cost_exact) / 3 == pytest.approx(0.202005208,
                                                          abs=1e-8)
        assert res.kl / 3 == pytest.approx(0.111004167, abs=1e-8)
        assert res.cost_exact / 3 <= as_fraction("0.206")
        loose = ccghc(tk, vk, 3 * as_fraction("0.2063"))
        assert res.kl > loose.kl  # stricter budget costs divergence


class TestLagrangianOptimality:
    def test_result_dominates_enumeration(self):
        # Ghc on the tilted target minimizes kl + lambda*cost over all
        # dyadic pmfs; the enumerated optimum cannot beat it
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            t = random_pmf(rng, m)
            w = random_costs(rng, m)
            lo = min(w.exact)
            hi = sum(f * e for f, e in zip(t, w.exact))
            S = float(lo) + 0.6 * (float(hi) - float(lo))
            res = ccghc(t, w, round(S, 4))
            rival = brute_force_dyadic(tilt(t, w, res.lambda_star), 8)
            got = objective(res.d, t, w, res.lambda_star)
            best = objective(rival, t, w, res.lambda_star)
            assert got <= best + 1e-10
