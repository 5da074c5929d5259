"""The relaxed problem: tilted family, tradeoff curve, geometry."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dymatch import (CostVector, InfeasibleConstraintError, Pmf,
                     average_cost, cost_of_lambda, curve_csv,
                     distance_cost_curve, geometry_identity_residual,
                     kl_divergence, solve_simplex, tilted_pmf)
from conftest import random_costs, random_pmf

T3 = Pmf.uniform(3)
W3 = CostVector(("0.18", "0.18", "0.31"))
WT3 = 0.67 / 3  # w^T t for the instance above


class TestTiltedPmf:
    def test_lambda_zero_is_target(self):
        assert tilted_pmf(T3, W3, 0.0) == T3

    def test_large_lambda_concentrates_on_cheapest(self):
        p = tilted_pmf(T3, W3, 1e3)
        # symbols 0 and 1 share the minimum cost
        assert p[0] == pytest.approx(0.5, abs=1e-6)
        assert p[1] == pytest.approx(0.5, abs=1e-6)
        assert p[2] == pytest.approx(0.0, abs=1e-6)

    def test_zero_target_symbols_stay_zero(self):
        t = Pmf(np.array([0.0, 0.5, 0.5]))
        w = CostVector(("0.1", "0.5", "0.9"))
        p = tilted_pmf(t, w, 3.0)
        assert p[0] == 0.0
        assert sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_overflow_guard_at_huge_lambda(self):
        p = tilted_pmf(T3, W3, 1e6)
        assert np.isfinite(p.probs).all()


class TestCostOfLambda:
    def test_zero_gives_mean_cost(self):
        assert cost_of_lambda(T3, W3, 0.0) == pytest.approx(WT3, abs=1e-15)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 100.0, 201)
        vals = [cost_of_lambda(T3, W3, lam) for lam in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_limit_is_min_cost(self):
        assert cost_of_lambda(T3, W3, 1e3) == pytest.approx(0.18, abs=1e-9)

    def test_equals_cost_of_tilted_pmf(self):
        # the bisection's shortcut takes the same dot product as building
        # the Pmf and asking for its average cost, bit for bit
        rng = np.random.default_rng(5)
        for _ in range(60):
            m = int(rng.integers(2, 9))
            t, w = random_pmf(rng, m), random_costs(rng, m)
            if rng.random() < 0.3:
                probs = t.probs.copy()
                probs[int(rng.integers(m))] = 0.0
                if probs.sum() == 0:
                    continue
                t = Pmf(probs / probs.sum())
            for lam in (0.0, *rng.uniform(0.0, 50.0, 5), 1e3):
                assert cost_of_lambda(t, w, lam) == average_cost(
                    tilted_pmf(t, w, lam), w)


class TestSolveSimplex:
    def test_slack_constraint_returns_target(self):
        sol = solve_simplex(T3, W3, 0.5)
        assert sol.p_star == T3
        assert sol.lam == 0.0
        assert sol.D == 0.0
        assert sol.E == pytest.approx(WT3, abs=1e-15)

    def test_boundary_budget_is_unconstrained(self):
        sol = solve_simplex(T3, W3, WT3)
        assert sol.lam == 0.0 and sol.D == 0.0

    def test_facade_instance(self):
        sol = solve_simplex(T3, W3, 0.2063)
        assert sol.p_star[0] == pytest.approx(0.3988, abs=5e-4)
        assert sol.p_star[1] == pytest.approx(0.3988, abs=5e-4)
        assert sol.p_star[2] == pytest.approx(0.2023, abs=5e-4)
        assert sol.D == pytest.approx(0.06066, abs=1e-4)
        assert sol.lam == pytest.approx(7.532932, abs=1e-5)
        assert sol.E == pytest.approx(0.2063, abs=1e-12)

    def test_achieved_cost_matches_budget(self):
        sol = solve_simplex(T3, W3, 0.19)
        assert average_cost(sol.p_star, W3) == pytest.approx(0.19, abs=1e-12)

    def test_infeasible_below_min_cost(self):
        with pytest.raises(InfeasibleConstraintError):
            solve_simplex(T3, W3, 0.17)
        with pytest.raises(InfeasibleConstraintError):
            solve_simplex(T3, W3, 0.18)  # attained only in the limit

    def test_uniform_costs_degenerate(self):
        with pytest.raises(ValueError):
            solve_simplex(T3, CostVector(("0.2", "0.2", "0.2")), 0.2)

    def test_kkt_stationarity(self):
        # log2 p* - log2 t + lam*w constant across the support
        sol = solve_simplex(T3, W3, 0.2063)
        vals = [np.log2(sol.p_star[i]) - np.log2(T3[i]) + sol.lam * W3[i]
                for i in range(3)]
        assert max(vals) - min(vals) < 1e-10

    def test_agrees_with_generic_convex_solver(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            t = random_pmf(rng, m, floor=0.02)
            w = random_costs(rng, m)
            wt = average_cost(t, w)
            wmin = min(w[i] for i in range(m))
            E = wmin + float(rng.uniform(0.1, 0.9)) * (wt - wmin)
            sol = solve_simplex(t, w, E)
            p = cp.Variable(m, nonneg=True)
            prob = cp.Problem(
                cp.Minimize(cp.sum(cp.kl_div(p, np.asarray(t.probs)))),
                [cp.sum(p) == 1, np.asarray(w.costs) @ p <= E])
            prob.solve(solver="CLARABEL", tol_gap_abs=1e-13,
                       tol_gap_rel=1e-13, tol_feas=1e-13)
            # the optimum agrees tightly; primal iterates carry
            # interior-point noise near the boundary, so compare looser
            assert abs(prob.value / np.log(2) - sol.D) < 1e-8
            assert np.max(np.abs(p.value - sol.p_star.probs)) < 1e-6


def small_instances(seed, n):
    """Instances shaped like perfbench's random-small workload: 3-8
    symbols, distinct 4-decimal costs in [0.05, 1], an exponential-draw
    target, and a 4-decimal budget between the mean of the two cheapest
    costs and w^T t."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        m = 3 + i % 6
        cents = rng.sample(range(500, 10001), m)
        x = [rng.expovariate(1.0) for _ in range(m)]
        t = [v / math.fsum(x) for v in x]
        a, b = sorted(cents)[:2]
        lo = (a + b + 1) // 2
        wt = math.floor(sum(p * c for p, c in zip(t, cents)))
        out.append((Pmf(np.array(t)), [Fraction(c, 10000) for c in cents],
                    Fraction(rng.randint(lo, max(lo, wt)), 10000)))
    return out


class TestUnitInvariance:
    """Rescaling the costs (and the budget) by 10^j rescales E by 10^j and
    lam by 10^-j and leaves D alone. With costs in the thousands COST_TOL
    is finer than the float spacing of E, so success must not hinge on
    meeting it."""

    def test_scaled_costs(self):
        for t, w, S in small_instances(7, 60):
            base = solve_simplex(t, CostVector(w), float(S))
            for j in range(1, 9):
                s = 10 ** j
                sol = solve_simplex(t, CostVector([c * s for c in w]),
                                    float(S * s))
                assert abs(sol.D - base.D) <= 1e-9
                assert sol.lam * s == pytest.approx(base.lam, rel=1e-7)
                assert sol.E / s == pytest.approx(base.E, rel=1e-11)


class TestDistanceCostCurve:
    GRID = np.linspace(0.181, 0.223, 50)

    def test_strictly_convex(self):
        pts = distance_cost_curve(T3, W3, self.GRID)
        D = [p.D for p in pts]
        second = [D[i - 1] - 2 * D[i] + D[i + 1] for i in range(1, len(D) - 1)]
        assert min(second) > 0

    def test_decreasing_in_e(self):
        pts = distance_cost_curve(T3, W3, self.GRID)
        assert all(a.D > b.D for a, b in zip(pts, pts[1:]))

    def test_lambda_is_negative_slope(self):
        # central difference at each grid point, h in E
        h = 1e-6
        for E in np.linspace(0.182, 0.222, 9):
            lam = solve_simplex(T3, W3, float(E)).lam
            slope = (solve_simplex(T3, W3, float(E) + h).D
                     - solve_simplex(T3, W3, float(E) - h).D) / (2 * h)
            assert lam == pytest.approx(-slope, abs=1e-4)

    def test_lambda_brackets_secant_slope(self):
        # mean value theorem on a convex decreasing curve
        pts = distance_cost_curve(T3, W3, self.GRID)
        for a, b in zip(pts, pts[1:]):
            secant = -(b.D - a.D) / (b.E - a.E)
            assert b.lam - 1e-9 <= secant <= a.lam + 1e-9

    def test_rejects_grid_at_mean_cost(self):
        with pytest.raises(ValueError):
            distance_cost_curve(T3, W3, [0.2, WT3 + 1e-3])

    def test_csv_shape(self):
        pts = distance_cost_curve(T3, W3, [0.19, 0.20])
        text = curve_csv(pts)
        lines = text.strip().splitlines()
        assert lines[0] == "E,D,lambda"
        assert len(lines) == 3


class TestGeometryIdentity:
    def test_at_the_optimum(self):
        sol = solve_simplex(T3, W3, 0.2063)
        assert geometry_identity_residual(sol.p_star, T3, W3,
                                          0.2063) < 1e-12

    def test_at_the_target(self):
        assert geometry_identity_residual(T3, T3, W3, 0.2063) < 1e-10

    def test_random_pmfs(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            p = random_pmf(rng, 3)
            worst = max(worst,
                        geometry_identity_residual(p, T3, W3, 0.2063))
        assert worst < 1e-10

    def test_support_violation(self):
        t = Pmf(np.array([0.0, 0.5, 0.5]))
        w = CostVector(("0.1", "0.5", "0.9"))
        bad = Pmf(np.array([0.2, 0.4, 0.4]))
        with pytest.raises(ValueError):
            geometry_identity_residual(bad, t, w, 0.6)

    def test_tangent_line_lower_bound(self):
        # kl(p||p*) >= 0 puts every operating point above the tangent
        sol = solve_simplex(T3, W3, 0.2063)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_pmf(rng, 3)
            E = average_cost(p, W3)
            D = kl_divergence(p, T3)
            tangent = sol.D - sol.lam * (E - sol.E)
            assert D >= tangent - 1e-12
