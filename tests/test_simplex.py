"""The relaxed problem: tilted family, tradeoff curve, geometry."""
import importlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dymatch import (ConvergenceError, CostVector,
                     InfeasibleConstraintError, Pmf, average_cost, chord,
                     curve_csv, distance_cost_curve,
                     geometry_identity_residual, kl_divergence,
                     solve_simplex, tilted_pmf)
from conftest import random_costs, random_pmf, random_small_symbols

SIMPLEX = importlib.import_module("dymatch.simplex")
CCGHC_MODULE = importlib.import_module("dymatch.ccghc")

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


def cost_of_lambda(t, w, lam) -> float:
    """The cost of the normalized tilt at multiplier lam."""
    return average_cost(tilted_pmf(t, w, lam), w)


class TestCostOfLambda:
    """The tilt's cost f(lam), which solve_simplex inverts."""

    def test_zero_gives_mean_cost(self):
        assert cost_of_lambda(T3, W3, 0.0) == pytest.approx(WT3, abs=1e-15)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 100.0, 201)
        vals = [cost_of_lambda(T3, W3, lam) for lam in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_limit_is_min_cost(self):
        assert cost_of_lambda(T3, W3, 1e3) == pytest.approx(0.18, abs=1e-9)

    def test_equals_cost_of_tilted_pmf(self):
        # the tilted Pmf's average cost is the dot product the earlier
        # cost_of_lambda took on a target validated and masked afresh,
        # bit for bit, zero targets included
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
                assert cost_of_lambda(t, w, lam) == earlier_cost_of_lambda(
                    t, w, lam)


def earlier_tilt(t, w, lam):
    # the tilt as it was before solve_simplex prepared it once: the
    # target validated and masked at every step
    tp = t.probs
    supported = tp > 0
    costs = w.costs[supported]
    x = np.zeros(len(tp))
    x[supported] = tp[supported] * np.exp2(lam * float(costs.min())
                                           - lam * costs)
    return x


def earlier_cost_of_lambda(t, w, lam) -> float:
    # the public cost_of_lambda as it was before it was removed
    x = earlier_tilt(t, w, lam)
    return float(np.dot(x / x.sum(), w.costs))


class TestPreparedTilt:
    """solve_simplex prepares one tilt per solve, and every step of its
    search gets the tilt, and so the cost, that tilting afresh gave."""

    def test_steps_match_earlier_cost(self, monkeypatch):
        steps = []

        class Recorded(SIMPLEX._Tilt):
            def __call__(self, lam):
                steps.append((lam, super().__call__(lam)))
                return steps[-1][1]

        monkeypatch.setattr(SIMPLEX, "_Tilt", Recorded)
        for t, costs, S in small_instances(3, 40):
            w = CostVector(costs)
            steps.clear()
            sol = solve_simplex(t, w, float(S))
            # the returned p* is the last step's normalized tilt
            if sol.lam == 0.0:
                assert not steps
            else:
                lam, x = steps[-1]
                assert lam == sol.lam and 1 <= len(steps) <= 20
                assert np.array_equal(sol.p_star.probs, x / x.sum())
            for lam, x in steps:
                p = x / x.sum()
                want = earlier_tilt(t, w, lam)
                assert np.array_equal(p, want / want.sum())
                assert float(np.dot(p, w.costs)) == earlier_cost_of_lambda(
                    t, w, lam)

    def test_one_tilt_per_solve(self, monkeypatch):
        # the search's tilt also gives the returned tilted pmf
        made = []

        class Counted(SIMPLEX._Tilt):
            def __init__(self, t, w):
                made.append(len(w))
                super().__init__(t, w)

        monkeypatch.setattr(SIMPLEX, "_Tilt", Counted)
        monkeypatch.setattr(CCGHC_MODULE, "_Tilt", Counted)
        sol = solve_simplex(T3, W3, 0.2063)
        assert sol.lam > 0
        assert made == [3]

    @pytest.mark.parametrize("t", [[np.nan, 0.5, 0.5], [-0.5, 1.0, 0.5],
                                   [0.0, 0.0, 0.0]])
    def test_cost_of_lambda_rejects_bad_targets(self, t):
        with pytest.raises(ValueError, match="targets must"):
            average_cost(tilted_pmf(np.array(t), W3, 1.0), W3)


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

    def test_nan_budget_rejected(self):
        # NaN fails every comparison, so it read as a slack budget
        with pytest.raises(ValueError, match="budget must be a number"):
            solve_simplex(T3, W3, math.nan)

    def test_uniform_costs_degenerate(self):
        with pytest.raises(ValueError):
            solve_simplex(T3, CostVector(("0.2", "0.2", "0.2")), 0.2)

    def test_kkt_stationarity(self):
        # log2 p* - log2 t + lam*w constant across the support
        sol = solve_simplex(T3, W3, 0.2063)
        vals = [np.log2(sol.p_star[i]) - np.log2(T3[i]) + sol.lam * W3[i]
                for i in range(3)]
        assert max(vals) - min(vals) < 1e-10

    @pytest.mark.parametrize("E", [
        np.nextafter(0.18, 1.0),
        *(0.18 + float(g) for g in np.geomspace(1e-12, 0.0433, 25))])
    def test_closed_form_on_the_facade(self, E):
        # uniform t and costs (0.18, 0.18, 0.31): p* puts r / (2 + r) on
        # the dear symbol, r = 2^(-0.13 lam), so E = 0.18 + 0.13 r / (2 + r)
        want = math.log2((0.31 - E) / (2 * E - 0.36)) / 0.13
        sol = solve_simplex(T3, W3, E)
        assert sol.lam == pytest.approx(want, rel=1e-9)
        assert abs(sol.E - E) <= 1e-15 * E

    def test_newton_step_capped_while_unbracketed(self):
        # at lam = 0 the cost's variance is about 1e-300, so the first
        # Newton step would land near 7e299; the doubling caps it, and
        # p* = (1/2, 1/2) at lam = log2((1 - 1e-300) / 1e-300)
        t = Pmf(np.array([1e-300, 1.0]))
        sol = solve_simplex(t, CostVector(("0", "1")), 0.5)
        assert sol.lam == pytest.approx(math.log2(1e300), rel=1e-12)
        assert sol.E == pytest.approx(0.5, rel=1e-13)

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


def bisected_solve_simplex(t, w, E):
    # solve_simplex as it was before its search took Newton steps: a
    # bisection that stopped once the cost was within 1e-12 of E, a
    # tolerance in cost units, or the bracket could not shrink; slack and
    # infeasible budgets left out
    lo, u = 0.0, 1.0
    while earlier_cost_of_lambda(t, w, u) > E:
        lo, u = u, 2.0 * u
    lam = 0.5 * (lo + u)
    while lo < lam < u:
        fe = earlier_cost_of_lambda(t, w, lam)
        if abs(fe - E) <= 1e-12:
            break
        if fe > E:
            lo = lam
        else:
            u = lam
        lam = 0.5 * (lo + u)
    p = tilted_pmf(t, w, lam)
    return lam, average_cost(p, w), kl_divergence(p, t)


class TestEarlierSolver:
    def test_agrees_with_the_bisection(self):
        constrained = 0
        for t, costs, S in small_instances(3, 200):
            w = CostVector(costs)
            sol = solve_simplex(t, w, float(S))
            if sol.lam == 0.0:
                assert float(S) >= average_cost(t, w)
                continue
            constrained += 1
            lam, E, D = bisected_solve_simplex(t, w, float(S))
            assert sol.lam == pytest.approx(lam, rel=1e-8)
            # the bisection stopped up to 1e-12 in cost off the budget,
            # which moves D by up to lam * 1e-12 along the curve, so its
            # D is carried along the tangent to the cost reached now
            assert abs(sol.D - (D - lam * (sol.E - E))) <= 1e-12
        assert constrained > 150


def earlier_search(tilted, w, rising, target, lam, u=math.inf):
    # simplex._search as it was before it returned the solution it stopped
    # at: it returned only the multiplier
    over = w.costs - tilted.cheapest
    spread = float(tilted.costs.max()) - tilted.cheapest
    lo = lam
    while True:
        x = tilted(lam)
        p = x / x.sum()
        gap = float(np.dot(p, over))
        value, slope = rising(p, gap, float(np.dot(p, (over - gap) ** 2)),
                              lam)
        lo, u = (lam, u) if value < target else (lo, lam)
        step = lam + (target - value) / slope if slope > 0 else math.nan
        hi = u if u < math.inf else 2.0 * max(lam, 1 / spread)
        if step != lam and not lo < step < hi:
            step = 0.5 * (lo + u) if u < math.inf else hi
        if not lo < step < u:
            return lam
        if step * spread > 2.0 ** 100:
            raise ConvergenceError("failed to bracket the multiplier")
        lam = step


def earlier_solution(tilted, t, w, lam):
    # simplex._solution as it was: a further tilt at the search's
    # multiplier built the solution
    x = tilted(lam)
    p = Pmf(x / x.sum())
    return SIMPLEX.TiltedSolution(p, lam, average_cost(p, w),
                                  kl_divergence(p, t))


def earlier_solve_simplex(t, w, E):
    # solve_simplex on a constrained budget as it was with the two above;
    # slack and infeasible budgets left out
    tilted = CCGHC_MODULE._Tilt(t, w)
    lam = earlier_search(
        tilted, w, lambda p, gap, var, lam: (-gap, math.log(2) * var),
        tilted.cheapest - E, 0.0)
    return earlier_solution(tilted, t, w, lam)


class TestEarlierSearch:
    """solve_simplex returns, bit for bit, what it returned when its
    search gave back only the multiplier and a further tilt there built
    the solution."""

    @pytest.mark.parametrize("instances", [
        lambda: ((t, CostVector(c), S) for t, c, S in small_instances(3, 200)),
        lambda: ((t, w, S) for t, w, S, _ in random_small_symbols())],
        ids=["small_instances", "random_small"])
    def test_same_solution(self, instances):
        constrained = 0
        for t, w, S in instances():
            sol = solve_simplex(t, w, float(S))
            if sol.lam > 0.0:
                constrained += 1
                assert sol == earlier_solve_simplex(t, w, float(S))
        assert constrained > 150


class TestSearchCeiling:
    @pytest.mark.parametrize("j", [-100, 0, 100])
    def test_gives_up_at_a_unit_free_ceiling(self, j):
        # a quantity that never reaches its target doubles the multiplier
        # from 1 / spread until lam * spread passes 2^100, in any unit
        made = []

        class Counted(SIMPLEX._Tilt):
            def __call__(self, lam):
                made.append(lam)
                return super().__call__(lam)

        w = CostVector([c * Fraction(2) ** j for c in W3.exact])
        with pytest.raises(ConvergenceError, match="failed to bracket"):
            SIMPLEX._search(Counted(T3, w), T3, w,
                            lambda p, gap, var, lam: (-1.0, 0.0), 0.0, 0.0)
        spread = 0.13 * 2.0 ** j
        # lam = 0, then lam * spread = 2, 4, ..., 2^100
        assert len(made) == 101
        assert made[-1] * spread == pytest.approx(2.0 ** 100, rel=1e-12)


class TestUnitInvariance:
    """Rescaling the costs (and the budget) by 10^j rescales E by 10^j and
    lam by 10^-j and leaves D alone."""

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

    @pytest.mark.parametrize("j", [-130, -100, -30, -3, 5, 30])
    def test_power_of_two_scaling_is_exact(self, j):
        # every step of the search scales exactly with a power of two
        scale = Fraction(2) ** j
        w = CostVector([c * scale for c in W3.exact])
        E = float(Fraction("0.2063") * scale)
        base, sol = solve_simplex(T3, W3, 0.2063), solve_simplex(T3, w, E)
        assert sol.lam * 2.0 ** j == base.lam
        assert sol.E / 2.0 ** j == base.E
        assert sol.D == base.D
        assert abs(sol.E - E) <= 1e-15 * E
        ch, base_ch = chord(T3, w, E, 0.01), chord(T3, W3, 0.2063, 0.01)
        assert ch.xi * 2.0 ** j == base_ch.xi
        assert ch.E_prime / 2.0 ** j == base_ch.E_prime


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

    def test_csv_text_pinned(self):
        # the exact text, CRLF line ends and float reprs included
        p = Pmf.uniform(2)
        pts = [SIMPLEX.TiltedSolution(p, 0.0, 0.2233333333333333, 0.0),
               SIMPLEX.TiltedSolution(p, 7.873023, 1 / 3, -0.0),
               SIMPLEX.TiltedSolution(p, 1e-320, 12345678901234.5, 0.1)]
        assert curve_csv(pts) == ("E,D,lambda\r\n"
                                  "0.2233333333333333,0.0,0.0\r\n"
                                  "0.3333333333333333,-0.0,7.873023\r\n"
                                  "12345678901234.5,0.1,1e-320\r\n")


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
