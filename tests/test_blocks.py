"""Blocklength extension: convergence records, chord, achievability."""
import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dymatch import (CostVector, Pmf, SizeCapError, achievability_check,
                     as_fraction, average_cost_exact, ccghc, chord,
                     convergence_sweep, ghc, kl_divergence, kronecker_cost,
                     kronecker_pmf, solve_simplex, sweep_csv, tilt)
from conftest import random_costs, random_pmf

BLOCKS_MODULE = importlib.import_module("dymatch.blocks")

S = as_fraction("0.2063")


@pytest.fixture(scope="module")
def records():
    from dymatch.facade import SLAT_COSTS, TARGET
    return convergence_sweep(TARGET, SLAT_COSTS, S, 4)


class TestConvergenceSweep:
    def test_one_record_per_k(self, records):
        assert [r.k for r in records] == [1, 2, 3, 4]

    def test_every_record_feasible(self, records):
        assert all(r.cost_per_symbol <= float(S) + 1e-15 for r in records)

    def test_gap_nonnegative(self, records):
        assert all(r.gap >= -1e-12 for r in records)

    def test_k3_point(self, records):
        r = records[2]
        assert r.kl_per_symbol == pytest.approx(0.069338, abs=1e-6)
        assert r.cost_per_symbol == pytest.approx(0.206068, abs=1e-6)
        assert r.lambda_star == pytest.approx(9.230769, abs=1e-5)

    def test_gap_definition(self, records, facade_t, facade_w):
        d_opt = solve_simplex(facade_t, facade_w, float(S)).D
        for r in records:
            assert r.gap == pytest.approx(r.kl_per_symbol - d_opt, abs=1e-12)

    def test_gap_shrinks_from_k1(self, records):
        assert records[-1].gap < records[0].gap

    def test_operating_points_above_curve(self, records, facade_t, facade_w):
        # Every feasible dyadic point sits on or above D(E)
        for r in records:
            if r.cost_per_symbol <= 0.18:
                continue  # D(E) only defined above the min cost
            d_at_cost = solve_simplex(facade_t, facade_w,
                                      r.cost_per_symbol).D
            assert r.kl_per_symbol >= d_at_cost - 1e-12

    def test_size_cap_honored(self, facade_t, facade_w):
        with pytest.raises(SizeCapError):
            convergence_sweep(facade_t, facade_w, S, 15)

    def test_size_cap_checked_before_solving(self, facade_t, facade_w,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(BLOCKS_MODULE, "ccghc",
                            lambda *a, **kw: calls.append(a))
        with pytest.raises(SizeCapError):
            convergence_sweep(facade_t, facade_w, S, 15)
        assert calls == []

    def test_csv_shape(self, records):
        lines = sweep_csv(records).strip().splitlines()
        assert lines[0] == "k,kl_per_symbol,cost_per_symbol,lambda_star,gap"
        assert len(lines) == 5

    def test_csv_text_pinned(self):
        # the exact text, CRLF line ends and float reprs included
        records = [
            BLOCKS_MODULE.ConvergenceRecord(1, 0.1, 0.2063, 0.0, -1.5e-17),
            BLOCKS_MODULE.ConvergenceRecord(
                2, 0.06933815087417476, 0.20606837606837605,
                9.230769230769232, 1e-300),
            BLOCKS_MODULE.ConvergenceRecord(10, 1.0, 2.5e16, math.inf,
                                            math.nan)]
        assert sweep_csv(records) == (
            "k,kl_per_symbol,cost_per_symbol,lambda_star,gap\r\n"
            "1,0.1,0.2063,0.0,-1.5e-17\r\n"
            "2,0.06933815087417476,0.20606837606837605,9.230769230769232,"
            "1e-300\r\n"
            "10,1.0,2.5e+16,inf,nan\r\n")


def distance_limit(t, w) -> tuple:
    """The cheapest supported cost and D's limit there, -log2 of the
    target's mass on the symbols of that cost."""
    supported = t.probs > 0
    cheapest = float(w.costs[supported].min())
    return cheapest, -math.log2(float(
        t.probs[supported & (w.costs == cheapest)].sum()))


@st.composite
def chord_instances(draw):
    """2-6 symbols with target weights from {0, 0.3, 1, 2.5}, some 0, and
    costs in hundredths from 0.05 to 0.4, often tied but not all equal; a
    budget E* from just above the cheapest supported cost to past w^T t;
    and a fraction of the distance room left above D(E*), from 1e-6 to
    1.5, for epsilon."""
    m = draw(st.integers(2, 6))
    x = draw(st.lists(st.sampled_from((0.0, 0.3, 1.0, 2.5)), min_size=m,
                      max_size=m).filter(any))
    cents = draw(st.lists(st.integers(5, 40), min_size=m, max_size=m)
                 .filter(lambda c: min(c) < max(c)))
    t = Pmf(np.array(x) / sum(x))
    w = CostVector([Fraction(c, 100) for c in cents])
    cheapest = float(w.costs[t.probs > 0].min())
    wt = float(np.dot(t.probs, w.costs))
    E_star = cheapest + max(wt - cheapest, 0.01) * draw(st.floats(1e-3, 1.2))
    return t, w, E_star, draw(st.floats(1e-6, 1.5))


class TestChord:
    def test_facade_fixture(self, facade_t, facade_w):
        # captured from the first certified run
        ch = chord(facade_t, facade_w, 0.2063, 0.01)
        assert ch.E_prime == pytest.approx(0.20502984, abs=1e-7)
        assert ch.E_mid == pytest.approx(0.20566492, abs=1e-7)
        assert ch.xi == pytest.approx(7.873023, abs=1e-5)

    def test_ordering_invariant(self, facade_t, facade_w):
        ch = chord(facade_t, facade_w, 0.2063, 0.01)
        assert ch.E_prime < ch.E_mid < 0.2063
        assert ch.xi > 0

    def test_chord_steeper_than_tangent(self, facade_t, facade_w):
        lam = solve_simplex(facade_t, facade_w, 0.2063).lam
        for eps in (1e-4, 1e-3, 1e-2):
            assert chord(facade_t, facade_w, 0.2063, eps).xi > lam

    def test_tends_to_tangent(self, facade_t, facade_w):
        lam = solve_simplex(facade_t, facade_w, 0.2063).lam
        gaps = [chord(facade_t, facade_w, 0.2063, eps).xi - lam
                for eps in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[2] < 5e-3

    def test_epsilon_too_large(self, facade_t, facade_w):
        with pytest.raises(ValueError):
            chord(facade_t, facade_w, 0.2063, 0.6)

    def test_epsilon_lost_in_d(self, facade_t, facade_w):
        # D(0.2063) + 1e-19 == D(0.2063), so the chord has one point
        with pytest.raises(ValueError, match="is lost in"):
            chord(facade_t, facade_w, 0.2063, 1e-19)

    @pytest.mark.parametrize("epsilon", [1e-17, 1e-16, 1e-15, 1e-14,
                                         1e-13, 1e-12, 1e-10])
    def test_epsilon_too_small_for_xi(self, facade_t, facade_w, epsilon):
        # D moves by a few ulps, so xi divides two differences of a few
        # ulps each and lands outside the tangent slopes, 5.0 at 1e-17
        # against lam(E*) = 7.5329
        with pytest.raises(ValueError, match="outside the tangent slopes"):
            chord(facade_t, facade_w, 0.2063, epsilon)

    @pytest.mark.parametrize("epsilon", [1e-8, 1e-6, 1e-4])
    def test_xi_between_tangent_slopes(self, facade_t, facade_w, epsilon):
        lam = solve_simplex(facade_t, facade_w, 0.2063).lam
        ch = chord(facade_t, facade_w, 0.2063, epsilon)
        assert lam < ch.xi < solve_simplex(facade_t, facade_w, ch.E_prime).lam

    def test_nan_rejected(self, facade_t, facade_w):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            chord(facade_t, facade_w, 0.2063, math.nan)
        with pytest.raises(ValueError, match="budget must be a number"):
            chord(facade_t, facade_w, math.nan, 0.01)

    def test_chord_hits_target_distance(self, facade_t, facade_w):
        ch = chord(facade_t, facade_w, 0.2063, 0.01)
        d_star = solve_simplex(facade_t, facade_w, 0.2063).D
        d_prime = solve_simplex(facade_t, facade_w, ch.E_prime).D
        assert d_prime == pytest.approx(d_star + 0.01, abs=1e-9)

    @pytest.mark.parametrize("below", [1e-9, 1e-12])
    def test_epsilon_just_below_the_limit(self, facade_t, facade_w, below):
        # D rises toward -log2(2/3), the target's mass on the two cheapest
        # symbols, so a target just below it has a cut point just above
        # the cheapest cost 0.18
        d_star = solve_simplex(facade_t, facade_w, 0.2063).D
        epsilon = -math.log2(2 / 3) - d_star - below
        ch = chord(facade_t, facade_w, 0.2063, epsilon)
        assert 0.18 < ch.E_prime < 0.18 + 1e-8
        d_prime = solve_simplex(facade_t, facade_w, ch.E_prime).D
        assert d_prime == pytest.approx(d_star + epsilon, abs=1e-9)

    def test_epsilon_at_the_limit(self, facade_t, facade_w):
        d_star = solve_simplex(facade_t, facade_w, 0.2063).D
        epsilon = -math.log2(2 / 3) - d_star
        with pytest.raises(ValueError, match="to D's limit"):
            chord(facade_t, facade_w, 0.2063, epsilon)

    def test_no_distance_range_above_the_cheapest_cost(self):
        # every supported symbol costs 0.2, so D(E*) = 0 is already D's
        # limit; epsilon is refused by name, not by a solve at a budget
        # of the cheapest cost
        t = Pmf(np.array([0.5, 0.5, 0.0]))
        w = CostVector(("0.2", "0.2", "0.5"))
        with pytest.raises(ValueError, match="epsilon 0.01 takes"):
            chord(t, w, 0.3, 0.01)

    def test_epsilon_within_float_noise_of_the_limit(self):
        # D in floats may stop a few ulps short of a target this close to
        # its limit, or reach it only where E' rounds to the cheapest
        # cost; either is refused, and what is returned lies on the curve
        rng = np.random.default_rng(0)
        refused = 0
        for _ in range(400):
            m = int(rng.integers(2, 7))
            t, w = random_pmf(rng, m), random_costs(rng, m)
            cheapest, limit = distance_limit(t, w)
            wt = float(np.dot(t.probs, w.costs))
            E_star = cheapest + (wt - cheapest) * rng.uniform(0.05, 1.1)
            d_star = solve_simplex(t, w, E_star).D
            for epsilon in (np.nextafter(limit - d_star, 0),
                            limit - d_star - 1e-15):
                try:
                    ch = chord(t, w, E_star, float(epsilon))
                except ValueError:
                    refused += 1
                    continue
                assert ch.E_prime > cheapest
                assert solve_simplex(t, w, ch.E_prime).D == pytest.approx(
                    d_star + epsilon, abs=1e-9)
        assert 0 < refused < 800

    @given(chord_instances())
    def test_chord_range_property(self, instance):
        # chord refuses every epsilon that takes D(E*) to or past D's
        # limit -log2 T_C; whatever it returns lies on the curve above the
        # cheapest supported cost
        t, w, E_star, fraction = instance
        cheapest, limit = distance_limit(t, w)
        d_star = solve_simplex(t, w, E_star).D
        room = limit - d_star
        epsilon = fraction * (room if room > 0 else 1.0)
        if d_star + epsilon >= limit:
            with pytest.raises(ValueError):
                chord(t, w, E_star, epsilon)
            return
        try:
            ch = chord(t, w, E_star, epsilon)
        except ValueError:
            return  # epsilon too small to resolve the chord
        assert ch.E_prime > cheapest
        assert solve_simplex(t, w, ch.E_prime).D == pytest.approx(
            d_star + epsilon, abs=1e-9)


def _nested_chord(t, w, E_star, epsilon):
    # the earlier chord: a bisection on E whose every step runs a full
    # solve_simplex
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sol = solve_simplex(t, w, E_star)
    target = sol.D + epsilon
    w_min = float(w.costs[t.probs > 0].min())
    lo = w_min + 1e-9 * (sol.E - w_min)
    if solve_simplex(t, w, lo).D <= target:
        raise ValueError("epsilon too large")
    hi = sol.E
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if solve_simplex(t, w, mid).D > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(sol.E)):
            break
    prime = solve_simplex(t, w, 0.5 * (lo + hi))
    xi = (prime.D - sol.D) / (sol.E - prime.E)
    return prime.E, 0.5 * (prime.E + sol.E), xi


class TestChordOracle:
    """chord's search on the multiplier lands where the earlier
    bisection on E, nested around solve_simplex, did."""

    @staticmethod
    def _agree(t, w, E_star, epsilon):
        try:
            want = _nested_chord(t, w, E_star, epsilon)
        except ValueError:
            with pytest.raises(ValueError):
                chord(t, w, E_star, epsilon)
            return False
        got = chord(t, w, E_star, epsilon)
        assert got.E_prime == pytest.approx(want[0], rel=0, abs=1e-10)
        assert got.E_mid == pytest.approx(want[1], rel=0, abs=1e-10)
        assert got.xi == pytest.approx(want[2], rel=1e-6)
        return True

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 1e-2])
    def test_facade(self, facade_t, facade_w, epsilon):
        assert self._agree(facade_t, facade_w, 0.2063, epsilon)

    def test_seeded_instances(self):
        rng = np.random.default_rng(5)
        agreed = 0
        for _ in range(40):
            m = int(rng.integers(2, 7))
            t, w = random_pmf(rng, m), random_costs(rng, m)
            lo, hi = float(w.costs.min()), float(np.dot(t.probs, w.costs))
            E_star = lo + (hi - lo) * rng.uniform(0.05, 1.1)
            epsilon = float(10.0 ** rng.uniform(-4, 0))
            agreed += self._agree(t, w, E_star, epsilon)
        # both outcomes occur: agreement and the same refusal
        assert 0 < agreed < 40

    def test_solve_simplex_once(self, facade_t, facade_w, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_simplex(*args)

        monkeypatch.setattr(BLOCKS_MODULE, "solve_simplex", counted)
        for epsilon in (1e-4, 1e-3, 1e-2, 0.6):
            calls.clear()
            try:
                chord(facade_t, facade_w, 0.2063, epsilon)
            except ValueError:
                pass
            assert len(calls) == 1


class TestAchievability:
    def test_facade_small_k(self, facade_t, facade_w):
        for k in (1, 2, 3):
            ok, rec = achievability_check(facade_t, facade_w, S, 0.01, k)
            assert ok
            assert rec.k == k
            assert rec.cost_per_symbol <= float(S) + 1e-15

    def test_facade_k6(self, facade_t, facade_w):
        ok, rec = achievability_check(facade_t, facade_w, S, 0.01, 6)
        assert ok

    def test_budget_past_float_range(self, facade_t, facade_w):
        # named in a ValueError, as the sweep names it, not raised as an
        # OverflowError
        for run in (lambda: achievability_check(facade_t, facade_w, "1e400",
                                                0.01, 2),
                    lambda: convergence_sweep(facade_t, facade_w, "1e400",
                                              2)):
            with pytest.raises(ValueError,
                               match=r"budget 1e\+400 is past the float"):
                run()

    def test_trivially_feasible_instance(self):
        # ghc(t) alone satisfies the budget
        t = Pmf(np.array([0.5, 0.25, 0.25]))
        w = random_costs(np.random.default_rng(0), 3)
        budget = float(sum(f * c for f, c in zip(t, w.exact))) + 0.1
        ok, rec = achievability_check(t, w, round(budget, 4), 0.01, 1)
        assert ok

    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            t = random_pmf(rng, 3)
            w = random_costs(rng, 3)
            lo, hi = float(min(w.exact)), float(
                sum(f * c for f, c in zip(t, w.exact)))
            budget = round(lo + rng.uniform(0.2, 0.9) * (hi - lo), 4)
            for k in (1, 2, 3, 4):
                ok, _ = achievability_check(t, w, budget, 0.01, k)
                assert ok, (list(t), [str(c) for c in w.exact], budget, k)


class TestLagrangianDominanceOnTrace:
    def test_probes_beat_chord_point(self, facade_t, facade_w):
        # each probe minimizes its own Lagrangian over all
        # dyadic pmfs, so the chord-tilt point can never improve on it
        k = 2
        tk = kronecker_pmf(facade_t, k)
        vk = kronecker_cost(facade_w, k)
        res = ccghc(tk, vk, k * S)
        xi = chord(facade_t, facade_w, float(S), 0.01).xi
        d_xi = ghc(tilt(tk, vk, xi))
        kl_xi = kl_divergence(Pmf(d_xi.probs), tk)
        cost_xi = float(average_cost_exact(d_xi, vk))
        for probe in res.trace:
            lhs = probe.kl + probe.lam * probe.cost
            rhs = kl_xi + probe.lam * cost_xi
            assert lhs <= rhs + 1e-12
