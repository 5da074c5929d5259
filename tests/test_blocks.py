"""Blocklength extension: convergence records, chord, achievability."""
import importlib

import numpy as np
import pytest

from dymatch import (Pmf, SizeCapError, achievability_check, as_fraction,
                     average_cost_exact, ccghc, chord, convergence_sweep,
                     ghc, kl_divergence, kronecker_cost, kronecker_pmf,
                     solve_simplex, sweep_csv, tilt)
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

    def test_chord_hits_target_distance(self, facade_t, facade_w):
        ch = chord(facade_t, facade_w, 0.2063, 0.01)
        d_star = solve_simplex(facade_t, facade_w, 0.2063).D
        d_prime = solve_simplex(facade_t, facade_w, ch.E_prime).D
        assert d_prime == pytest.approx(d_star + 0.01, abs=1e-9)


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
    """chord's one bisection on the multiplier lands where the earlier
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

    def test_solve_simplex_at_most_twice(self, facade_t, facade_w,
                                         monkeypatch):
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
            assert len(calls) <= 2


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
        # each bisection probe minimizes its own Lagrangian over all
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
