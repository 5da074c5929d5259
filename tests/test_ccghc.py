"""Cost-constrained search: bisection on the tilted target."""
import hashlib
import importlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dymatch import (ConvergenceError, CostVector, InfeasibleConstraintError,
                     Pmf, SizeCapError, average_cost_exact, as_fraction,
                     brute_force_dyadic, ccghc, ghc, kl_divergence,
                     kronecker_cost, kronecker_pmf, solve_simplex, tilt)
from dymatch.ghc import _kraft_multisets, group_leaves, merge_classes
from dymatch.pmf import _probs_of
import conftest
from conftest import (assert_matches_oracle, assert_same_as_bisection,
                      class_layout, expand_blocks, heap_ghc, random_costs,
                      random_pmf, random_small_round)

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
        assert np.allclose(x, T3.probs)

    def test_direct_evaluation(self):
        # t_i * 2^(lam (w_min - w_i)) with w_min = 0.18
        x = tilt(T3, W3, 10.0)
        want = [1 / 3, 1 / 3, 2.0 ** -1.3 / 3]
        assert np.allclose(x, want, rtol=0, atol=1e-15)

    def test_array_target_tilts_like_pmf(self):
        x = tilt(T3, W3, 10.0)
        assert type(x) is np.ndarray
        assert np.array_equal(tilt(T3.probs.tolist(), W3, 10.0), x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tilt(T3, CostVector(("0.1", "0.2")), 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_multiplier(self, lam):
        with pytest.raises(ValueError, match="multiplier must be finite"):
            tilt(T3, W3, lam)

    @pytest.mark.parametrize("t, message", [
        ([np.nan, 0.5, 0.5], "finite and non-negative"),
        ([-0.25, 0.75, 0.5], "finite and non-negative"),
        ([np.inf, 0.5, 0.5], "finite and non-negative"),
        ([0.0, 0.0, 0.0], "at least one positive entry")])
    def test_rejects_bad_targets(self, t, message):
        # each is refused by name: NaN and negative entries must not tilt
        # silently to 0, nor an all-zero target fail inside numpy
        with pytest.raises(ValueError, match=message):
            tilt(t, W3, 1.0)

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
        # the probe at 1 has the same KL as the one at 0, so its line
        # meets that of 0 at 0: probes at 0, 1 and lambda_star
        assert len(res.trace) <= 4

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
        # the bisection stops at the first bracket narrower than 2^-32
        # times max(u, 1 / spread), spread = 0.31 - 0.18
        res = ccghc(T3, W3, "0.21")
        lo, u = res.bracket
        scale = max(u, 1 / 0.13)
        assert 2.0 ** -33 * scale <= u - lo < 2.0 ** -32 * scale
        assert res.lambda_star == u

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleConstraintError):
            ccghc(T3, W3, "0.17")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 2"):
            ccghc(T3, CostVector(("0.18", "0.31")), "0.2")

    def test_bracket_gives_up_on_costs_equal_as_floats(self):
        # 1 and 1 + 2^-100 tilt alike, so no multiplier drops the dearer
        # one and the budget 1 + 10^-31 between them is never met
        w = CostVector((1, 1 + Fraction(1, 2 ** 100), 2))
        with pytest.raises(ConvergenceError,
                           match="failed to bracket a feasible multiplier"):
            ccghc(T3, w, 1 + Fraction(1, 10 ** 31))

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
        assert res.lambda_star in [e.lam for e in res.trace]


class TestCeilingOnTheNearestCost:
    """The bracket gives up when lambda times the smallest positive gap
    between a supported cost and the cheapest, not the spread, passes
    2^100: costs (0, 2^-j, 1) and budget 2^-(j + 3) are met by the free
    symbol alone, at lambda_star = 2^(j + 1)."""

    @pytest.mark.parametrize("j", [100, 200])
    def test_free_symbol_alone(self, j):
        w = CostVector((0, Fraction(1, 2 ** j), 1))
        res = ccghc(T3, w, Fraction(1, 2 ** (j + 3)))
        assert res.d.lengths == (0, None, None)
        assert res.cost_exact == 0
        assert res.lambda_star == 2.0 ** (j + 1)


class TestPastCeiling:
    """_past_ceiling reads the costs only once lam * spread passes 2^100,
    and then tests lam times the smallest positive gap from the
    cheapest."""

    def test_costs_unread_below_the_ceiling(self):
        def costs():
            raise AssertionError("costs read below the ceiling")
            yield
        assert not CCGHC_MODULE._past_ceiling(2.0 ** 100, 1.0, costs())
        assert not CCGHC_MODULE._past_ceiling(2.0 ** 99, 2.0, costs())

    @pytest.mark.parametrize("lam, past", [
        (2.0 ** 101, False), (2.0 ** 200, False), (2.0 ** 201, True)])
    def test_nearest_gap(self, lam, past):
        costs = iter([1.0, 2.0 ** -100, 0.0])
        assert CCGHC_MODULE._past_ceiling(lam, 1.0, costs) is past

    def test_spread_where_all_costs_are_equal(self):
        assert CCGHC_MODULE._past_ceiling(2.0 ** 101, 1.0, [0.5, 0.5])


def _unsupported_shift_tilt(t, w):
    # the earlier tilt, shifted by the cheapest cost of any symbol and
    # prepared as _Tilt is; on a fully supported target it must give the
    # very same weights
    def tilted(lam):
        shift = lam * float(w.costs.min())
        return _probs_of(t) * np.exp2(shift - lam * w.costs)
    return tilted


def earlier_tilt(t, w, lam):
    # tilt as it was before it was prepared once per solve: validated and
    # masked at every call
    tp = _probs_of(t)
    supported = tp > 0
    costs = w.costs[supported]
    shift = lam * float(costs.min())
    out = np.zeros(len(tp))
    out[supported] = tp[supported] * np.exp2(shift - lam * costs)
    return out


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
            m.setattr(CCGHC_MODULE, "_Tilt", _unsupported_shift_tilt)
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


class TestPreparedTilt:
    """ccghc prepares one tilt of its class targets per solve, and every
    probe merges the weights that tilting afresh gave."""

    @staticmethod
    def _probe_weights(monkeypatch, t, w, S) -> list:
        """(the weights each probe merged, what earlier_tilt gives on
        ccghc's class targets at that probe's lambda)."""
        keys, _, _ = group_leaves(zip(t.probs.tolist(), w.nums))
        targets = np.array([p for p, _ in keys])
        costs = CostVector._scaled(tuple(n for _, n in keys), w.den)
        merged = []
        with monkeypatch.context() as m:
            m.setattr(CCGHC_MODULE, "merge_classes",
                      lambda *a: merged.append(a[0]) or merge_classes(*a))
            res = ccghc(t, w, S)
        assert len(merged) == len(res.trace)
        return [(got, earlier_tilt(targets, costs, e.lam).tolist())
                for got, e in zip(merged, res.trace)]

    def test_seeded_instances(self, monkeypatch):
        for t, w, S in seeded_instances():
            for got, want in self._probe_weights(monkeypatch, t, w, S):
                assert got == want

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_facade(self, monkeypatch, k):
        pairs = self._probe_weights(monkeypatch, *facade_instance(k))
        # at lambda 0 the k + 1 classes share one weight, and the merge
        # gets them as they were grouped
        got, _ = pairs[0]
        assert len(got) == k + 1 and len(set(got)) == 1
        for got, want in pairs:
            assert got == want

    def test_tilt_is_the_prepared_tilt(self):
        for t, w, _ in itertools.islice(seeded_instances(), 10):
            prepared = CCGHC_MODULE._Tilt(t, w)
            for lam in (0.0, 0.5, 3.0, 40.0):
                want = earlier_tilt(t, w, lam)
                assert np.array_equal(prepared(lam), want)
                assert np.array_equal(tilt(t, w, lam), want)

    def test_one_tilt_per_solve(self, monkeypatch):
        # one tilt of the class targets for all the probes, one of the
        # leaves to certify
        made = []

        class Counted(CCGHC_MODULE._Tilt):
            def __init__(self, t, w):
                made.append(len(w))
                super().__init__(t, w)

        monkeypatch.setattr(CCGHC_MODULE, "_Tilt", Counted)
        t, w, S = facade_instance(4)
        res = ccghc(t, w, S)
        assert len(res.trace) > 5
        assert made == [5, 81]

    def test_one_kl_divergence_per_solve(self, monkeypatch):
        # the probes sum their KL per type class, the facade's tied probe
        # at lambda 0 as well; kl_divergence runs once, on the result
        calls = []
        monkeypatch.setattr(CCGHC_MODULE, "kl_divergence",
                            lambda *a: calls.append(a) or kl_divergence(*a))
        instances = [*seeded_instances(), *map(facade_instance, range(1, 8))]
        for t, w, S in instances:
            calls.clear()
            res = ccghc(t, w, S)
            assert len(calls) == 1
            assert calls[0][0] is res.d


class TestRecomputationOracle:
    """The result is the search's own probe at lambda_star, and equals
    (trace included) a final recomputation of ghc, cost and KL there;
    each probe's KL, summed per type class, agrees with kl_divergence on
    the leaves to KL_AGREEMENT relative."""

    def test_seeded_instances(self):
        bisected = 0
        for t, w, S in seeded_instances():
            got = ccghc(t, w, S)
            assert_matches_oracle(got, t, w, S)
            bisected += got.iterations > 0
        assert bisected > 50

    @pytest.mark.parametrize("k", range(1, 9))
    def test_facade(self, k):
        t, w, S = facade_instance(k)
        assert_matches_oracle(ccghc(t, w, S), t, w, S)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("S", ["0.3", "0.6", "0.9", "1.2"])
    def test_joined_classes(self, k, S):
        # costs 0..3 on a uniform target: for k >= 2 some probe at
        # lam > 0 pairs a run onto the weight of a cheaper type class
        t = kronecker_pmf(Pmf.uniform(4), k)
        w = kronecker_cost(CostVector([0, 1, 2, 3]), k)
        S = k * as_fraction(S)
        assert_matches_oracle(ccghc(t, w, S), t, w, S)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dyadic_cascade(self, k):
        # (1/2, 1/4, 1/4)^k at the facade's costs and budget: the targets
        # are powers of two, so pairs of one class land on the weights of
        # others
        t = kronecker_pmf(Pmf([0.5, 0.25, 0.25]), k)
        w = kronecker_cost(W3, k)
        S = k * as_fraction("0.2063")
        assert_matches_oracle(ccghc(t, w, S), t, w, S)

    @pytest.fixture
    def merges(self, monkeypatch):
        """The class merges and the ghc calls that ccghc makes."""
        calls = {"merge_classes": [], "ghc": []}
        for name, log in calls.items():
            fn = getattr(CCGHC_MODULE, name)
            monkeypatch.setattr(CCGHC_MODULE, name,
                                lambda *a, fn=fn, log=log:
                                log.append(a) or fn(*a))
        return calls

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_one_ghc_merge_per_probe(self, merges, k):
        # one class merge per probe, each the leaf merge of its tilt, and
        # one ghc on the leaves to certify the result
        t, w, S = facade_instance(k)
        _, order, _ = group_leaves(zip(t.probs.tolist(), w.nums))
        res = ccghc(t, w, S)
        assert len(merges["merge_classes"]) == len(res.trace)
        assert len(merges["ghc"]) == 1
        for (weights, starts), probe in zip(merges["merge_classes"],
                                            res.trace):
            assert expand_blocks(weights, order, starts) \
                == heap_ghc(tilt(t, w, probe.lam), order).lengths
        if k == 7:
            assert len(merges["merge_classes"]) == 8

    def test_one_ghc_merge_without_bisection(self, merges):
        res = ccghc(T3, W3, "0.245")
        assert res.lambda_star == 0.0
        assert len(merges["merge_classes"]) == len(res.trace) == 1
        assert len(merges["ghc"]) == 1

    def test_blocks_failing_kraft_raise(self, monkeypatch):
        # a class merge that loses a block fails the probe's Kraft check
        def lose_block(*args):
            return merge_classes(*args)[:-1]

        monkeypatch.setattr(CCGHC_MODULE, "merge_classes", lose_block)
        with pytest.raises(ValueError, match="Kraft sum"):
            ccghc(*facade_instance(2))

    def test_length_moved_between_weights_raises(self, monkeypatch):
        # a class tree that swaps the lengths of two leaves of different
        # tilted weight disagrees with ghc on the leaves at lambda_star
        t, w, S = facade_instance(2)
        lam = ccghc(t, w, S).lambda_star
        x = tilt(t, w, lam)
        lengths = list(ghc(x).lengths)
        i, j = next((i, j) for i, j in itertools.combinations(range(9), 2)
                    if x[i] != x[j] and lengths[i] != lengths[j])
        lengths[i], lengths[j] = lengths[j], lengths[i]
        monkeypatch.setattr(CCGHC_MODULE, "leaf_lengths",
                            lambda *args: lengths)
        with pytest.raises(RuntimeError, match="disagrees"):
            ccghc(t, w, S)

    def test_other_class_tree_raises(self, monkeypatch):
        # a class merge on the wrong weights gives a tree whose cost and
        # KL sum consistently, but whose kl + lambda_star * cost is above
        # that of ghc on the leaves
        def heavier_first(weights, starts):
            return merge_classes([4.0 * weights[0], *weights[1:]], starts)

        monkeypatch.setattr(CCGHC_MODULE, "merge_classes", heavier_first)
        with pytest.raises(RuntimeError, match="disagrees"):
            ccghc(*facade_instance(2))

    def test_kl_disagreement_raises(self, monkeypatch):
        # the probe's KL, summed per class, must agree with the leaf KL
        monkeypatch.setattr(CCGHC_MODULE, "kl_divergence",
                            lambda d, t: kl_divergence(d, t) + 1e-9)
        with pytest.raises(RuntimeError, match="disagrees"):
            ccghc(*facade_instance(2))

    def test_zero_targets_are_no_tie(self, merges):
        # zeros on symbols of different costs: at k = 2 several type
        # classes have target 0 and tilt to 0 at every probe. No leaf of
        # theirs gets a codeword, and every probe merges the classes as
        # ccghc grouped them
        t = kronecker_pmf(Pmf([0.6, 0.0, 0.4, 0.0]), 2)
        w = kronecker_cost(CostVector([1, 2, 3, 0]), 2)
        keys, _, starts = group_leaves(zip(t.probs.tolist(), w.nums))
        assert len({n for p, n in keys if p == 0}) > 1
        got = ccghc(t, w, "2.8")
        assert got.iterations > 0
        assert len(merges["merge_classes"]) == len(got.trace)
        for weights, got_starts in merges["merge_classes"]:
            assert len(weights) == len(keys)
            assert got_starts == starts
        assert_matches_oracle(got, t, w, "2.8")


class TestTieAtLambdaStar:
    """Where type classes tie at lambda_star, ghc on the leaves lays them
    out as one class in index order and the probe as grouped, so the two
    can give different trees of one Lagrangian value. The result is the
    probe's tree, whose feasibility the search decided."""

    T = kronecker_pmf(Pmf.uniform(5), 2)
    W = kronecker_cost(CostVector([0, 1, 2, 3, 4]), 2)

    def test_class_tree_within_budget(self):
        # at lambda 0 all 25 leaves tie; the class tree costs 145/32, the
        # tree of ghc on the leaves 143/32
        S = Fraction(175, 32)
        got = ccghc(self.T, self.W, S)
        assert got.lambda_star == 0.0
        layout = class_layout(list(zip(self.T.probs.tolist(), self.W.nums)))
        assert got.d.lengths == heap_ghc(tilt(self.T, self.W, 0.0),
                                         layout).lengths
        assert got.d.lengths != ghc(tilt(self.T, self.W, 0.0)).lengths
        assert got.cost_exact == average_cost_exact(got.d, self.W) \
            == Fraction(145, 32) <= S
        assert got.kl == kl_divergence(got.d, self.T)
        assert_matches_oracle(got, self.T, self.W, S)

    def test_class_tree_over_budget(self):
        # between the two trees' costs the class tree at lambda 0 is
        # infeasible, and the search bisects to just above 0, where the
        # classes no longer tie, for a cheaper tree of the same KL
        got = ccghc(self.T, self.W, Fraction(143, 32))
        assert got.lambda_star == 2.0 ** -36
        assert got.cost_exact == Fraction(111, 32)
        assert got.kl == ccghc(self.T, self.W, Fraction(175, 32)).kl
        # a probe's line meets that of lambda 0 at 0, so the bisection's
        # 36 halvings down to 2^-36 need no probe until lambda_star
        assert got.iterations == 36
        assert len(got.trace) <= 6
        assert_same_as_bisection(got, self.T, self.W, Fraction(143, 32))

    def test_tie_across_weights(self):
        # targets (1, 2, 1, 1, 1) / 6 tie at lambda 0 over costs 0 and 1.
        # ghc on the leaves pairs the 1/6 leaves (0, 2) and (3, 4), and
        # leaf 1 takes the pair of pairs. The class merge pairs (0, 2),
        # which takes leaf 1, and (3, 4) takes that. The 1/6 leaves get
        # lengths (3, 3, 3, 3) from one and (3, 3, 2, 2) from the other,
        # at one KL
        t = Pmf([1 / 6, 2 / 6, 1 / 6, 1 / 6, 1 / 6])
        w = CostVector([0, 0, 1, 1, 1])
        got = ccghc(t, w, "10")
        assert got.lambda_star == 0.0
        assert ghc(t).lengths == (3, 1, 3, 3, 3)
        assert got.d.lengths == (3, 2, 3, 2, 2)
        want = kl_divergence(ghc(t), t)
        assert got.kl == pytest.approx(want, abs=1e-15)
        assert_matches_oracle(got, t, w, "10")


@st.composite
def tie_heavy_instances(draw):
    """Block instances with many ties: 2-5 symbols of costs from
    {0, 1, 2, 3} or {0.1, 0.2, 0.3}, target weights from {1, 2, 4} or
    {1, 2, 3} with some 0, blocklength 1-3, and a budget on a grid of 32
    steps from the cheapest supported block cost to the costliest."""
    m = draw(st.integers(2, 5))
    costs = draw(st.sampled_from([(0, 1, 2, 3), ("0.1", "0.2", "0.3")]))
    weights = draw(st.sampled_from([(1, 2, 4), (1, 2, 3)]))
    w = CostVector(draw(st.lists(st.sampled_from(costs), min_size=m,
                                 max_size=m)))
    x = draw(st.lists(st.sampled_from((0,) + weights), min_size=m,
                      max_size=m).filter(any))
    k = draw(st.integers(1, 3))
    lo = min(c for c, v in zip(w.exact, x) if v > 0)
    step = draw(st.integers(0, 32))
    S = k * (lo + (max(w.exact) - lo) * Fraction(step, 32))
    t = Pmf(np.array(x, dtype=float) / sum(x))
    return kronecker_pmf(t, k), kronecker_cost(w, k), S


class TestBisectionOracle:
    """ccghc gives the result of the bisection that probes every midpoint
    (conftest.bisecting_ccghc): the same to_dict() and cost_exact. Each
    probe it runs is the bisection's probe at that multiplier, and its
    dual bound is no lower."""

    @pytest.mark.parametrize("k", range(1, 11))
    def test_facade(self, k):
        t, w, S = facade_instance(k)
        assert_same_as_bisection(ccghc(t, w, S), t, w, S)

    def test_seeded_instances(self):
        for t, w, S in seeded_instances():
            assert_same_as_bisection(ccghc(t, w, S), t, w, S)

    def test_random_small_round(self):
        for t, w, S in random_small_round():
            assert_same_as_bisection(ccghc(t, w, S), t, w, S)

    # a random-small-like instance at blocklength 2 (target, costs in
    # 1/10000 and the per-symbol budget) whose x lands below lambda_star
    LOW_X = ([0.13460948303042627, 0.37926025884715175, 0.02134342750720559,
              0.001980920175273853, 0.20254724950779432, 0.17703656600429882,
              0.05081072424306935, 0.032411370684780026],
             [4404, 2748, 5584, 1601, 4722, 6735, 7345, 7329],
             Fraction(198, 625))

    @pytest.mark.parametrize("end", ["u", "lo"])
    def test_wrong_side_taken_from_x(self, end):
        # instances whose probes' lines are nearly parallel near
        # lambda_star, so that x lands too far from it: the final
        # bracket's u is infeasible (LOW_X) or its lo feasible (the only
        # such instance in random-small seeds 1-40, seed 25), and the
        # search bisects again, probing only the midpoints its probes
        # leave open: fewer than the bisection probes
        if end == "u":
            x, cents, S = self.LOW_X
            w = CostVector([Fraction(c, 10000) for c in cents])
            t, w, S = kronecker_pmf(Pmf(x), 2), kronecker_cost(w, 2), 2 * S
        else:
            t, w, S = next(itertools.islice(random_small_round(25), 611,
                                            None))
        got = ccghc(t, w, S)
        want = assert_same_as_bisection(got, t, w, S)
        assert len(got.trace) < len(want.trace)

    @given(tie_heavy_instances())
    # the dual's lines cross at exactly 20, where the tilt's rounding
    # ties the trees: the crossing probed in floats, just above 20, is
    # infeasible, and 20, the bisection's midpoint below it, feasible
    @example((Pmf(np.array([0.2, 0.4, 0.4])), CostVector(("0.1", "0.2",
                                                          "0.3")),
              Fraction(3, 20)))
    def test_tie_heavy(self, instance):
        # a probe at a multiplier the bisection does not probe is where
        # the lines of two earlier probes, one infeasible and one
        # feasible, cross. With no probe repeated, ccghc never probes
        # more than the bisection plus those crossings
        t, w, S = instance
        got = ccghc(t, w, S)
        want = assert_same_as_bisection(got, t, w, S)
        bisected = {e.lam for e in want.trace}
        for i, e in enumerate(got.trace):
            if e.lam not in bisected:
                assert any((b.kl - a.kl) / (a.cost - b.cost) == e.lam
                           for a in got.trace[:i] if not a.feasible
                           for b in got.trace[:i]
                           if b.feasible and a.cost > b.cost)


@st.composite
def block_symbols(draw):
    """(t, w, k): 2-6 symbols and blocklength 1-6, target weights from
    {0, 1, 2, 3, 5}, whose products can depend on the order they are
    taken in, and costs from a set of three, so that blocks tie."""
    m = draw(st.integers(2, 6))
    x = draw(st.lists(st.sampled_from((0, 1, 2, 3, 5)), min_size=m,
                      max_size=m).filter(any))
    costs = draw(st.sampled_from([(0, 1, 2), ("0.1", "0.2", "0.3"),
                                  ("0.18", "0.31", "1")]))
    w = CostVector(draw(st.lists(st.sampled_from(costs), min_size=m,
                                 max_size=m)))
    return Pmf(np.array(x, dtype=float) / sum(x)), w, draw(st.integers(1, 6))


class TestBlockClasses:
    """ccghc's type classes of the k-symbol blocks, built from the
    symbols' classes, are those group_leaves finds on the Kronecker
    leaves, and ccghc given the blocklength returns what it returns on
    the leaves."""

    # (2, 3, 5) / 10: t_0 t_0 t_1 differs with the order of the products
    ORDERED = Pmf(np.array([0.2, 0.3, 0.5]))

    @given(block_symbols())
    @example((ORDERED, CostVector((0, 1, 1)), 3))
    @example((ORDERED, CostVector(("0.1", "0.2", "0.3")), 6))
    def test_same_as_group_leaves(self, instance):
        t, w, k = instance
        want = group_leaves(zip(kronecker_pmf(t, k).probs.tolist(),
                                kronecker_cost(w, k).nums))
        assert CCGHC_MODULE._type_classes(t, w, k) == want

    def test_products_depend_on_order(self):
        # the examples above hold blocks of one symbol multiset whose
        # targets differ in the last bit, so they form separate classes
        a, b = self.ORDERED.probs[:2].tolist()
        assert a * a * b != a * b * a
        keys, _, _ = CCGHC_MODULE._type_classes(self.ORDERED,
                                                CostVector((0, 1, 1)), 3)
        assert (a * a * b, 1) in keys and (a * b * a, 1) in keys

    @pytest.mark.parametrize("k", range(1, 11))
    def test_facade(self, k):
        S = k * as_fraction("0.2063")
        assert ccghc(T3, W3, S, k) \
            == ccghc(kronecker_pmf(T3, k), kronecker_cost(W3, k), S)

    def test_seeded_instances(self):
        for t, w, k, S in conftest.seeded_instances():
            for j in range(2, 5):
                assert ccghc(t, w, j * S / k, j) == ccghc(
                    kronecker_pmf(t, j), kronecker_cost(w, j), j * S / k)

    def test_size_cap_before_classes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("type classes built past the size cap")

        monkeypatch.setattr(CCGHC_MODULE, "_type_classes", refuse)
        with pytest.raises(SizeCapError):
            ccghc(T3, W3, 10 ** 7, 10 ** 7)


class TestProbeCount:
    """The probes ccghc runs: the bracket's, the dual's crossings and the
    ends of the final bracket, where the bisection probes 34-38 times."""

    def test_facade(self):
        for k in range(1, 11):
            res = ccghc(*facade_instance(k))
            assert len(res.trace) <= 10, k

    def test_random_small_round(self):
        probes = [len(ccghc(t, w, S).trace)
                  for t, w, S in random_small_round()]
        assert np.mean(probes) <= 9


class TestFacadeTrace:
    """On the facade only the first probe, at lambda 0, depends on how
    the merge breaks ties: there the k + 1 type classes share one weight.
    It stays infeasible. The later probes and the dual bound are pinned
    by a digest; TestBisectionOracle checks each probe against the
    bisection's probe at its multiplier."""

    # the first probe's cost at k = 1..10
    FIRST_COST = {1: 0.245, 2: 0.4575, 3: 0.694375, 4: 0.92109375,
                  5: 1.1315625, 6: 1.380625, 7: 1.57916015625,
                  8: 1.832666015625, 9: 2.0493792724609374,
                  10: 2.266493225097656}
    # sha256 over repr((trace[1:], dual_bound)) at k = 1..10, recorded
    # with the search that probes the dual's crossings and predicts the
    # bisection's midpoints
    REST_SHA256 = ("68ac723e61f903750b1a4729b2c51388"
                   "0db2f834ab34e007a1206d109fafc1c0")

    def test_facade(self):
        digest = hashlib.sha256()
        for k, cost in self.FIRST_COST.items():
            t, w, S = facade_instance(k)
            res = ccghc(t, w, S)
            first = res.trace[0]
            assert (first.lam, first.cost, first.feasible) == (0.0, cost,
                                                               False)
            digest.update(repr((res.trace[1:], res.dual_bound)).encode())
        assert digest.hexdigest() == self.REST_SHA256


class TestDualBound:
    """dual_bound, the best kl + lambda * (cost - S) over the probes,
    bounds the KL of every dyadic pmf within budget from below."""

    # per-symbol dual bound minus D(S) on the facade (S = 0.2063), to 5
    # places: the "bound" row of ROADMAP direction 1, reproduced by
    # max(e.kl + e.lam * (e.cost - k * S) for e in ccghc(...).trace) / k
    # minus solve_simplex(T3, W3, 0.2063).D on the block-k instance
    FACADE_ROW = {3: 0.00644, 4: 0.01673, 6: 0.00401, 7: 0.00875,
                  8: 0.01064, 10: 0.00549}

    def test_at_most_kl(self):
        for t, w, S in [*seeded_instances(),
                        *map(facade_instance, range(1, 7))]:
            res = ccghc(t, w, S)
            assert res.dual_bound <= res.kl

    @pytest.mark.parametrize("k", sorted(FACADE_ROW))
    def test_facade_row(self, k):
        D = solve_simplex(T3, W3, 0.2063).D
        res = ccghc(*facade_instance(k))
        assert abs(res.dual_bound / k - D - self.FACADE_ROW[k]) <= 1e-5

    def test_from_the_trace_not_the_dict(self):
        t, w, S = facade_instance(2)
        res = ccghc(t, w, S)
        assert "dual_bound" not in res.to_dict()
        assert res.dual_bound == min(res.kl, max(
            e.kl + e.lam * (e.cost - float(S)) for e in res.trace))

    def test_budget_past_float_range(self):
        # lambda = 0 is feasible, and its bound is kl: S needs no float
        res = ccghc(T3, W3, "1e400")
        assert res.lambda_star == 0.0
        assert res.dual_bound == res.kl


class TestFloatResolution:
    """The bisection also ends when no float lies strictly inside the
    bracket, so with the width constant at 0 it converges instead of
    probing the same midpoint again."""

    def test_eps_below_float_spacing(self, monkeypatch):
        t, w, S = facade_instance(3)
        default = ccghc(t, w, S)
        monkeypatch.setattr(CCGHC_MODULE, "WIDTH", 0.0)
        monkeypatch.setattr(conftest, "WIDTH", 0.0)
        res = ccghc(t, w, S)
        lo, u = res.bracket
        assert u == np.nextafter(lo, np.inf)
        assert res.lambda_star == u
        assert res.d.lengths == default.d.lengths
        # the bisection that probes every midpoint probes each once, and
        # ccghc makes its halvings with fewer probes, none repeated
        want = assert_same_as_bisection(res, t, w, S)
        assert want.iterations == len(want.trace) - 6  # 0, 1, 2, 4, 8, 16
        assert len(res.trace) < len(want.trace)


class TestUnitFree:
    """The stopping rule has no unit: scaling costs and budget scales the
    multiplier and nothing else."""

    @staticmethod
    def _scaled(k, c):
        w = CostVector([x * c for x in W3.exact])
        return (kronecker_pmf(T3, k), kronecker_cost(w, k),
                k * as_fraction("0.2063") * c)

    @pytest.mark.parametrize("j", [-120, -100, -20, -3, 5, 30])
    def test_power_of_two_scaling_is_exact(self, j):
        res = ccghc(*self._scaled(3, Fraction(2) ** j))
        assert res.d.lengths == ccghc(*facade_instance(3)).d.lengths
        assert res.lambda_star * 2.0 ** j == 9.230769231915474

    @pytest.mark.parametrize("j", range(2, 9))
    def test_decimal_scaling_keeps_relative_width(self, j):
        # the bracket is as narrow relative to lambda_star in every unit
        res = ccghc(*self._scaled(3, 10 ** j))
        lo, u = res.bracket
        assert res.d.lengths == ccghc(*facade_instance(3)).d.lengths
        assert (u - lo) / u < 2.0 ** -32


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
        assert x[0] == 0.0
        assert x[1] == 0.25


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
            rival = brute_force_dyadic(tilt(t, w, res.lambda_star))
            got = objective(res.d, t, w, res.lambda_star)
            best = objective(rival, t, w, res.lambda_star)
            assert got <= best + 1e-10

    def test_dual_bound_below_enumeration(self):
        # weak duality: no dyadic pmf within budget has KL below the
        # bound; enumerated here over lengths up to 8, all assignments
        rng = np.random.default_rng(7)
        below = 0
        for _ in range(25):
            m = int(rng.integers(2, 5))
            t = random_pmf(rng, m)
            w = random_costs(rng, m)
            lo = min(w.exact)
            hi = sum(f * e for f, e in zip(t, w.exact))
            S = round(float(lo) + 0.6 * (float(hi) - float(lo)), 4)
            res = ccghc(t, w, S)
            best = _best_within_budget(t, w, as_fraction(S), 8)
            assert res.dual_bound <= best + 1e-12
            below += best < res.kl - 1e-12
        # enumeration beats ccghc's own result on some of them
        assert below > 0


def _best_within_budget(t, w, S, max_len) -> float:
    """Smallest KL over dyadic pmfs with codewords of at most max_len
    bits and exact cost at most S, by enumeration."""
    best = float("inf")
    for n in range(1, len(t) + 1):
        for multiset in _kraft_multisets(n, max_len):
            for lengths in set(itertools.permutations(multiset)):
                for symbols in itertools.combinations(range(len(t)), n):
                    pairs = list(zip(symbols, lengths))
                    cost = sum(w.nums[i] << (max_len - l) for i, l in pairs)
                    if cost * S.denominator \
                            <= S.numerator * (w.den << max_len):
                        best = min(best, sum(
                            2.0 ** -l * (-l - np.log2(t[i]))
                            for i, l in pairs))
    return best
