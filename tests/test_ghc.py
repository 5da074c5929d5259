"""Geometric Huffman coding against its brute-force oracle, and the class
merge against the node-at-a-time merge it replaced."""
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dymatch import (CostVector, Pmf, as_fraction, brute_force_dyadic,
                     ccghc, ghc, kl_divergence, kronecker_cost,
                     kronecker_pmf, tilt)
from dymatch.facade import SLAT_COSTS, TARGET
from dymatch.ghc import _kraft_multisets, group_leaves, merge_classes
import conftest
from conftest import (assert_matches_oracle, bisecting_ccghc, expand_blocks,
                      heap_ghc, seeded_instances)

CCGHC_MODULE = importlib.import_module("dymatch.ccghc")
LOG2_3 = float(np.log2(3))
KRON_321 = np.kron([3.0, 2.0, 1.0], [3.0, 2.0, 1.0]).tolist()


def _four_times(a: float) -> list:
    """a with 4a and the floats either side of 4a: the drop rule's edge."""
    four = 4.0 * a
    return [a, float(np.nextafter(four, 0.0)), four,
            float(np.nextafter(four, np.inf))]


_FOUR_TIMES = [0.0, *_four_times(2.0), *_four_times(1.0)[:3]]
KRON_FOUR_TIMES = np.kron(_FOUR_TIMES, _FOUR_TIMES).tolist()

# Pairing doubles a weight exactly, so pairs of different weights meet
# only where the square in 2 sqrt(v v) is subnormal: TINY, TINY_B and
# TINY_C all pair to 2 TINY, where a family of such blocks of two ties
# with the others. Next to a weight near 1 these leaves are dropped, as
# no merge of them gets within 4x of it.
TINY = 2.0 ** -520
TINY_B = math.nextafter(TINY, 1.0)
TINY_C = math.nextafter(TINY_B, 1.0)
# scaled by 1/2 with the largest weight 1, both round to 2 SUB
SUB = math.ulp(0.0)

# each leaf's (weight, class) for merge_classes, where runs of several
# classes meet at one weight. The case names, kept as test ids, come from
# an earlier merge that joined tied runs into one list of nodes.
CLASS_JOINS = {
    # class a (leaves 0 and 2) meets class b (1 and 3) at weight 1; each
    # pairs its own leaves
    "paired joined family": [(1.0, "a"), (1.0, "b"), (1.0, "a"), (1.0, "b")],
    # class a's pairs (1, 4) and (5, 6) meet class b's (2, 3)
    "blocks of two joined": [
        (0.5, "x"), (TINY, "a"), (TINY_B, "b"), (TINY_B, "b"), (TINY, "a"),
        (TINY, "a"), (TINY, "a")],
    # classes a and b meet at weight 0.5, and their pairs (1, 3) and
    # (2, 4) meet class c's leaves 0 and 5 at weight 1
    "nested join": [
        (1.0, "c"), (0.5, "a"), (0.5, "b"), (0.5, "a"), (0.5, "b"),
        (1.0, "c")],
    # class a's pairs (0, 2) and (3, 4), a family of blocks of two, meet
    # class b at weight 4
    "family with node list": [
        (2.0, "a"), (4.0, "b"), (2.0, "a"), (2.0, "a"), (2.0, "a"),
        (4.0, "b")],
    # class b pairs leaves 0 and 2, and class a's leaf 1, left over at
    # that weight, takes the pair
    "lone node takes a joined block": [(3.0, "b"), (3.0, "a"), (3.0, "b")],
}

# leaf weights for ghc, which puts the leaves of one weight in one class;
# pairs of one class land on the weight of another
LEAF_JOINS = {
    "blocks of two joined": [1.0, TINY, TINY_B, TINY_B, TINY, TINY, TINY],
    # the pairs (2, 4) and (6, 8) meet (3, 5) and (7, 9) at 2 TINY, and
    # their pairs meet leaves 1 and 10 at 4 TINY
    "nested join": [
        1.0, 4.0 * TINY, TINY, TINY_B, TINY, TINY_B, TINY, TINY_B, TINY,
        TINY_B, 4.0 * TINY],
    "family with node list": [2.0, 4.0, 2.0, 2.0, 2.0, 4.0],
    # the pairs (1, 4) and (7, 8) meet (2, 5) and (3, 6) at 2 TINY
    "three blocks of two joined": [
        1.0, TINY, TINY_B, TINY_C, TINY, TINY_B, TINY_C, TINY, TINY],
    # classes of two raw weights that scaling makes one
    "classes scaled to one weight": [1.0, 3 * SUB, 4 * SUB, 3 * SUB, 4 * SUB],
}


# small integers, zeros and powers of two, some far apart
_ATOM = st.one_of(st.integers(0, 6).map(float),
                  st.integers(-6, 6).map(lambda e: 2.0 ** e),
                  st.integers(-190, 190).map(lambda e: 2.0 ** e))


@st.composite
def tied_weights(draw, max_size=24):
    """Weights with many exact ties: small integers, zeros, powers of two
    (some far apart), 4x pairs, and Kronecker squares, scaled by a power
    of two with every positive weight kept in [2^-400, 2^400]."""
    xs = draw(st.lists(_ATOM, min_size=1, max_size=max_size))
    for a in draw(st.lists(_ATOM.filter(lambda v: v > 0), max_size=2)):
        xs += draw(st.permutations(_four_times(a)))
    if draw(st.booleans()):
        xs = np.kron(xs[:8], xs[:8]).tolist()
    positive = [v for v in xs if v > 0]
    assume(positive)
    lo = math.frexp(min(positive))[1] - 1
    hi = math.frexp(max(positive))[1]
    assume(hi - lo <= 800)
    shift = draw(st.integers(-400 - lo, 400 - hi))
    return [math.ldexp(v, shift) for v in xs]


@st.composite
def tied_layouts(draw):
    """(class weights, starts) for merge_classes: up to 12 classes of up
    to 12 positions each, whose weights come from a pool of a few atoms
    and 4x pairs, so that several classes share a weight."""
    pool = draw(st.lists(_ATOM, min_size=1, max_size=3))
    for a in draw(st.lists(_ATOM.filter(lambda v: v > 0), max_size=1)):
        pool += _four_times(a)
    classes = draw(st.lists(st.tuples(st.sampled_from(pool),
                                      st.integers(1, 12)),
                            min_size=1, max_size=12))
    assume(any(v > 0 for v, _ in classes))
    starts = [0]
    for _, size in classes:
        starts.append(starts[-1] + size)
    return [v for v, _ in classes], starts


def _type_classes(t, w) -> tuple:
    """The type classes of (t, w) as ccghc groups them: leaves with equal
    target weight and cost. (class targets, class costs, order, starts)."""
    keys, order, starts = group_leaves(zip(t.probs.tolist(), w.nums))
    return (np.array([p for p, _ in keys]),
            CostVector._scaled(tuple(n for _, n in keys), w.den),
            order, starts)


def _record_merges(monkeypatch, module=CCGHC_MODULE) -> list:
    """Hook the class merges of ccghc, or of another module's search:
    the arguments of each call."""
    merges: list = []
    monkeypatch.setattr(module, "merge_classes",
                        lambda *args: merges.append(args)
                        or merge_classes(*args))
    return merges


def dyadic_kl(d, weights) -> float:
    """kl(d || normalized weights) in bits."""
    xs = np.asarray(weights, dtype=float)
    return kl_divergence(Pmf(d.probs), Pmf(xs / xs.sum()))


class TestTargetWeights:
    """ghc's checks on the weights it is given, each with its message."""

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="at least one positive"):
            ghc((0.0, 0.0))

    def test_merge_classes_rejects_all_zero(self):
        with pytest.raises(ValueError, match="at least one positive"):
            merge_classes([0.0, 0.0], [0, 2, 3])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ghc((0.5, -0.1))

    def test_subnormalized_ok(self):
        assert ghc((0.1, 0.05)).lengths == (1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ghc((0.5, bad))

    @pytest.mark.parametrize("shape", [[], [[0.5, 0.5]], [[0.5], [0.5]]])
    def test_rejects_non_vector(self, shape):
        with pytest.raises(ValueError, match="non-empty vector"):
            ghc(np.array(shape))

    def test_brute_force_same_checks(self):
        for bad, message in (((0.0, 0.0), "at least one positive"),
                             ((0.5, np.nan), "finite and non-negative"),
                             ([], "non-empty vector")):
            with pytest.raises(ValueError, match=message):
                brute_force_dyadic(bad)


class TestGhc:
    def test_dyadic_input_reproduced(self):
        d = ghc((0.5, 0.25, 0.25))
        assert d.lengths == (1, 2, 2)
        assert dyadic_kl(d, (0.5, 0.25, 0.25)) == 0.0

    def test_uniform_three(self):
        d = ghc(Pmf.uniform(3))
        assert sorted(d.lengths) == [1, 2, 2]
        assert dyadic_kl(d, (1, 1, 1)) == pytest.approx(LOG2_3 - 1.5,
                                                        abs=1e-12)
        assert dyadic_kl(d, (1, 1, 1)) == pytest.approx(0.084963, abs=1e-6)

    def test_tie_break_prefers_low_index_merge_first(self):
        # equal weights: 0 and 1 merge, so 2 keeps the short codeword
        assert ghc((1.0, 1.0, 1.0)).lengths == (2, 2, 1)

    def test_drop_rule(self):
        # 0.19 >= 4*0.01 drops symbol 2; 0.8 >= 4*0.19 then drops symbol 1
        d = ghc((0.8, 0.19, 0.01))
        assert d.lengths == (0, None, None)
        assert dyadic_kl(d, (0.8, 0.19, 0.01)) == pytest.approx(
            -np.log2(0.8), abs=1e-12)

    def test_zero_preservation(self):
        d = ghc((0.5, 0.0, 0.5))
        assert d.lengths[1] is None
        assert d.lengths == (1, None, 1)

    def test_scale_invariance(self):
        x = (0.37, 0.21, 0.42)
        scaled = tuple(17.3 * v for v in x)
        assert ghc(x).lengths == ghc(scaled).lengths

    def test_two_symbols(self):
        assert ghc((0.6, 0.4)).lengths == (1, 1)
        # heavy skew crosses the 4x drop threshold
        assert ghc((0.9, 0.1)).lengths == (0, None)

    def test_deterministic(self):
        x = (0.3, 0.3, 0.2, 0.2)
        assert ghc(x).lengths == ghc(x).lengths

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            ghc((0.0, 0.0))


class TestBruteForce:
    def test_two_equal(self):
        assert brute_force_dyadic((0.5, 0.5)).lengths == (1, 1)

    def test_uniform_three(self):
        d = brute_force_dyadic(Pmf.uniform(3))
        assert dyadic_kl(d, (1, 1, 1)) == pytest.approx(0.084963, abs=1e-6)

    def test_skewed_matches_ghc(self):
        x = (0.9, 0.05, 0.05)
        assert dyadic_kl(ghc(x), x) == pytest.approx(
            dyadic_kl(brute_force_dyadic(x), x), abs=1e-12)

    def test_instance_limits(self):
        with pytest.raises(ValueError):
            brute_force_dyadic(tuple([1.0] * 9))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lengths_below_the_count(self, n):
        # a full binary tree on n leaves is at most n - 1 deep, so the
        # cap n - 1 enumerates what a cap of 8 does, in the same order
        assert _kraft_multisets(n, n - 1) == _kraft_multisets(n, 8)


class TestOptimalityOracle:
    """ghc must equal the enumerated optimum; the oracle defines truth."""

    def test_fixed_instances(self):
        cases = [
            (0.4, 0.3, 0.2, 0.1),
            (0.25, 0.25, 0.25, 0.25),
            (0.97, 0.01, 0.01, 0.01),
            (0.5, 0.2, 0.15, 0.1, 0.05),
            (1.0, 1.0, 1.0, 1.0, 1.0),
        ]
        for x in cases:
            got = dyadic_kl(ghc(x), x)
            want = dyadic_kl(brute_force_dyadic(x), x)
            assert got == pytest.approx(want, abs=1e-12), x

    @settings(max_examples=150)
    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=5))
    def test_random_instances(self, xs):
        got = dyadic_kl(ghc(xs), xs)
        want = dyadic_kl(brute_force_dyadic(xs), xs)
        assert got <= want + 1e-12

    @given(tied_weights(max_size=4).map(lambda xs: xs[:8]))
    def test_tied_instances(self, xs):
        # the optimum does not depend on how ties are broken
        assume(len(xs) >= 2 and max(xs) > 0)
        got = dyadic_kl(ghc(xs), xs)
        want = dyadic_kl(brute_force_dyadic(xs), xs)
        assert got <= want + 1e-12

    @given(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    def test_idempotent_on_dyadic(self, raw):
        # ghc of anything is dyadic; ghc of that must be a fixed point
        d = ghc(tuple(2.0 ** -l for l in raw))
        again = ghc(tuple(d.probs))
        assert again.lengths == d.lengths
        assert dyadic_kl(again, d.probs) == 0.0


class TestAgainstHeapMerge:
    """The class merge gives heap_ghc's lengths, ties and drops included,
    with heap_ghc keyed by position in the same class layout: inside ghc
    on leaves grouped by weight, on layouts of tied classes, and at every
    ccghc probe on type classes."""

    @staticmethod
    def _check_probes(monkeypatch, t, w, k, S) -> int:
        """Run ccghc, and the bisection that probes every midpoint
        (conftest.bisecting_ccghc), with every probe's class merge
        expanded to leaves and checked against heap_ghc on the leaf tilt
        over the type-class layout; return the bisection's probes."""
        tk, wk = kronecker_pmf(t, k), kronecker_cost(w, k)
        _, _, order, starts = _type_classes(tk, wk)
        with monkeypatch.context() as m:
            merges = _record_merges(m)
            res = ccghc(tk, wk, S)
            bisected = _record_merges(m, conftest)
            want = bisecting_ccghc(tk, wk, S)
        assert len(merges) == len(res.trace)
        assert len(bisected) == len(want.trace)
        for (weights, got_starts), probe in zip(merges + bisected,
                                                res.trace + want.trace):
            assert got_starts == starts
            assert expand_blocks(weights, order, starts) \
                == heap_ghc(tilt(tk, wk, probe.lam), order).lengths
        return len(bisected)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_facade_probes(self, monkeypatch, k):
        probes = self._check_probes(monkeypatch, TARGET, SLAT_COSTS, k,
                                    k * as_fraction("0.2063"))
        assert probes > 30

    def test_seeded_probes(self, monkeypatch):
        probes = sum(self._check_probes(monkeypatch, t, w, k, S)
                     for t, w, k, S in seeded_instances())
        assert probes > 60 * 30

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_joined_classes(self, lam):
        # a class of cost c has weight 2^(-lam c) / 4^k: at lam = 0 all
        # classes share one weight, and at lam > 0 paired runs of one
        # class land on the weight of a cheaper class
        for k in range(1, 5):
            t = kronecker_pmf(Pmf.uniform(4), k)
            w = kronecker_cost(CostVector([0, 1, 2, 3]), k)
            targets, costs, order, starts = _type_classes(t, w)
            weights = tilt(targets, costs, lam).tolist()
            assert expand_blocks(weights, order, starts) \
                == heap_ghc(tilt(t, w, lam), order).lengths

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_dyadic_cascade(self, k):
        # (1/2, 1/4, 1/4)^k: every pair lands on the weight of another
        # class, so ties cascade from the lightest weight to the root
        t = kronecker_pmf(Pmf([0.5, 0.25, 0.25]), k)
        assert ghc(t).lengths == heap_ghc(t).lengths

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_facade_lambda_zero(self, monkeypatch, k):
        # the first probe: every type class has the weight 3^-k, and the
        # merge gets the k + 1 classes as ccghc grouped them
        t, w = kronecker_pmf(TARGET, k), kronecker_cost(SLAT_COSTS, k)
        _, _, order, starts = _type_classes(t, w)
        with monkeypatch.context() as m:
            merges = _record_merges(m)
            res = ccghc(t, w, k * as_fraction("0.2063"))
        assert res.trace[0].lam == 0.0
        weights, got_starts = merges[0]
        assert len(weights) == k + 1 and len(set(weights)) == 1
        assert got_starts == starts
        assert expand_blocks(weights, order, starts) \
            == heap_ghc(tilt(t, w, 0.0), order).lengths

    # the square of (3, 2, 1): leaves 1 and 3 of weight 6 meet the pair
    # (2, 6) of weight 3, whose smallest leaf index lies between theirs.
    # KRON_FOUR_TIMES needs a merged node to carry the heavier node's
    # smaller position.
    @given(tied_weights())
    @example(KRON_321)
    @example(KRON_FOUR_TIMES)
    def test_tied_weights(self, xs):
        assert ghc(xs).lengths == heap_ghc(xs).lengths

    @given(tied_weights(), st.sampled_from([-600, 600]))
    @example(KRON_321, 600)
    def test_far_scales(self, xs, shift):
        # heap_ghc's own products overflow or underflow here
        scaled = [math.ldexp(v, shift) for v in xs]
        assert ghc(scaled).lengths == heap_ghc(xs).lengths

    @given(tied_layouts())
    def test_tied_layouts(self, layout):
        # merge_classes reads no leaf index: position p holds leaf p
        weights, starts = layout
        xs = [v for c, v in enumerate(weights)
              for _ in range(starts[c], starts[c + 1])]
        positions = range(len(xs))
        assert expand_blocks(weights, positions, starts) \
            == heap_ghc(xs, positions).lengths

    @pytest.mark.parametrize("v", [1e-200, 1e300, 1e-310, 5e-324])
    def test_equal_weights_at_any_scale(self, v):
        assert ghc((v, v, v)).lengths == (2, 2, 1)


class TestJoins:
    """Runs of several classes that meet at one weight, against heap_ghc
    over the same class layout: in merge_classes, in ghc, and in ccghc,
    whose first probe, at multiplier 0, merges the case's classes."""

    @pytest.mark.parametrize("case", CLASS_JOINS)
    def test_merge_classes(self, case):
        leaves = CLASS_JOINS[case]
        classes, order, starts = group_leaves(leaves)
        got = expand_blocks([v for v, _ in classes], order, starts)
        assert got == heap_ghc([v for v, _ in leaves], order).lengths

    @pytest.mark.parametrize("case", LEAF_JOINS)
    def test_ghc(self, case):
        xs = LEAF_JOINS[case]
        assert ghc(xs).lengths == heap_ghc(xs).lengths

    @pytest.mark.parametrize("case", CLASS_JOINS)
    def test_ccghc(self, case):
        # each class gets its own cost, so ccghc's type classes are the
        # case's classes
        leaves = CLASS_JOINS[case]
        tags = sorted({tag for _, tag in leaves})
        t = Pmf(np.array([v for v, _ in leaves]) / sum(v for v, _ in leaves))
        w = CostVector([tags.index(tag) for _, tag in leaves])
        S = (min(w.exact) + as_fraction(float(np.dot(t.probs, w.costs)))) / 2
        got = ccghc(t, w, S)
        assert got.iterations > 0
        assert_matches_oracle(got, t, w, S)
