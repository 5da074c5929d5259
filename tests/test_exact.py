"""Scaled-integer exact arithmetic against the Fraction path it replaced.

The oracles below are the Fraction sums the package computed before cost
vectors stored integer numerators over a common denominator: a Kraft sum
of 2^-l terms, a dyadic cost of 2^-l * w terms, and Kronecker sums of
Fraction costs. Every exact result must equal them as a Fraction.
"""
import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dymatch import (CostVector, DyadicPmf, as_fraction,
                     average_cost_exact, ccghc, kronecker_cost,
                     kronecker_pmf, verify_kraft)
from dymatch.facade import SLAT_COSTS, TARGET
from dymatch.pmf import kraft_sum
from conftest import seeded_instances

CCGHC_MODULE = importlib.import_module("dymatch.ccghc")


def fraction_kraft_sum(lengths) -> Fraction:
    return sum((Fraction(1, 2 ** l) for l in lengths if l is not None),
               Fraction(0))


def fraction_average_cost(d, w) -> Fraction:
    return sum((Fraction(1, 2 ** l) * c
                for l, c in zip(d.lengths, w.exact) if l is not None),
               Fraction(0))


def fraction_kronecker(costs, k) -> list:
    out = list(costs)
    for _ in range(k - 1):
        out = [a + b for a in out for b in costs]
    return out


def decimal_string(n: int, places: int) -> str:
    """n / 10^places written out as a decimal string."""
    if places == 0:
        return str(n)
    return f"{n // 10 ** places}.{n % 10 ** places:0{places}d}"


# decimal strings over mixed powers of ten, floats (Fraction(0.1) has a
# 2^55 denominator), and plain rationals
decimal_costs = st.builds(decimal_string, st.integers(0, 10 ** 6),
                          st.integers(0, 6))
float_costs = st.floats(0, 1e3, allow_nan=False, allow_infinity=False)
rational_costs = st.builds(Fraction, st.integers(0, 10 ** 4),
                           st.integers(1, 97))
costs = st.lists(st.one_of(decimal_costs, float_costs, rational_costs),
                 min_size=1, max_size=6)


@st.composite
def dyadic_lengths(draw, max_len=120):
    """Lengths of a full binary tree, grown by splitting leaves (one
    chain reaching max_len when drawn), with None entries inserted."""
    lengths = [0]
    if draw(st.booleans()):
        # a caterpillar reaching max_len: 1, 2, ..., max_len, max_len
        lengths = list(range(1, max_len + 1)) + [max_len]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, len(lengths) - 1))
        if lengths[i] < max_len:
            lengths[i:i + 1] = [lengths[i] + 1] * 2
    for _ in range(draw(st.integers(0, 3))):
        lengths.insert(draw(st.integers(0, len(lengths))), None)
    return tuple(lengths)


class TestKraftSum:
    @given(st.lists(st.one_of(st.none(), st.integers(0, 120)), max_size=30))
    def test_any_lengths(self, lengths):
        assert kraft_sum(lengths) == fraction_kraft_sum(lengths)

    @given(dyadic_lengths())
    def test_dyadic_pmf(self, lengths):
        d = DyadicPmf(lengths)
        assert d.kraft_sum() == fraction_kraft_sum(lengths) == 1

    def test_lengths_past_int64(self):
        # 1 << (top - l) overflows int64 once top passes 62
        lengths = list(range(1, 121)) + [120]
        assert DyadicPmf(tuple(lengths)).kraft_sum() == 1
        with pytest.raises(ValueError, match="Kraft sum"):
            DyadicPmf(tuple(lengths[:-1]))

    @given(st.lists(st.text("01", min_size=1, max_size=70), min_size=1,
                    max_size=12, unique=True))
    def test_verify_kraft(self, words):
        pairs = [(f"s{i}", b) for i, b in enumerate(words)]
        assert verify_kraft(pairs) == fraction_kraft_sum(
            len(b) for _, b in pairs)


class TestCostVector:
    @given(costs)
    def test_exact_view(self, values):
        w = CostVector(values)
        assert w.exact == tuple(as_fraction(c) for c in values)
        assert list(w.costs) == [float(as_fraction(c)) for c in values]
        assert w.den == math.lcm(*(as_fraction(c).denominator
                                   for c in values))

    @given(costs, st.integers(1, 3))
    def test_kronecker_cost(self, values, k):
        w = CostVector(values)
        want = fraction_kronecker([as_fraction(c) for c in values], k)
        got = kronecker_cost(w, k)
        assert got.exact == tuple(want)
        assert list(got.costs) == [float(c) for c in want]
        assert got == CostVector(want)

    @pytest.mark.parametrize("values", [(2 ** 52, 1, 3), (2 ** 53, 1, 3),
                                        ("0.1", 2 ** 52), (0.1, 1)])
    def test_kronecker_cost_at_the_int64_edge(self, values):
        # at most 2^53 per block over a denominator of at most 2^53 sums
        # in int64 and divides in float64; past it, in Python ints
        w = CostVector(values)
        want = fraction_kronecker(w.exact, 2)
        got = kronecker_cost(w, 2)
        assert got.exact == tuple(want)
        assert list(got.costs) == [float(c) for c in want]

    def test_kronecker_cost_past_the_float_range(self):
        # the blocks' sums are Python ints past 2^53, and the one past the
        # float range is refused by name, not by an OverflowError
        with pytest.raises(ValueError) as info:
            kronecker_cost(CostVector(["1e308", "1"]), 2)
        assert str(info.value) == "cost 2e+308 is past the float range"

    def test_equality_across_denominators(self):
        # each block costs 1/4 + 1/4, kept over den 4; "0.5" has den 2
        v = kronecker_cost(CostVector(["0.25", "0.25"]), 2)
        w = CostVector(["0.5"] * 4)
        assert (v.den, w.den) == (4, 2)
        assert v == w and w == v
        assert v != CostVector(["0.5", "0.5", "0.5", "0.25"])
        assert v != CostVector(["0.5"] * 3)

    @given(costs, st.integers(1, 3))
    def test_equality_is_rational(self, values, k):
        v = kronecker_cost(CostVector(values), k)
        assert v == CostVector(v.exact)
        bumped = list(v.exact)
        bumped[-1] += Fraction(1, 3)
        assert v != CostVector(bumped)

    def test_uniform_across_denominators(self):
        assert kronecker_cost(CostVector(["0.25", "0.25"]), 2).is_uniform
        # equal as floats, not as rationals
        assert not CostVector(["0.1", 0.1]).is_uniform


class TestAverageCostExact:
    @given(dyadic_lengths(), st.data())
    def test_against_fractions(self, lengths, data):
        d = DyadicPmf(lengths)
        w = CostVector(data.draw(st.lists(
            st.one_of(decimal_costs, float_costs, rational_costs),
            min_size=len(lengths), max_size=len(lengths))))
        assert average_cost_exact(d, w) == fraction_average_cost(d, w)

    def test_long_codewords(self):
        lengths = tuple(range(1, 121)) + (120,)
        w = CostVector([0.1] * 60 + ["0.3"] * 61)
        d = DyadicPmf(lengths)
        assert average_cost_exact(d, w) == fraction_average_cost(d, w)


class TestCcGhcAgainstFractionPath:
    """Full ccghc results, probe trace included, equal the run with every
    exact step on Fractions: Kronecker costs, Kraft checks and costs."""

    def _both(self, monkeypatch, t, w, k, S):
        got = ccghc(kronecker_pmf(t, k), kronecker_cost(w, k), S)
        with monkeypatch.context() as m:
            m.setattr(CCGHC_MODULE, "average_cost_exact",
                      fraction_average_cost)
            m.setattr(DyadicPmf, "kraft_sum",
                      lambda d: fraction_kraft_sum(d.lengths))
            vk = CostVector(fraction_kronecker(w.exact, k))
            want = ccghc(kronecker_pmf(t, k), vk, S)
        return got, want

    def test_seeded_instances(self, monkeypatch):
        bisected = 0
        for t, w, k, S in seeded_instances():
            got, want = self._both(monkeypatch, t, w, k, S)
            assert got == want
            bisected += got.iterations > 0
        assert bisected > 40

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_facade(self, monkeypatch, k):
        got, want = self._both(monkeypatch, TARGET, SLAT_COSTS, k,
                               k * as_fraction("0.2063"))
        assert got == want
