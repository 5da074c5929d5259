"""Core types and exact arithmetic."""
import importlib
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dymatch import (SIZE_CAP, CostVector, DyadicPmf, Pmf, SizeCapError,
                     as_fraction, average_cost, average_cost_exact, ghc,
                     kl_divergence, kronecker_cost, kronecker_pmf)
from dymatch.pmf import check_size_cap

PMF_MODULE = importlib.import_module("dymatch.pmf")
UNIFORM3 = Pmf.uniform(3)


class TestAsFraction:
    def test_decimal_string_is_exact(self):
        assert as_fraction("0.18") == Fraction(9, 50)
        assert as_fraction("0.2063") == Fraction(2063, 10000)

    def test_float_uses_binary_value(self):
        assert as_fraction(0.5) == Fraction(1, 2)
        # 0.1 is not representable; the binary value is what arrives
        assert as_fraction(0.1) == Fraction(0.1)

    def test_passthrough(self):
        assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
        assert as_fraction(2) == Fraction(2)

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"),
                                   Decimal("Infinity"), Decimal("-Infinity"),
                                   Decimal("NaN")])
    def test_non_finite_is_a_value_error(self, x):
        with pytest.raises(ValueError, match="not finite"):
            as_fraction(x)

    def test_cost_vector_refuses_infinity(self):
        with pytest.raises(ValueError, match="not finite"):
            CostVector([float("inf"), "0.18"])

    @pytest.mark.parametrize("x", [None, [1, 2], 1j])
    def test_non_number_is_a_type_error(self, x):
        with pytest.raises(TypeError, match="cannot convert"):
            as_fraction(x)


class TestPmf:
    def test_uniform(self):
        assert len(UNIFORM3) == 3
        assert UNIFORM3[0] == pytest.approx(1 / 3)

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.4]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.2, -0.2]))

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.0]))

    def test_uniform_needs_two_symbols(self):
        with pytest.raises(ValueError, match="needs m >= 2"):
            Pmf.uniform(1)

    def test_immutable(self):
        p = Pmf.uniform(2)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_callers_array_stays_writeable_and_unshared(self):
        a = np.array([0.5, 0.25, 0.25])
        p = Pmf(a)
        assert ghc(a).lengths == (1, 2, 2)
        assert a.flags.writeable
        a[:] = [0.25, 0.25, 0.5]
        assert p.probs.tolist() == [0.5, 0.25, 0.25]
        assert ghc(a).lengths == (2, 2, 1)

    def test_zero_entries_allowed(self):
        p = Pmf(np.array([1.0, 0.0]))
        assert p[1] == 0.0

    def test_from_json_rejects_non_array(self):
        with pytest.raises(ValueError):
            Pmf.from_json('{"a": 1}')

    def test_from_json_rejects_integer_past_float_range(self):
        # a JSON float past the range reads as inf; an integer raises
        # OverflowError in float(), and both are the same bad entry
        for big in ("1e400", "9" * 400):
            with pytest.raises(ValueError, match="finite and non-negative"):
                Pmf.from_json(f"[0.5, {big}, 0.5]")


class TestDyadicPmf:
    def test_kraft_equality_enforced(self):
        DyadicPmf((1, 2, 2))
        with pytest.raises(ValueError):
            DyadicPmf((1, 2))
        with pytest.raises(ValueError):
            DyadicPmf((1, 1, 1))

    def test_needs_an_entry(self):
        with pytest.raises(ValueError, match="at least one entry"):
            DyadicPmf(())

    def test_needs_a_finite_length(self):
        with pytest.raises(ValueError, match="at least one finite length"):
            DyadicPmf((None,))

    @pytest.mark.parametrize("lengths", [(1.0, 1), (1, "1"), (-1, 0)])
    def test_lengths_are_non_negative_ints(self, lengths):
        with pytest.raises(ValueError, match="non-negative int"):
            DyadicPmf(lengths)

    def test_none_is_probability_zero(self):
        d = DyadicPmf((1, 1, None))
        assert d.lengths == (1, 1, None) and d.kraft_sum() == 1

    @pytest.mark.parametrize("lengths", [
        (1, 2, 2), (None, 1, None, 2, 3, 3),
        tuple(range(1, 1100)) + (1099,),  # 2^-l underflows past 1074
        (None,) * 5 + (0,)])
    def test_probs_equal_list_of_powers(self, lengths):
        d = DyadicPmf(lengths)
        want = np.array([0.0 if l is None else 2.0 ** -l for l in lengths])
        assert np.array_equal(d.probs, want)
        assert not d.probs.flags.writeable

    def test_kraft_sum_exact(self):
        assert DyadicPmf((2, 2, 2, 2)).kraft_sum() == 1

    def test_probs_view(self):
        d = DyadicPmf((1, 2, 2))
        assert list(d.probs) == [0.5, 0.25, 0.25]


class TestCostVector:
    def test_decimal_strings_exact(self):
        w = CostVector(("0.18", "0.18", "0.31"))
        assert w.exact == (Fraction(9, 50), Fraction(9, 50),
                           Fraction(31, 100))
        assert w[2] == pytest.approx(0.31)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostVector(("-0.1", "0.2"))

    def test_needs_an_entry(self):
        with pytest.raises(ValueError, match="at least one entry"):
            CostVector([])

    def test_is_uniform(self):
        assert CostVector(("0.5", "0.5")).is_uniform
        assert not CostVector(("0.5", "0.6")).is_uniform

    def test_immutable(self):
        w = CostVector(("0.18", "0.31"))
        with pytest.raises(AttributeError):
            w.exact = ()


class TestKlDivergence:
    def test_known_value(self):
        p = Pmf(np.array([0.5, 0.25, 0.25]))
        # 0.5(log2 3 - 1) + 0.5(log2 3 - 2) = log2 3 - 1.5
        assert kl_divergence(p, UNIFORM3) == pytest.approx(
            np.log2(3) - 1.5, abs=1e-12)
        assert kl_divergence(p, UNIFORM3) == pytest.approx(0.0849625007,
                                                           abs=1e-9)

    def test_self_distance_zero(self):
        p = Pmf(np.array([0.3, 0.7]))
        assert kl_divergence(p, p) == 0.0

    def test_absolute_continuity(self):
        p = Pmf(np.array([0.5, 0.5]))
        t = Pmf(np.array([1.0, 0.0]))
        assert kl_divergence(p, t) == float("inf")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            kl_divergence(Pmf.uniform(2), UNIFORM3)

    def test_zero_numerator_fine(self):
        p = Pmf(np.array([1.0, 0.0]))
        t = Pmf(np.array([0.5, 0.5]))
        assert kl_divergence(p, t) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
           st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
    def test_nonnegative(self, a, b):
        p = Pmf(np.array(a) / sum(a))
        t = Pmf(np.array(b[:len(a)]) / sum(b[:len(a)]))
        assert kl_divergence(p, t) >= -1e-12


class TestAverageCost:
    W = CostVector(("0.18", "0.18", "0.31"))

    def test_float_dot(self):
        assert average_cost(UNIFORM3, self.W) == pytest.approx(0.67 / 3)

    def test_exact_dyadic(self):
        d = DyadicPmf((1, 2, 2))
        assert average_cost_exact(d, self.W) == Fraction(17, 80)  # 0.2125

    def test_exact_skips_dropped_symbols(self):
        d = DyadicPmf((1, 1, None))
        assert average_cost_exact(d, self.W) == Fraction(9, 50)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            average_cost(Pmf.uniform(2), self.W)

    def test_exact_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            average_cost_exact(DyadicPmf((1, 1)), self.W)


class TestKronecker:
    def test_pmf_order_first_symbol_most_significant(self):
        t = Pmf(np.array([0.75, 0.25]))
        t2 = kronecker_pmf(t, 2)
        assert list(t2) == pytest.approx([9 / 16, 3 / 16, 3 / 16, 1 / 16])

    def test_pmf_k1_identity(self):
        assert kronecker_pmf(UNIFORM3, 1) == UNIFORM3

    def test_cost_exact_sums(self):
        w = CostVector(("0.18", "0.31"))
        v2 = kronecker_cost(w, 2)
        assert v2.exact == (Fraction(9, 25), Fraction(49, 100),
                            Fraction(49, 100), Fraction(31, 50))

    def test_tied_classes_stay_tied(self):
        w = CostVector(("0.18", "0.18", "0.31"))
        v3 = kronecker_cost(w, 3)
        # blocks llr and rll cost exactly the same
        assert v3.exact[1] == v3.exact[9]

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            kronecker_pmf(Pmf.uniform(3), 15)
        with pytest.raises(SizeCapError):
            kronecker_cost(CostVector(["0.1"] * 3), 15)
        assert SIZE_CAP == 10 ** 7

    def test_cap_boundary_allows_exact_fit(self):
        t7 = kronecker_pmf(Pmf.uniform(10), 7)
        assert len(t7) == SIZE_CAP

    @pytest.mark.parametrize("m, k, cap, fits", [
        (2, 3, 8, True), (2, 4, 8, False), (2, 3, 7, False),
        (3, 14, SIZE_CAP, True), (3, 15, SIZE_CAP, False),
        (10, 7, SIZE_CAP, True), (10, 8, SIZE_CAP, False),
        (2, 23, SIZE_CAP, True), (2, 24, SIZE_CAP, False),
        (1, 10 ** 9, 1, True)])
    def test_check_size_cap_boundary(self, m, k, cap, fits, monkeypatch):
        # the rule holds for any value of the module constant
        monkeypatch.setattr(PMF_MODULE, "SIZE_CAP", cap)
        if fits:
            check_size_cap(m, k)
        else:
            with pytest.raises(SizeCapError):
                check_size_cap(m, k)

    def test_check_size_cap_needs_a_block(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            check_size_cap(3, 0)

    def test_huge_k_refused_without_the_power(self):
        start = time.perf_counter()
        with pytest.raises(SizeCapError) as info:
            kronecker_pmf(Pmf.uniform(3), 10 ** 7)
        assert time.perf_counter() - start < 0.5
        assert str(info.value) == "3^10000000 entries exceeds cap 10000000"
