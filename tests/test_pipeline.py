"""End-to-end text/bits/symbols pipeline."""
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dymatch import (CodeFormatError, PrefixCode, SymbolAlphabet,
                     as_fraction, ccghc, canonical_code, compress_text,
                     decompress_bits, facade_stats, kronecker_cost,
                     kronecker_pmf, match_bits, run_facade, unmatch_symbols,
                     verify_kraft)
from dymatch.facade import SLAT_COSTS, TARGET, matcher_code, source_code

SRC = source_code()
MAT = matcher_code()
PHRASE = "shannon the fu"

bits_strategy = st.text(alphabet="01", max_size=300)
text_strategy = st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", max_size=60)


class TestCompressText:
    def test_single_letter(self):
        assert compress_text("e", SRC) == "110"

    def test_empty(self):
        assert compress_text("", SRC) == ""

    def test_lowercases(self):
        assert compress_text("SHANNON", SRC) == compress_text("shannon", SRC)

    def test_out_of_alphabet_reports_position(self):
        with pytest.raises(CodeFormatError) as err:
            compress_text("shannon!", SRC)
        assert err.value.position == 7

    def test_round_trip_phrase(self):
        assert decompress_bits(compress_text(PHRASE, SRC), SRC) == PHRASE

    @given(text_strategy)
    def test_round_trip_random(self, text):
        assert decompress_bits(compress_text(text, SRC), SRC) == text


class TestDecompressBits:
    def test_rejects_partial_codeword(self):
        with pytest.raises(CodeFormatError):
            decompress_bits("11", SRC)  # prefix of e=110 and others

    def test_rejects_non_bits(self):
        with pytest.raises(CodeFormatError) as err:
            decompress_bits("1102", SRC)
        assert err.value.position == 3


class TestMatchBits:
    def test_single_block(self):
        res = match_bits("0010", MAT)
        assert res.symbols == "lll"
        assert res.bit_count == 4
        assert res.pad_bits == 0

    def test_empty(self):
        res = match_bits("", MAT)
        assert res.symbols == "" and res.pad_bits == 0

    def test_padding(self):
        res = match_bits("001", MAT)
        assert res.symbols == "lll"  # 001 + padded 0 = 0010
        assert res.pad_bits == 1
        assert res.bit_count == 3

    def test_pad_bits_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            bits = "".join(rng.choice(["0", "1"], size=rng.integers(0, 64)))
            res = match_bits(bits, MAT)
            assert res.pad_bits < MAT.max_length
            assert len(res.symbols) % 3 == 0

    def test_rejects_incomplete_matcher(self):
        partial = PrefixCode([("aaa", "0"), ("bbb", "10")])
        with pytest.raises(ValueError):
            match_bits("0", partial)

    @given(bits_strategy)
    def test_totality_and_round_trip(self, bits):
        res = match_bits(bits, MAT)
        assert unmatch_symbols(res.symbols, MAT, res.bit_count) == bits


class TestUnmatchSymbols:
    def test_single_block(self):
        assert unmatch_symbols("lll", MAT, 4) == "0010"

    def test_strips_padding(self):
        assert unmatch_symbols("lll", MAT, 3) == "001"

    def test_unknown_block(self):
        with pytest.raises(CodeFormatError):
            unmatch_symbols("xyz", MAT, 4)

    def test_partial_block_rejected(self):
        with pytest.raises(CodeFormatError):
            unmatch_symbols("ll", MAT, 4)

    def test_mixed_block_lengths_rejected(self):
        mixed = PrefixCode([("l", "0"), ("rm", "1")])
        with pytest.raises(ValueError, match=r"mixed lengths \[1, 2\]"):
            unmatch_symbols("lrm", mixed, 2)

    def test_partial_block_after_the_bits_ignored(self):
        # lll carries 0010; a trailing ll cut from a repeat adds no bits
        assert unmatch_symbols("lllll", MAT, 4) == "0010"
        with pytest.raises(CodeFormatError):
            unmatch_symbols("lllll", MAT, 5)

    def test_filled_wall_decodes(self):
        res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=4264)
        assert len(res.symbols) % 3 == 1
        bits = unmatch_symbols(res.symbols, MAT, res.bit_count)
        assert decompress_bits(bits, SRC) == PHRASE

    def test_truncated_wall_rejected(self):
        with pytest.warns(UserWarning):
            res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=13)
        with pytest.raises(CodeFormatError):
            unmatch_symbols(res.symbols, MAT, res.bit_count)

    def test_bit_count_range_checked(self):
        with pytest.raises(ValueError):
            unmatch_symbols("lll", MAT, 5)


class TestGeneratedMatchers:
    """Totality must hold for any ccghc-built matcher, not just the
    shipped one."""

    def _matcher(self, k: int, budget: str) -> PrefixCode:
        tk = kronecker_pmf(TARGET, k)
        vk = kronecker_cost(SLAT_COSTS, k)
        res = ccghc(tk, vk, k * as_fraction(budget))
        import itertools
        blocks = tuple(map("".join, itertools.product("lrm", repeat=k)))
        return canonical_code(res.d, blocks)

    def test_round_trip_through_generated(self):
        rng = np.random.default_rng(9)
        for k, budget in ((1, "0.21"), (2, "0.2063"), (3, "0.206")):
            code = self._matcher(k, budget)
            for _ in range(40):
                bits = "".join(rng.choice(["0", "1"],
                                          size=rng.integers(0, 120)))
                res = match_bits(bits, code)
                assert unmatch_symbols(res.symbols, code,
                                       res.bit_count) == bits


def _ref_parse(bits, code):
    out, pos = [], 0
    while hit := next((e for e in code.entries if bits.startswith(e[1], pos)),
                      None):
        out.append(hit[0])
        pos += len(hit[1])
    return out, pos


def _ref_decompress(bits, code):
    """(text, None) or (None, error position), from _ref_parse."""
    out, stop = _ref_parse(bits, code)
    if stop == len(bits):
        return "".join(out), None
    # the first bit that no codeword continues with
    words = [b for _, b in code.entries]
    return None, next((i for i in range(stop, len(bits))
                       if not any(b.startswith(bits[stop:i + 1])
                                  for b in words)), len(bits))


def _ref_match(bits, code):
    """(symbols, pad_bits): whole codewords, the last completed with
    zeros."""
    out, used = [], 0
    for sym in _ref_parse(bits + "0" * code.max_length, code)[0]:
        if used >= len(bits):
            break
        out.append(sym)
        used += len(code.bits_for(sym))
    return "".join(out), used - len(bits)


def _k2_matcher():
    res = ccghc(kronecker_pmf(TARGET, 2), kronecker_cost(SLAT_COSTS, 2),
                2 * as_fraction("0.2063"))
    blocks = tuple(a + b for a in "lrm" for b in "lrm")
    return canonical_code(res.d, blocks)


INCOMPLETE = PrefixCode([("a", "0"), ("b", "10"), ("c", "1101")])


class TestParseDifferential:
    """The one parser behind every pipeline stage, against a parser that
    tries each codeword with startswith."""

    CODES = {"source": SRC, "matcher": MAT, "k2": _k2_matcher(),
             "incomplete": INCOMPLETE}

    @pytest.mark.parametrize("name", sorted(CODES))
    @given(bits=bits_strategy)
    def test_parse(self, name, bits):
        code = self.CODES[name]
        assert code.parse(bits) == _ref_parse(bits, code)

    @pytest.mark.parametrize("name", sorted(CODES))
    @given(bits=bits_strategy)
    def test_decompress(self, name, bits):
        code = self.CODES[name]
        text, position = _ref_decompress(bits, code)
        if position is None:
            assert decompress_bits(bits, code) == text
        else:
            with pytest.raises(CodeFormatError) as err:
                decompress_bits(bits, code)
            assert err.value.position == position

    @pytest.mark.parametrize("name", sorted(CODES))
    @given(bits=bits_strategy)
    def test_match(self, name, bits):
        code = self.CODES[name]
        if verify_kraft(code) != 1:
            with pytest.raises(ValueError):
                match_bits(bits, code)
            return
        res = match_bits(bits, code)
        assert (res.symbols, res.pad_bits) == _ref_match(bits, code)

    def test_incomplete_code_errors(self):
        # 11 starts c = 1101 but 111 starts nothing
        with pytest.raises(CodeFormatError) as err:
            decompress_bits("0111", INCOMPLETE)
        assert err.value.position == 3
        with pytest.raises(CodeFormatError) as err:
            decompress_bits("0110", INCOMPLETE)
        assert err.value.position == 4


class TestFacadeStats:
    def test_all_left(self):
        st_ = facade_stats("lll", SLAT_COSTS)
        assert list(st_.effective_freqs) == [1.0, 0.0, 0.0]
        assert st_.effective_cost == pytest.approx(0.18)
        assert st_.shadowing == pytest.approx(0.18 / 0.625)

    def test_cost_identity(self):
        st_ = facade_stats("lrmmrl", SLAT_COSTS)
        dot = sum(f * c for f, c in zip(st_.effective_freqs,
                                        SLAT_COSTS.costs))
        assert st_.effective_cost == pytest.approx(dot, abs=1e-15)

    def test_bit_balance(self):
        st_ = facade_stats("lr", SLAT_COSTS, bits="0011")
        assert st_.bit_balance == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            facade_stats("", SLAT_COSTS)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            facade_stats("xx", SLAT_COSTS)

    def test_costs_alphabet_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 2"):
            facade_stats("lr", SLAT_COSTS, SymbolAlphabet(("l", "r")))


class TestRunFacade:
    def test_natural_length(self):
        res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS)
        assert len(res.symbols) == 39
        assert res.bit_count == 57
        assert res.stats is not None

    def test_budget_above_natural_length_keeps_the_message_first(self):
        res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=60)
        assert len(res.symbols) == 60
        assert res.symbols.startswith(
            run_facade(PHRASE, SRC, MAT, SLAT_COSTS).symbols)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_fit_rule_below_at_and_above(self, seed):
        # the wall is the natural stream repeated and cut at the budget,
        # whether the budget is below, at or above its length
        rng = random.Random(seed)
        chars = [s for s, _ in SRC.entries]
        text = "".join(rng.choices(chars, k=rng.randint(1, 40)))
        natural = run_facade(text, SRC, MAT, SLAT_COSTS)
        n = len(natural.symbols)
        for budget in sorted({1, max(1, n - 1), n, n + 1, 2 * n + 2,
                              rng.randint(1, 5 * n)}):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = run_facade(text, SRC, MAT, SLAT_COSTS,
                                 slat_budget=budget)
            assert res.symbols == \
                (natural.symbols * -(-budget // n))[:budget]
            assert res.pad_bits == natural.pad_bits
            assert res.bit_count == natural.bit_count
            assert len(caught) == (n > budget)

    def test_readme_wall_within_budget(self):
        # the repeated message costs what the message does, within S
        res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=4264)
        assert res.stats.effective_cost <= 0.2063
        assert res.stats.effective_cost == pytest.approx(0.20335, abs=5e-6)

    def test_budget_truncates_with_warning(self):
        with pytest.warns(UserWarning, match="truncates"):
            res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=12)
        assert len(res.symbols) == 12

    def test_truncated_prefix_still_decodes(self):
        with pytest.warns(UserWarning):
            res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=12)
        total = sum(len(MAT.bits_for(res.symbols[j:j + 3]))
                    for j in range(0, 12, 3))
        bits = unmatch_symbols(res.symbols, MAT, min(res.bit_count, total))
        # walk whole codewords only; the prefix of the text must emerge
        out = []
        node_ok = True
        chunk = bits
        while chunk and node_ok:
            node_ok = False
            for sym, cw in SRC.entries:
                if chunk.startswith(cw):
                    out.append(sym)
                    chunk = chunk[len(cw):]
                    node_ok = True
                    break
        assert PHRASE.startswith("".join(out)[:len(PHRASE)])

    def test_short_text_small_budget(self):
        res = run_facade("e", SRC, MAT, SLAT_COSTS, slat_budget=3)
        assert len(res.symbols) == 3

    def test_big_budget(self):
        res = run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=4264)
        assert len(res.symbols) == 4264
        assert res.stats is not None
        assert res.stats.effective_cost <= 0.31

    def test_empty_text_no_budget(self):
        res = run_facade("", SRC, MAT, SLAT_COSTS)
        assert res.symbols == "" and res.stats is None

    def test_empty_text_with_budget_raises(self):
        with pytest.raises(ValueError, match="nothing to repeat"):
            run_facade("", SRC, MAT, SLAT_COSTS, slat_budget=60)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            run_facade(PHRASE, SRC, MAT, SLAT_COSTS, slat_budget=0)


class TestMarginal:
    def test_m_frequency_matches_model(self):
        # per-symbol m-marginal of the matcher's dyadic pmf is
        # 0.6015625/3; empirical frequency under iid fair bits must land
        # within 3 sigma
        rng = np.random.default_rng(2024)
        bits = "".join(rng.choice(["0", "1"], size=100_000))
        res = match_bits(bits, MAT)
        n = len(res.symbols)
        p = 0.6015625 / 3
        sigma = (p * (1 - p) / n) ** 0.5
        freq = res.symbols.count("m") / n
        assert abs(freq - p) < 3 * sigma
