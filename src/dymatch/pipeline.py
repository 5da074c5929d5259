"""Text to bits to cost-constrained symbols, and back.

The encode direction compresses text with a source prefix code, then
parses the resulting bit stream with a complete matcher code, emitting
one symbol block per parsed codeword. Because the matcher is complete,
any bit stream parses; a stream that ends inside a codeword is completed
with zero bits, and the original bit count travels with the result so
the decode direction can strip the padding exactly.
"""
from __future__ import annotations

import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codes import PrefixCode, SymbolAlphabet, verify_kraft
from .errors import CodeFormatError
from .facade import SLAT_ALPHABET, SLOT_WIDTH
from .pmf import CostVector, Pmf, average_cost


@dataclass(frozen=True)
class FrequencyStats:
    """Empirical statistics of an encoded symbol stream.

    bit_balance is the fraction of zeros in the compressed bit stream
    (None when no bit stream is in scope); shadowing is the average cost
    divided by the slot width.
    """

    effective_freqs: Pmf
    effective_cost: float
    bit_balance: Optional[float] = None
    shadowing: Optional[float] = None


@dataclass(frozen=True)
class EncodeResult:
    """Matched symbol stream plus the bookkeeping needed to invert it.

    bit_count is the length of the compressed stream before padding.
    symbols is a whole number of matcher blocks, except when a slat
    budget forced a mid-block truncation.
    """

    symbols: str
    bit_count: int
    pad_bits: int
    stats: Optional[FrequencyStats] = None


_NOT_A_BIT = re.compile("[^01]")


def _validate_bits(bits: str) -> None:
    bad = _NOT_A_BIT.search(bits)
    if bad:
        raise CodeFormatError(f"invalid bit {bad.group()!r}",
                              position=bad.start())


def _parse(bits: str, code: PrefixCode) -> tuple:
    """Symbols of the longest run of whole codewords that starts bits,
    and the position where the run stops.

    Any prefix code works, canonical or not: at each position the code's
    distinct codeword lengths are tried in ascending order, and
    prefix-freeness makes the first hit the only one.
    """
    by_bits, lengths = code._by_bits, code._lengths
    out = []
    pos, n = 0, len(bits)
    while pos < n:
        for l in lengths:
            sym = by_bits.get(bits[pos:pos + l])
            if sym is not None:
                break
        else:
            break
        out.append(sym)
        pos += l
    return out, pos


def _block_length(matcher: PrefixCode) -> int:
    lengths = {len(sym) for sym, _ in matcher.entries}
    if len(lengths) != 1:
        raise ValueError(f"matcher blocks have mixed lengths {sorted(lengths)}")
    return lengths.pop()


def compress_text(text: str, source_code: PrefixCode) -> str:
    """Concatenated codewords of the lowercased text.

    Raises CodeFormatError with the offending position for characters
    outside the code's alphabet.
    """
    out = []
    for i, ch in enumerate(text.lower()):
        if ch not in source_code:
            raise CodeFormatError(f"character {ch!r} not in the source code",
                                  position=i)
        out.append(source_code.bits_for(ch))
    return "".join(out)


def decompress_bits(bits: str, source_code: PrefixCode) -> str:
    """Inverse of compress_text; the bits must be whole codewords."""
    _validate_bits(bits)
    chars, stop = _parse(bits, source_code)
    if stop < len(bits):
        rest = bits[stop:]
        # bits past the longest prefix of rest that some codeword shares
        # start no codeword
        depth = max(len(os.path.commonprefix((rest, cw)))
                    for _, cw in source_code.entries)
        if depth == len(rest):
            raise CodeFormatError("bit stream ends inside a codeword",
                                  position=len(bits))
        raise CodeFormatError("bits do not match any codeword",
                              position=stop + depth)
    return "".join(chars)


def match_bits(bits: str, matcher: PrefixCode) -> EncodeResult:
    """Parse a bit stream into symbol blocks with a complete matcher.

    Completeness guarantees every stream parses. A final partial codeword
    is completed with zero bits; pad_bits records how many were added.
    """
    _validate_bits(bits)
    kraft = verify_kraft(matcher)
    if kraft != 1:
        raise ValueError(f"matcher code is not complete (Kraft sum {kraft})")
    blocks, stop = _parse(bits, matcher)
    pad = 0
    if stop < len(bits):
        # a complete code's parse stops only inside a codeword
        rest = bits[stop:]
        last = _parse(rest + "0" * matcher.max_length, matcher)[0][0]
        blocks.append(last)
        pad = len(matcher.bits_for(last)) - len(rest)
    return EncodeResult(symbols="".join(blocks), bit_count=len(bits),
                        pad_bits=pad)


def unmatch_symbols(symbols: str, matcher: PrefixCode, bit_count: int) -> str:
    """Inverse of match_bits: blocks back to bits, truncated to bit_count.

    A trailing partial block, such as the end of a wall that run_facade
    filled to its slat budget, is ignored when the whole blocks before it
    already carry bit_count bits; otherwise it is an error.
    """
    k = _block_length(matcher)
    whole = len(symbols) - len(symbols) % k
    chunks = []
    for j in range(0, whole, k):
        block = symbols[j:j + k]
        if block not in matcher:
            raise CodeFormatError(f"unknown block {block!r}", position=j)
        chunks.append(matcher.bits_for(block))
    joined = "".join(chunks)
    if whole < len(symbols) and len(joined) < bit_count:
        raise CodeFormatError(
            f"symbol stream length {len(symbols)} is not a multiple of the "
            f"block length {k}")
    if not 0 <= bit_count <= len(joined):
        raise ValueError(f"bit_count {bit_count} outside 0..{len(joined)}")
    return joined[:bit_count]


def facade_stats(symbols: str, w: CostVector,
                 alphabet: Optional[SymbolAlphabet] = None,
                 slot_width: float = SLOT_WIDTH,
                 bits: Optional[str] = None) -> FrequencyStats:
    """Empirical frequencies, average cost, and shadowing of a stream.

    The cost is computed from the empirical frequencies, so the identity
    effective_cost = w^T effective_freqs holds by construction. The
    alphabet defaults to the slat positions (l, r, m).
    """
    if alphabet is None:
        alphabet = SLAT_ALPHABET
    if not symbols:
        raise ValueError("empty symbol stream")
    if len(w) != len(alphabet):
        raise ValueError(f"length mismatch: {len(w)} vs {len(alphabet)}")
    counts = Counter(symbols)
    unknown = set(counts) - set(alphabet.symbols)
    if unknown:
        raise ValueError(f"symbols outside the alphabet: {sorted(unknown)}")
    freqs = Pmf(np.array([counts.get(s, 0) for s in alphabet.symbols], float)
                / len(symbols))
    cost = average_cost(freqs, w)
    balance = None
    if bits:
        balance = bits.count("0") / len(bits)
    return FrequencyStats(effective_freqs=freqs, effective_cost=cost,
                          bit_balance=balance, shadowing=cost / slot_width)


def _chars_consumed(kept: str, matcher: PrefixCode, source_code: PrefixCode,
                    bits: str) -> int:
    """How many text characters the whole blocks of a truncated stream
    carry. Those blocks are the first codewords parsed from bits."""
    k = _block_length(matcher)
    carried = sum(len(matcher.bits_for(kept[j:j + k]))
                  for j in range(0, len(kept) - k + 1, k))
    return len(_parse(bits[:carried], source_code)[0])


def run_facade(text: str, source_code: PrefixCode, matcher: PrefixCode,
               w: CostVector, slat_budget: Optional[int] = None,
               alphabet: Optional[SymbolAlphabet] = None) -> EncodeResult:
    """Full pipeline: compress, match, fit to a slat budget, measure.

    With a budget, the stream is truncated to exactly slat_budget symbols
    (a warning reports how much of the text survives) or grown to it by
    feeding zero bits through the matcher, which repeats the block of its
    all-zero codeword (llm for the shipped matcher) and cuts the last
    repeat at the budget. The fill ignores the cost budget: a mostly
    filled wall costs what that block costs, so "shannon the fu" on 4264
    slats averages 0.22314 against the shipped 0.2063. Without a budget,
    the natural stream is returned. pad_bits counts every zero bit
    appended, both the codeword completion and the budget fill.
    """
    bits = compress_text(text, source_code)
    enc = match_bits(bits, matcher)
    symbols, pad = enc.symbols, enc.pad_bits
    if slat_budget is not None:
        if slat_budget < 1:
            raise ValueError("slat budget must be positive")
        if len(symbols) > slat_budget:
            kept = symbols[:slat_budget]
            consumed = _chars_consumed(kept, matcher, source_code, bits)
            warnings.warn(
                f"slat budget {slat_budget} truncates the stream: "
                f"{consumed} of {len(text)} text characters are displayed")
            symbols = kept
        elif len(symbols) < slat_budget:
            zero = next(s for s, b in matcher.entries if "1" not in b)
            repeats = -(-(slat_budget - len(symbols)) // len(zero))
            symbols = (symbols + zero * repeats)[:slat_budget]
            pad += repeats * len(matcher.bits_for(zero))
    stats = None
    if symbols:
        stats = facade_stats(symbols, w, alphabet, bits=bits or None)
    return EncodeResult(symbols=symbols, bit_count=len(bits), pad_bits=pad,
                        stats=stats)
