"""Text to bits to cost-constrained symbols, and back.

The encode direction compresses text with a source prefix code, then
parses the resulting bit stream with a complete matcher code, emitting
one symbol block per parsed codeword. Because the matcher is complete,
any bit stream parses; a stream that ends inside a codeword is completed
with zero bits, and the original bit count travels with the result so
the decode direction can strip the padding exactly.

Every stage checks and walks bits with the codes module's validate_bits
and PrefixCode.parse; this module decides what a stream that stops
early means for each stage.
"""
from __future__ import annotations

import os
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codes import PrefixCode, SymbolAlphabet, validate_bits, verify_kraft
from .errors import CodeFormatError
from .facade import SLAT_ALPHABET, SLOT_WIDTH
from .pmf import CostVector, Pmf, average_cost


@dataclass(frozen=True)
class FrequencyStats:
    """Empirical statistics of an encoded symbol stream, as facade_stats
    gives them.

    bit_balance is the fraction of zeros in the compressed bit stream
    (None when no bit stream is in scope, or it is empty); shadowing is
    the average cost divided by the slot width.
    """

    effective_freqs: Pmf
    effective_cost: float
    bit_balance: Optional[float]
    shadowing: float


@dataclass(frozen=True)
class EncodeResult:
    """Matched symbol stream plus the bookkeeping needed to invert it.

    bit_count is the compressed stream's length and pad_bits the zeros
    that complete its last codeword. symbols is a whole number of matcher
    blocks, except when a slat budget cut it mid-block.
    """

    symbols: str
    bit_count: int
    pad_bits: int
    stats: Optional[FrequencyStats] = None


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
    validate_bits(bits)
    chars, stop = source_code.parse(bits)
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
    validate_bits(bits)
    kraft = verify_kraft(matcher)
    if kraft != 1:
        raise ValueError(f"matcher code is not complete (Kraft sum {kraft})")
    blocks, stop = matcher.parse(bits)
    pad = 0
    if stop < len(bits):
        # a complete code's parse stops only inside a codeword
        rest = bits[stop:]
        last = matcher.parse(rest + "0" * matcher.max_length)[0][0]
        blocks.append(last)
        pad = len(matcher.bits_for(last)) - len(rest)
    return EncodeResult(symbols="".join(blocks), bit_count=len(bits),
                        pad_bits=pad)


def unmatch_symbols(symbols: str, matcher: PrefixCode, bit_count: int) -> str:
    """Inverse of match_bits: blocks back to bits, truncated to bit_count.

    A trailing partial block, such as the end of a wall that run_facade
    repeated to its slat budget, is ignored when the whole blocks before it
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
                          bit_balance=balance, shadowing=cost / SLOT_WIDTH)


def _chars_consumed(kept: str, matcher: PrefixCode, source_code: PrefixCode,
                    bits: str) -> int:
    """How many text characters the whole blocks of a truncated stream
    carry. Those blocks are the first codewords parsed from bits."""
    k = _block_length(matcher)
    carried = sum(len(matcher.bits_for(kept[j:j + k]))
                  for j in range(0, len(kept) - k + 1, k))
    return len(source_code.parse(bits[:carried])[0])


def run_facade(text: str, source_code: PrefixCode, matcher: PrefixCode,
               w: CostVector, slat_budget: Optional[int] = None,
               alphabet: Optional[SymbolAlphabet] = None) -> EncodeResult:
    """Full pipeline: compress, match, fit to a slat budget, measure.

    With a budget N, the natural stream is repeated ceil(N / len) times
    and cut at N symbols: a longer stream is cut (a warning reports how
    much of the text survives), a shorter one repeats the message, so the
    wall costs about what the message does. An empty message has nothing
    to repeat and raises ValueError. Without a budget, the natural stream
    is returned. pad_bits counts the zeros completing the last codeword.
    """
    bits = compress_text(text, source_code)
    enc = match_bits(bits, matcher)
    symbols = enc.symbols
    if slat_budget is not None:
        if slat_budget < 1:
            raise ValueError("slat budget must be positive")
        if not symbols:
            raise ValueError("an empty message has nothing to repeat "
                             "across a slat budget")
        if len(symbols) > slat_budget:
            consumed = _chars_consumed(symbols[:slat_budget], matcher,
                                       source_code, bits)
            warnings.warn(
                f"slat budget {slat_budget} truncates the stream: "
                f"{consumed} of {len(text)} text characters are displayed")
        symbols = (symbols * -(-slat_budget // len(symbols)))[:slat_budget]
    stats = None
    if symbols:
        stats = facade_stats(symbols, w, alphabet, bits=bits or None)
    return EncodeResult(symbols=symbols, bit_count=len(bits),
                        pad_bits=enc.pad_bits, stats=stats)
