"""Prefix codes: canonical assignment, Kraft verification, and
code-table text.

A code table file is UTF-8 text, one entry per line as
<symbol-or-block><TAB><bitstring>, with # starting a comment line and
blank lines ignored. A block is written as its symbols concatenated
(lmr), and each space as _. table_token is the one rule for what a
symbol may be: format_code_table refuses through it a symbol the file
would not give back, and the command line applies it to --alphabet
before any work. SymbolAlphabet holds only order and distinctness.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CodeFormatError
from .pmf import DyadicPmf, kraft_sum

SPACE_TOKEN = "_"

# the first character of a bit string that is not a bit
_NOT_A_BIT = re.compile("[^01]")
# a string from its fourth character on
_AFTER_0B1 = itemgetter(slice(3, None))


def validate_bits(bits: str) -> None:
    """Raise CodeFormatError at the first character of bits not 0 or 1."""
    bad = _NOT_A_BIT.search(bits)
    if bad:
        raise CodeFormatError(f"invalid bit {bad.group()!r}",
                              position=bad.start())


@dataclass(frozen=True)
class SymbolAlphabet:
    """Ordered distinct non-empty symbol strings; what a code table can
    spell is table_token's rule."""

    symbols: tuple

    def __post_init__(self):
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        for s in symbols:
            if not isinstance(s, str) or not s:
                raise ValueError(f"symbol must be a non-empty string, got {s!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


class PrefixCode:
    """Immutable symbol-to-codeword mapping, prefix-free by construction.

    A source code (compressing symbols to bits) and a matcher code
    (parsing bits into symbol blocks) are both stored symbol to bits.

    Prefix-freeness is enforced here; completeness (Kraft sum exactly 1,
    needed so every bit stream parses) is checked by the operations that
    rely on it, and reported by verify_kraft.
    """

    __slots__ = ("entries", "_by_symbol", "_by_bits", "_lengths")

    def __init__(self, entries: Iterable):
        pairs = tuple((str(s), str(b)) for s, b in entries)
        if not pairs:
            raise ValueError("code needs at least one entry")
        by_symbol = {}
        for sym, bits in pairs:
            if not bits or bits.strip("01"):
                raise ValueError(f"codeword for {sym!r} must be non-empty bits, "
                                 f"got {bits!r}")
            if sym in by_symbol:
                raise ValueError(f"duplicate symbol {sym!r}")
            by_symbol[sym] = bits
        violations = prefix_violations(pairs)
        if violations:
            (_, a), (_, b) = violations[0]
            raise ValueError(f"codeword {a!r} is a prefix of {b!r}")
        self._set(pairs, by_symbol, {b: s for s, b in pairs},
                  tuple(sorted({len(b) for _, b in pairs})))

    @classmethod
    def _checked(cls, entries: tuple, by_symbol: dict, by_bits: dict,
                 lengths: tuple) -> "PrefixCode":
        """Instance from the parts __init__ builds, whose checks the
        caller has made: entries as (symbol, bits) string pairs, symbol
        to bits, bits to symbol, and the distinct codeword lengths in
        ascending order."""
        out = cls.__new__(cls)
        out._set(entries, by_symbol, by_bits, lengths)
        return out

    def _set(self, entries, by_symbol, by_bits, lengths) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_symbol", by_symbol)
        # parse's index: codeword to symbol, and the distinct codeword
        # lengths in ascending order
        object.__setattr__(self, "_by_bits", by_bits)
        object.__setattr__(self, "_lengths", lengths)

    def __setattr__(self, name, value):
        raise AttributeError("PrefixCode is immutable")

    def bits_for(self, symbol: str) -> str:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in code") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._by_symbol

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefixCode):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"PrefixCode({len(self.entries)} entries)"

    def parse(self, bits: str) -> tuple:
        """Symbols of the longest run of whole codewords that starts bits,
        and the position where the run stops.

        Any prefix code works, canonical or not: at each position the
        code's distinct codeword lengths are tried in ascending order, and
        prefix-freeness makes the first hit the only one.
        """
        by_bits, lengths = self._by_bits, self._lengths
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

    @property
    def max_length(self) -> int:
        return max(len(b) for _, b in self.entries)


def verify_kraft(code) -> Fraction:
    """Exact Kraft sum of the codeword lengths; 1 means complete.

    code is a PrefixCode, or (symbol, bits) pairs as parse_code_table
    returns them for a table that need not be prefix-free.
    """
    entries = code.entries if isinstance(code, PrefixCode) else code
    return kraft_sum(len(bits) for _, bits in entries)


def prefix_violations(pairs) -> list:
    """Every (prefix, extension) pair of (symbol, bits) entries whose first
    codeword is a prefix of the second, sorted by the extension's codeword,
    then by the prefix's.

    Sorted order puts every codeword after all its prefixes, and a
    codeword between a prefix and its extension extends that prefix too.
    So a stack of the current chain of prefixes, popped back to the
    longest one the next codeword extends, holds exactly that codeword's
    prefixes. The list is empty exactly when the codewords are prefix-free.
    """
    out = []
    chain = []
    for entry in sorted(pairs, key=itemgetter(1)):
        bits = entry[1]
        while chain and not bits.startswith(chain[-1][1]):
            chain.pop()
        for prefix in chain:
            out.append((prefix, entry))
        chain.append(entry)
    return out


def canonical_code(d: DyadicPmf, names: Sequence[str]) -> PrefixCode:
    """Assign codewords to a dyadic pmf canonically (Schwartz and Kallick
    1964).

    names[i], a string, names symbol i of d. Symbols are ordered by
    (length ascending, index ascending); each codeword is the previous
    one incremented then left-shifted to the new length, starting from
    all zeros. Symbols with probability 0 get no codeword.

    The code is verified as it is built. The counter ends at exactly
    2^top, top the longest length, which is Kraft sum 1, so the code is
    complete. That also makes it prefix-free. With c_l the counter after
    the codewords of length l, the counts are non-negative, so
    c_l 2^(top-l) <= c_top = 2^top: c_l <= 2^l at every length. So each
    codeword of length l, a number below c_l, has exactly l digits, and
    every later codeword starts with l digits that spell c_l or more.
    The codewords, in the order they were assigned, therefore increase,
    and none extends another. The symbols that get a codeword have
    distinct names, checked by the size of the symbol index. So the
    PrefixCode is built from these parts without rerunning its own
    checks, which convert each entry, sort every codeword and walk them
    with a stack.

    Raises:
        ValueError: d and names differ in length, d puts all its mass on
            one symbol (a one-symbol code has no bits to parse), d's
            lengths are not complete, or two symbols that get a codeword
            share a name (PrefixCode's "duplicate symbol" message).
    """
    if len(d) != len(names):
        raise ValueError(f"length mismatch: {len(d)} vs {len(names)}")
    lengths = np.array(d.lengths, dtype=float)  # None becomes NaN
    kept = ~np.isnan(lengths)
    if not kept.all():
        names = list(compress(names, kept.tolist()))
        lengths = lengths[kept]
    lengths = lengths.astype(np.intp)
    counts = np.bincount(lengths)
    if counts[0]:
        raise ValueError(f"cannot assign an empty codeword: the pmf puts "
                         f"all its mass on {names[int(np.argmin(lengths))]!r}"
                         f", and a one-symbol code has no bits to parse")
    used = np.flatnonzero(counts).tolist()
    # the codewords by symbol
    bits = np.empty(len(lengths), dtype=object)
    code = top = 0
    for l in used:
        code <<= l - top
        top = l
        n = int(counts[l])
        # bin of 2^l + x is '0b1' and then x in l digits
        run = list(map(_AFTER_0B1, map(bin, range((1 << l) + code,
                                                  (1 << l) + code + n))))
        bits[lengths == l] = run
        code += n
    if code != 1 << top:
        raise ValueError(f"Kraft sum is {Fraction(code, 1 << top)}, not 1")
    bits = bits.tolist()
    entries = tuple(zip(names, bits))
    by_symbol = dict(entries)
    if len(by_symbol) != len(entries):
        # PrefixCode names the first repeat in entry order
        seen = set()
        for s in names:
            if s in seen:
                raise ValueError(f"duplicate symbol {s!r}")
            seen.add(s)
    return PrefixCode._checked(entries, by_symbol, dict(zip(bits, names)),
                               tuple(used))


def table_token(symbol: str) -> str:
    """symbol as a code-table file spells it, each space written as _.

    Raises ValueError for a symbol that parse_code_table would not give
    back: one holding _, or one whose spelling is empty, holds whitespace
    or starts with # (a comment line).
    """
    if SPACE_TOKEN in symbol:
        # the file format spells space as _, so a literal _ would not
        # survive the round trip
        raise ValueError(f"symbol {symbol!r} collides with the space token")
    token = symbol.replace(" ", SPACE_TOKEN)
    # split() breaks token at exactly the characters isspace() accepts,
    # which the parser strips or splits lines at. Past the space, now _,
    # each of them is unprintable, so a printable token skips that test.
    if (not token or token[0] == "#"
            or not token.isprintable() and token.split() != [token]):
        raise ValueError(f"symbol {symbol!r} is empty, starts with '#' or "
                         f"holds whitespace other than a space")
    return token


def parse_code_table(text: str) -> list:
    """Parse code-table text into (symbol, bits) pairs without building a
    PrefixCode, so a verifier can report on malformed codes too."""
    pairs = []
    seen_bits = {}
    seen_syms = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise CodeFormatError("expected <symbol><TAB><bits>", line=lineno,
                                  column=len(line) + 1)
        token, _, bits = line.partition("\t")
        token = token.strip()
        bits = bits.strip()
        if not token:
            raise CodeFormatError("empty symbol", line=lineno, column=1)
        if not bits:
            raise CodeFormatError("empty codeword", line=lineno,
                                  column=len(line) + 1)
        # bits starts with no whitespace, so its first place after the
        # tab is where the stripped codeword starts
        start = line.index(bits, line.index("\t"))
        bad = _NOT_A_BIT.search(line, start, start + len(bits))
        if bad:
            raise CodeFormatError(f"invalid bit {bad.group()!r}",
                                  line=lineno, column=bad.start() + 1)
        symbol = token.replace(SPACE_TOKEN, " ")
        if symbol in seen_syms:
            raise CodeFormatError(f"duplicate symbol {token!r}", line=lineno)
        if bits in seen_bits:
            raise CodeFormatError(
                f"duplicate codeword {bits!r} (also line {seen_bits[bits]})",
                line=lineno)
        seen_syms.add(symbol)
        seen_bits[bits] = lineno
        pairs.append((symbol, bits))
    if not pairs:
        raise CodeFormatError("no entries found")
    return pairs


def load_code(path) -> PrefixCode:
    """Load a code table file; prefix-freeness violations are rejected."""
    text = Path(path).read_text(encoding="utf-8")
    pairs = parse_code_table(text)
    try:
        return PrefixCode(pairs)
    except ValueError as e:
        raise CodeFormatError(str(e)) from e


def format_code_table(code: PrefixCode) -> str:
    """Code-table text that parse_code_table reads back identically."""
    return "".join(f"{table_token(sym)}\t{bits}\n"
                   for sym, bits in code.entries)
