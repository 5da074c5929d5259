"""Prefix codes: canonical assignment, Huffman construction, Kraft
verification, and code-table files.

A code table file is UTF-8 text, one entry per line as
<symbol-or-block><TAB><bitstring>, with # starting a comment line and
blank lines ignored. Blocks are written as concatenated symbol tokens
(lmr). The space symbol is written as _ in files.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CodeFormatError
from .pmf import DyadicPmf, kraft_sum

SPACE_TOKEN = "_"


@dataclass(frozen=True)
class SymbolAlphabet:
    """Ordered distinct symbol tokens."""

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
            if s != " " and (any(c.isspace() for c in s) or "#" in s):
                raise ValueError(f"symbol {s!r} contains whitespace or '#'")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

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
            if not bits or any(c not in "01" for c in bits):
                raise ValueError(f"codeword for {sym!r} must be non-empty bits, "
                                 f"got {bits!r}")
            if sym in by_symbol:
                raise ValueError(f"duplicate symbol {sym!r}")
            by_symbol[sym] = bits
        violations = prefix_violations(pairs)
        if violations:
            (_, a), (_, b) = violations[0]
            raise ValueError(f"codeword {a!r} is a prefix of {b!r}")
        object.__setattr__(self, "entries", pairs)
        object.__setattr__(self, "_by_symbol", by_symbol)
        # the parser's view: codeword to symbol, and the distinct codeword
        # lengths in ascending order
        object.__setattr__(self, "_by_bits", {b: s for s, b in pairs})
        object.__setattr__(self, "_lengths",
                           tuple(sorted({len(b) for _, b in pairs})))

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

    @property
    def symbols(self) -> tuple:
        return tuple(s for s, _ in self.entries)

    @property
    def max_length(self) -> int:
        return max(len(b) for _, b in self.entries)

    @property
    def is_complete(self) -> bool:
        return verify_kraft(self) == 1


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
    for entry in sorted(pairs, key=lambda e: e[1]):
        bits = entry[1]
        while chain and not bits.startswith(chain[-1][1]):
            chain.pop()
        for prefix in chain:
            out.append((prefix, entry))
        chain.append(entry)
    return out


def canonical_code(d: DyadicPmf, alphabet: SymbolAlphabet) -> PrefixCode:
    """Assign codewords to a dyadic pmf canonically.

    Symbols are ordered by (length ascending, alphabet index ascending);
    each codeword is the previous one incremented then left-shifted to
    the new length, starting from all zeros. Kraft equality of d makes
    the result prefix-free and complete by construction. Symbols with
    probability 0 get no codeword.
    """
    if len(d) != len(alphabet):
        raise ValueError(f"length mismatch: {len(d)} vs {len(alphabet)}")
    order = sorted((l, i) for i, l in enumerate(d.lengths) if l is not None)
    if order[0][0] == 0:
        raise ValueError(
            f"cannot assign an empty codeword: the pmf puts all its mass on "
            f"{alphabet.symbols[order[0][1]]!r}, and a one-symbol code has "
            f"no bits to parse")
    assigned = {}
    code = 0
    prev_len = order[0][0]
    for pos, (l, i) in enumerate(order):
        if pos > 0:
            code = (code + 1) << (l - prev_len)
            prev_len = l
        assigned[i] = format(code, f"0{l}b")
    entries = [(alphabet.symbols[i], assigned[i])
               for i in range(len(alphabet)) if i in assigned]
    return PrefixCode(entries)


def huffman(freqs: Sequence[float], alphabet: SymbolAlphabet) -> PrefixCode:
    """Optimal prefix code for the given positive frequencies.

    Ties are broken deterministically: nodes are keyed by (weight, lowest
    symbol index inside), and of the two merged nodes the one with the
    lower index becomes the 0-branch.
    """
    if len(freqs) != len(alphabet):
        raise ValueError(f"length mismatch: {len(freqs)} vs {len(alphabet)}")
    if len(freqs) < 2:
        raise ValueError("need at least 2 symbols")
    if any(not f > 0 for f in freqs):
        raise ValueError("frequencies must all be positive")
    heap = [(float(f), i, i) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    while len(heap) > 1:
        fa, ia, a = heapq.heappop(heap)
        fb, ib, b = heapq.heappop(heap)
        zero, one = (a, b) if ia < ib else (b, a)
        heapq.heappush(heap, (fa + fb, min(ia, ib), (zero, one)))
    codewords = {}
    stack = [(heap[0][2], "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, int):
            codewords[node] = prefix
        else:
            zero, one = node
            stack.append((zero, prefix + "0"))
            stack.append((one, prefix + "1"))
    entries = [(alphabet.symbols[i], codewords[i]) for i in range(len(alphabet))]
    return PrefixCode(entries)


def _encode_token(symbol: str) -> str:
    return symbol.replace(" ", SPACE_TOKEN)


def _decode_token(token: str) -> str:
    return token.replace(SPACE_TOKEN, " ")


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
        for j, c in enumerate(bits):
            if c not in "01":
                raise CodeFormatError(f"invalid bit {c!r}", line=lineno,
                                      column=line.index("\t") + 2 + j)
        symbol = _decode_token(token)
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


def format_code_table(code: PrefixCode, header: str = "") -> str:
    """Code-table text that parse_code_table reads back identically."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for sym, bits in code.entries:
        if SPACE_TOKEN in sym:
            # the file format spells space as _, so a literal _ would not
            # survive the round trip
            raise ValueError(f"symbol {sym!r} collides with the space token")
        lines.append(f"{_encode_token(sym)}\t{bits}")
    return "\n".join(lines) + "\n"


def save_code(code: PrefixCode, path, header: str = "") -> None:
    """Write a code table file that load_code reads back identically."""
    Path(path).write_text(format_code_table(code, header), encoding="utf-8")
