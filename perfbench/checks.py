"""Output checks the benchmark owns.

Nothing here imports dymatch: each check recomputes what it checks from
the raw output with integers, Fractions or plain float math, so a fault
in the program cannot hide in its own check. Every check raises
CheckError on the first discrepancy.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from math import lcm

KL_TOL = 1e-9


class CheckError(Exception):
    """An op's output is wrong."""


class DesignRef:
    """What a designed dyadic pmf on k-blocks is checked against.

    t and w are the single-symbol target and exact costs, S the exact
    per-symbol budget. Block costs are kept as integers in units of
    1/scale, so the budget check is one integer comparison.
    """

    def __init__(self, t, w, S, k):
        self.t = [float(p) for p in t]
        self.w = [Fraction(c) for c in w]
        self.S = Fraction(S)
        self.k = k
        self.scale = lcm(self.S.denominator, *(c.denominator for c in self.w))
        wi = [int(c * self.scale) for c in self.w]
        logt = [math.log2(p) for p in self.t]
        self.block_cost = []
        self.block_logt = []
        for idx in itertools.product(range(len(self.t)), repeat=k):
            self.block_cost.append(sum(wi[i] for i in idx))
            self.block_logt.append(sum(logt[i] for i in idx))
        self.budget = int(k * self.S * self.scale)
        self.D = relaxed_distance(self.t, [float(c) for c in self.w],
                                  float(self.S))


def relaxed_distance(t, w, S) -> float:
    """D(S) = min kl(p||t) over pmfs with w.p <= S, in bits.

    The minimizer is the tilt p proportional to t * 2^(-lam w); the cost
    of the tilt falls as lam grows, so bisection on lam finds the tilt
    that spends exactly S.
    """
    def tilt(lam):
        e = [-lam * c for c in w]
        top = max(e)
        x = [p * 2.0 ** (v - top) for p, v in zip(t, e)]
        z = sum(x)
        return [v / z for v in x]

    def cost(p):
        return sum(a * b for a, b in zip(p, w))

    if cost(t) <= S:
        return 0.0
    if S <= min(w):
        raise ValueError(f"budget {S} not above the cheapest cost {min(w)}")
    lo, hi = 0.0, 1.0
    while cost(tilt(hi)) > S:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if cost(tilt(mid)) > S:
            lo = mid
        else:
            hi = mid
    p = tilt(hi)
    return sum(a * math.log2(a / b) for a, b in zip(p, t) if a > 0)


def kraft_exact(lengths) -> None:
    """Kraft sum of the finite lengths is exactly 1, in integers."""
    finite = [l for l in lengths if l is not None]
    if not finite:
        raise CheckError("no finite codeword length")
    if any(not isinstance(l, int) or l < 0 for l in finite):
        raise CheckError(f"lengths must be non-negative ints: {finite[:8]}")
    top = max(finite)
    total = sum(1 << (top - l) for l in finite)
    if total != 1 << top:
        raise CheckError(f"Kraft sum is {Fraction(total, 1 << top)}, not 1")


def check_design(lengths, ref: DesignRef) -> float:
    """Check a designed block pmf; return its per-symbol KL in bits.

    Kraft sum exactly 1, exact cost within k*S, per-symbol KL at least
    D(S).
    """
    if len(lengths) != len(ref.block_cost):
        raise CheckError(f"{len(lengths)} lengths for "
                         f"{len(ref.block_cost)} blocks")
    kraft_exact(lengths)
    top = max(l for l in lengths if l is not None)
    scaled = sum(c << (top - l) for c, l in zip(ref.block_cost, lengths)
                 if l is not None)
    if scaled > ref.budget << top:
        cost = Fraction(scaled, ref.scale << top)
        raise CheckError(f"cost {float(cost)} exceeds budget "
                         f"{float(ref.budget / ref.scale)}")
    kl = sum(2.0 ** -l * (-l - lt) for l, lt in zip(lengths, ref.block_logt)
             if l is not None) / ref.k
    if kl < ref.D - KL_TOL:
        raise CheckError(f"per-symbol KL {kl} is below D(S) = {ref.D}")
    return kl


def exact_cost(lengths, ref: DesignRef) -> Fraction:
    """Average block cost of a dyadic pmf as an exact Fraction."""
    return sum((Fraction(c, ref.scale << l)
                for c, l in zip(ref.block_cost, lengths) if l is not None),
               Fraction(0))


@lru_cache(maxsize=None)
def _kraft_multisets(n: int) -> tuple:
    """Every non-decreasing tuple of n lengths with Kraft sum exactly 1.

    A full binary tree with n leaves is at most n - 1 deep.
    """
    top = max(n - 1, 0)
    out = []

    def rec(left, budget, shortest, acc):
        if left == 0:
            if budget == 0:
                out.append(tuple(acc))
            return
        for l in range(shortest, top + 1):
            take = 1 << (top - l)
            if take > budget or budget > left * take:
                continue
            rec(left - 1, budget - take, l, acc + [l])

    rec(n, 1 << top, 0, [])
    return tuple(out)


def lagrangian(lengths, t, w, lam) -> float:
    """kl(d||t) + lam * w.d in bits, for d given by its lengths."""
    return sum(2.0 ** -l * (-l - math.log2(p) + lam * c)
               for l, p, c in zip(lengths, t, w) if l is not None)


def check_lagrangian_optimal(lengths, t, w, lam) -> None:
    """No dyadic pmf on the symbols has a smaller kl + lam * cost.

    Exhaustive: for a fixed multiset of lengths the objective is
    sum 2^-l (-l + a_i) with a_i = lam w_i - log2 t_i, smallest when the
    shortest lengths go to the smallest a_i (rearrangement), so each
    multiset needs one assignment.
    """
    a = sorted(lam * c - math.log2(p) for p, c in zip(t, w))
    best = math.inf
    for n in range(1, len(a) + 1):
        for ms in _kraft_multisets(n):
            v = sum(2.0 ** -l * (-l + ai) for l, ai in zip(ms, a))
            best = min(best, v)
    got = lagrangian(lengths, t, w, lam)
    if got > best + KL_TOL * max(1.0, abs(best)):
        raise CheckError(f"a dyadic pmf has kl + lam*cost {best}, below the "
                         f"result's {got} (lam {lam})")


def parse_match_output(out: str) -> tuple:
    """Split `dymatch match` stdout into its JSON payload and code table."""
    head, sep, tail = out.partition("\n\n")
    if not sep:
        raise CheckError("no blank line between the JSON and the table")
    try:
        payload = json.loads(head)
    except json.JSONDecodeError as e:
        raise CheckError(f"result JSON does not parse: {e}") from None
    table = {}
    for line in tail.splitlines():
        sym, tab, bits = line.partition("\t")
        if not tab or not bits or set(bits) - {"0", "1"}:
            raise CheckError(f"bad table line {line!r}")
        if sym in table:
            raise CheckError(f"block {sym!r} listed twice")
        table[sym] = bits
    return payload, table


def prefix_free(codewords) -> None:
    """No codeword is a prefix of another (sorted order puts each
    codeword right before its extensions)."""
    words = sorted(codewords)
    for a, b in zip(words, words[1:]):
        if b.startswith(a):
            raise CheckError(f"codeword {a!r} is a prefix of {b!r}")


def check_match_output(out: str, blocks, ref: DesignRef) -> float:
    """Check `dymatch match --block k` stdout; return the per-symbol KL.

    The table must be prefix-free and agree with the JSON lengths block
    by block, and the lengths must pass check_design.
    """
    payload, table = parse_match_output(out)
    lengths = payload.get("lengths")
    if not isinstance(lengths, list) or len(lengths) != len(blocks):
        raise CheckError("JSON lengths missing or of the wrong size")
    prefix_free(table.values())
    if set(table) - set(blocks):
        raise CheckError("table lists blocks outside the alphabet")
    for b, l in zip(blocks, lengths):
        bits = table.get(b)
        if (bits is None) != (l is None) or (bits and len(bits) != l):
            raise CheckError(f"block {b!r}: table {bits!r}, JSON length {l}")
    kl = check_design(lengths, ref)
    if abs(payload.get("kl", math.nan) / ref.k - kl) > KL_TOL:
        raise CheckError(f"JSON kl {payload.get('kl')} disagrees with "
                         f"{kl * ref.k}")
    return kl


def check_round_trip(text: str, back: str) -> None:
    if back != text:
        n = next((i for i, (a, b) in enumerate(zip(text, back)) if a != b),
                 min(len(text), len(back)))
        raise CheckError(f"decoded text differs from the input at {n}")


def check_wall(natural: str, wall: str, slats: int) -> None:
    """The wall has exactly `slats` slats and starts with the natural
    stream, or is its first `slats` slats."""
    if len(wall) != slats:
        raise CheckError(f"wall has {len(wall)} slats, not {slats}")
    head = natural[:slats]
    if wall[:len(head)] != head:
        raise CheckError("wall does not begin with the natural stream")


def slat_counts(symbols: str, alphabet) -> list:
    counts = [symbols.count(s) for s in alphabet]
    if sum(counts) != len(symbols):
        raise CheckError("stream holds symbols outside the alphabet")
    return counts


def check_freqs(reported, counts) -> None:
    """Reported frequencies equal the recounted ones."""
    n = sum(counts)
    for r, c in zip(reported, counts):
        if abs(r - c / n) > 1e-12:
            raise CheckError(f"reported frequency {r}, recounted {c / n}")
