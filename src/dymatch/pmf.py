"""Probability vectors, cost vectors, and their block extensions.

Floating point is used for all divergence and cost arithmetic except where
exactness is load bearing, and there the one exact form is scaled
integers: dyadic pmfs are stored as integer codeword lengths, and cost
vectors as integer numerators over one common denominator beside their
float mirrors. Kraft sums and dyadic costs are then integer sums over a
power-of-two scale (2^-l = 2^(top-l) / 2^top), so boundary comparisons of
the form "cost <= budget" never depend on float rounding. Fraction
appears only at the edge: as_fraction parses inputs, CostVector.exact
builds the rational view on demand, and the exact checks return their
sums as Fractions.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import SizeCapError

# Block extensions larger than this are refused (m^k entries).
SIZE_CAP = 10_000_000

_SUM_TOL = 1e-12

Number = Union[int, float, str, Fraction, Decimal]


def as_fraction(x: Number) -> Fraction:
    """Convert a number to an exact Fraction.

    Decimal strings convert exactly ("0.18" becomes 9/50); floats convert
    to their exact binary value. Infinities and NaNs raise ValueError,
    like any other input that is not a number.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, Decimal)) and not math.isfinite(x):
        raise ValueError(f"cannot convert {x} to Fraction: not finite")
    if isinstance(x, (str, Decimal, int, float)):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def _readonly(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    arr = np.atleast_1d(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, slots=True)
class Pmf:
    """Finite probability mass function over an ordered symbol set."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.probs)
        object.__setattr__(self, "probs", arr)
        if arr.ndim != 1 or len(arr) < 2:
            raise ValueError("pmf needs at least 2 entries")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("pmf entries must be finite and non-negative")
        if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"pmf entries sum to {arr.sum()!r}, not 1")

    @classmethod
    def uniform(cls, m: int) -> "Pmf":
        if m < 2:
            raise ValueError("uniform pmf needs m >= 2")
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def from_json(cls, text: str) -> "Pmf":
        """Parse a JSON array of decimal strings (plain numbers accepted)."""
        values = json.loads(text)
        if not isinstance(values, list):
            raise ValueError("expected a JSON array")
        return cls(np.array([float(v) for v in values]))

    def to_json(self) -> str:
        """JSON array of decimal strings, safe to round-trip through text."""
        return json.dumps([repr(float(p)) for p in self.probs])

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __iter__(self) -> Iterator[float]:
        return iter(float(p) for p in self.probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


@dataclass(frozen=True, slots=True)
class DyadicPmf:
    """Pmf whose entries are 2^-length or 0, stored as integer lengths.

    A length of None encodes probability 0. Kraft equality over the finite
    lengths is checked exactly on construction, so every instance is
    realizable by parsing fair bits with a full prefix-free code.
    """

    lengths: tuple

    def __post_init__(self):
        lengths = tuple(self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise ValueError("dyadic pmf needs at least one entry")
        finite = [l for l in lengths if l is not None]
        if not finite:
            raise ValueError("dyadic pmf needs at least one finite length")
        for l in finite:
            if not isinstance(l, int) or l < 0:
                raise ValueError(f"codeword length must be a non-negative int, got {l!r}")
        if self.kraft_sum() != 1:
            raise ValueError(f"Kraft sum is {self.kraft_sum()}, not 1")

    def kraft_sum(self) -> Fraction:
        return kraft_sum(self.lengths)

    @property
    def probs(self) -> np.ndarray:
        # None becomes NaN, which fmin maps to 2000 like any length past
        # 1074: there ldexp(1, -l), elsewhere exactly 2^-l, is 0
        lengths = np.fmin(np.array(self.lengths, dtype=float), 2000.0)
        arr = np.ldexp(1.0, -lengths.astype(np.int64))
        arr.flags.writeable = False
        return arr

    def support(self) -> tuple:
        return tuple(i for i, l in enumerate(self.lengths) if l is not None)

    def __len__(self) -> int:
        return len(self.lengths)


class CostVector:
    """Per-symbol non-negative costs with exact rational values.

    Accepts decimal strings ("0.18"), Fractions, Decimals, ints, or floats.
    The exact values are stored as integer numerators `nums` over one
    common denominator `den` (on construction, the lcm of the reduced
    denominators); `exact` rebuilds them as Fractions on demand and is the
    only place a CostVector hands out Fractions. The float view is derived
    from the exact values, never the other way around, so entries that are
    equal as rationals stay exactly equal after any block extension.
    """

    __slots__ = ("nums", "den", "costs")

    def __init__(self, costs: Sequence[Number]):
        exact = [as_fraction(c) for c in costs]
        if not exact:
            raise ValueError("cost vector needs at least one entry")
        if any(c < 0 for c in exact):
            raise ValueError("costs must be non-negative")
        # den is the lcm of the denominators. Where the largest one is
        # that lcm, den and the numerators already over it are the inputs'
        # own int objects, so a stored vector holds few new ints.
        dens = [c.denominator for c in exact]
        den = max(dens)
        if any(den % d for d in dens):
            den = math.lcm(*dens)
        self._set(tuple(c.numerator if c.denominator == den
                        else c.numerator * (den // c.denominator)
                        for c in exact), den)

    @classmethod
    def _scaled(cls, nums: tuple, den: int) -> "CostVector":
        """Instance from non-negative integer numerators over den, built
        without any Fraction."""
        out = cls.__new__(cls)
        out._set(nums, den)
        return out

    def _set(self, nums: tuple, den: int) -> None:
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        # int / int is correctly rounded, so each entry equals float(exact)
        object.__setattr__(self, "costs", _readonly([n / den for n in nums]))

    def __setattr__(self, name, value):
        raise AttributeError("CostVector is immutable")

    @property
    def exact(self) -> tuple:
        """The costs as Fractions, built on each access."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __repr__(self) -> str:
        return f"CostVector({[str(c) for c in self.exact]})"

    @property
    def is_uniform(self) -> bool:
        """True when all entries are equal (the degenerate case for which
        an affine cost constraint cannot discriminate between pmfs)."""
        return len(set(self.nums)) == 1

    @classmethod
    def from_json(cls, text: str) -> "CostVector":
        values = json.loads(text)
        if not isinstance(values, list):
            raise ValueError("expected a JSON array")
        return cls([v if isinstance(v, str) else as_fraction(v) for v in values])

    def to_json(self) -> str:
        return json.dumps([_decimal_str(c) for c in self.exact])

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i: int) -> float:
        return float(self.costs[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostVector):
            return NotImplemented
        # rational equality: a/d == b/e exactly when a*e == b*d
        return len(self) == len(other) and all(
            a * other.den == b * self.den
            for a, b in zip(self.nums, other.nums))


def _decimal_str(f: Fraction) -> str:
    """Shortest exact decimal string when the denominator is 2^a 5^b,
    else the float repr."""
    den = f.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    if den == 1:
        return str(Decimal(f.numerator) / Decimal(f.denominator))
    return repr(float(f))


def kraft_sum(lengths) -> Fraction:
    """Exact Kraft sum of the finite codeword lengths (None is skipped).

    With top the longest length, sum 2^-l is sum 2^(top-l) over 2^top, an
    integer sum; Python ints keep it exact at any length.
    """
    counts = Counter(l for l in lengths if l is not None)
    if not counts:
        return Fraction(0)
    top = max(counts)
    return Fraction(sum(c << (top - l) for l, c in counts.items()), 1 << top)


def _probs_of(p) -> np.ndarray:
    if isinstance(p, (Pmf, DyadicPmf)):
        return p.probs
    return np.asarray(p, dtype=float)


def kl_divergence(p, t: Pmf) -> float:
    """KL distance from p to t in bits.

    Arguments:
        p: Pmf or DyadicPmf (or plain sequence summing to 1).
        t: reference Pmf.

    Returns:
        sum p_i log2(p_i / t_i) with 0 log 0 = 0. If p puts mass where t
        has none the result is +inf, returned deliberately rather than
        left to float propagation.
    """
    pa = _probs_of(p)
    ta = _probs_of(t)
    if pa.shape != ta.shape:
        raise ValueError(f"length mismatch: {len(pa)} vs {len(ta)}")
    mask = pa > 0
    if np.any(ta[mask] == 0):
        return math.inf
    sel_p = pa[mask]
    return float(np.sum(sel_p * np.log2(sel_p / ta[mask])))


def average_cost(p, w: CostVector) -> float:
    """Expected cost w^T p as a float."""
    pa = _probs_of(p)
    if len(pa) != len(w):
        raise ValueError(f"length mismatch: {len(pa)} vs {len(w)}")
    return float(np.dot(pa, w.costs))


def average_cost_exact(d: DyadicPmf, w: CostVector) -> Fraction:
    """Expected cost of a dyadic pmf as an exact rational.

    This is the comparison the constrained search uses at the feasibility
    boundary, where float rounding could flip the answer.
    """
    if len(d) != len(w):
        raise ValueError(f"length mismatch: {len(d)} vs {len(w)}")
    # sum n_i 2^-l_i / den, scaled by 2^top to integers
    top = max(l for l in d.lengths if l is not None)
    total = sum(n << (top - l) for n, l in zip(w.nums, d.lengths)
                if l is not None)
    return Fraction(total, w.den << top)


def check_size_cap(m: int, k: int) -> None:
    """Refuse a block extension of m symbols to length k with more than
    SIZE_CAP entries, without computing m^k: for m >= 2, m^k >= 2^k, and
    2^k exceeds SIZE_CAP once k reaches its bit length."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m > 1 and (k >= SIZE_CAP.bit_length() or m ** k > SIZE_CAP):
        raise SizeCapError(f"{m}^{k} entries exceeds cap {SIZE_CAP}")


def kronecker_pmf(t: Pmf, k: int) -> Pmf:
    """Product pmf of k iid symbols, in lexicographic block order.

    The first symbol of the block is most significant: for m symbols the
    block (i1, ..., ik) lands at index i1*m^(k-1) + ... + ik.
    """
    check_size_cap(len(t), k)
    out = t.probs
    for _ in range(k - 1):
        out = np.kron(out, t.probs)
    return Pmf(out)


def kronecker_cost(w: CostVector, k: int) -> CostVector:
    """Kronecker-sum cost of k-symbol blocks, same index order as
    kronecker_pmf: the block (i1, ..., ik) costs w_i1 + ... + w_ik.

    Sums are taken over the integer numerators, all over w's denominator,
    so blocks whose cost multisets coincide stay exactly tied regardless
    of addition order.
    """
    check_size_cap(len(w), k)
    out = w.nums
    for _ in range(k - 1):
        out = [a + b for a in out for b in w.nums]
    return CostVector._scaled(tuple(out), w.den)
