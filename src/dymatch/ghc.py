"""Geometric Huffman coding.

ghc(x) returns the dyadic pmf minimizing KL distance to the normalized
target weights x. The merge rule differs from classical Huffman coding in
two ways: merged nodes get the geometric mean weight 2*sqrt(a*b) instead
of the sum, and a pair whose weights are more than a factor of four apart
is not merged at all, the smaller node is dropped and its entire subtree
ends up with probability zero.

brute_force_dyadic enumerates every dyadic pmf on small instances. It is
the self-contained optimality oracle: the test suite certifies ghc against
it, so the implementation does not lean on any external statement of the
merge rule being correct.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .pmf import DyadicPmf, _readonly

_BRUTE_MAX_SUPPORT = 8
_BRUTE_MAX_LEN = 10


@dataclass(frozen=True, eq=False)
class TargetWeights:
    """Non-negative weights to be approximated by a dyadic pmf.

    Need not sum to 1: tilted targets are sub-normalized, and
    normalization only shifts the KL objective by a constant.
    """

    weights: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.weights)
        object.__setattr__(self, "weights", arr)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("weights must be a non-empty vector")
        # min and max propagate NaN, which fails every comparison
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0 and hi < np.inf):
            raise ValueError("weights must be finite and non-negative")
        if not hi > 0:
            raise ValueError("weights must have at least one positive entry")

    def __len__(self) -> int:
        return len(self.weights)


def _as_weights(x) -> np.ndarray:
    if isinstance(x, TargetWeights):
        return x.weights
    if hasattr(x, "probs"):
        return x.probs
    return TargetWeights(np.asarray(x, dtype=float)).weights


def ghc(x) -> DyadicPmf:
    """Dyadic pmf minimizing KL distance to the normalized weights.

    Arguments:
        x: TargetWeights, Pmf, or plain sequence of non-negative weights.

    Returns:
        DyadicPmf with one length per input entry; zero-weight entries
        (and dropped subtrees) get probability 0.

    Ties on the minimum weight are broken toward the lowest original
    symbol index, and a merged node inherits the smallest index in its
    subtree, so the output is deterministic.
    """
    w = _as_weights(x)
    m = len(w)
    # heap items: (weight, min original index in subtree, tree)
    # trees: int leaf index, or (left, right) pair
    heap = [(float(w[i]), i, i) for i in range(m) if w[i] > 0]
    if not heap:
        raise ValueError("weights must have at least one positive entry")
    heapq.heapify(heap)
    while len(heap) > 1:
        wa, ta, a = heapq.heappop(heap)
        wb, tb, b = heapq.heappop(heap)
        if wb >= 4.0 * wa:
            # keeping the small node cannot pay for the extra depth
            heapq.heappush(heap, (wb, tb, b))
        else:
            heapq.heappush(heap, (2.0 * math.sqrt(wa * wb), min(ta, tb), (a, b)))
    lengths: list = [None] * m
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            lengths[node] = depth
        else:
            left, right = node
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
    return DyadicPmf(tuple(lengths))


@lru_cache(maxsize=None)
def _kraft_multisets(n: int, max_len: int) -> tuple:
    """All non-decreasing length tuples of size n with Kraft sum exactly 1."""
    unit = 2 ** max_len  # budget in units of 2^-max_len

    def rec(parts_left: int, budget: int, min_len: int):
        if parts_left == 0:
            if budget == 0:
                yield ()
            return
        for l in range(min_len, max_len + 1):
            take = 2 ** (max_len - l)
            # remaining parts use at most `take` units each (lengths non-decreasing)
            if take > budget or budget > parts_left * take:
                continue
            for rest in rec(parts_left - 1, budget - take, l):
                yield (l,) + rest

    return tuple(rec(n, unit, 0))


def brute_force_dyadic(x, max_len: int = 8) -> DyadicPmf:
    """Globally optimal dyadic pmf by exhaustive enumeration.

    Arguments:
        x: target weights with support size <= 8.
        max_len: largest codeword length considered, <= 10.

    Enumerates every length multiset satisfying Kraft equality, assigns
    shorter lengths to heavier symbols (optimal for a fixed multiset by
    the rearrangement inequality, and dropping any symbol other than the
    lightest ones can never help), and returns the KL minimizer.
    """
    w = _as_weights(x)
    support = [i for i in range(len(w)) if w[i] > 0]
    if len(support) > _BRUTE_MAX_SUPPORT:
        raise ValueError(f"support {len(support)} too large for brute force")
    if not 1 <= max_len <= _BRUTE_MAX_LEN:
        raise ValueError(f"max_len must be in 1..{_BRUTE_MAX_LEN}")
    order = sorted(support, key=lambda i: (-w[i], i))
    total = float(np.sum(w[support]))
    log_norm = math.log2(total)

    best_kl = math.inf
    best: tuple = ()
    for n in range(1, len(support) + 1):
        for multiset in _kraft_multisets(n, max_len):
            kl = 0.0
            for idx, l in zip(order, multiset):
                p = 2.0 ** -l
                kl += p * (-l - math.log2(w[idx]) + log_norm)
            if kl < best_kl - 1e-15:
                best_kl = kl
                best = multiset
    lengths: list = [None] * len(w)
    for idx, l in zip(order, best):
        lengths[idx] = l
    return DyadicPmf(tuple(lengths))
