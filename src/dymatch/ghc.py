"""Geometric Huffman coding.

ghc(x) returns the dyadic pmf minimizing KL distance to the normalized
target weights x. The merge rule differs from classical Huffman coding in
two ways: merged nodes get the geometric mean weight 2*sqrt(a*b) instead
of the sum, and a pair whose weights are more than a factor of four apart
is not merged at all, the smaller node is dropped and its entire subtree
ends up with probability zero.

The merge works on runs of equal weight, as run-length Huffman coding
does (Moffat and Turpin 1998): a run of n nodes becomes n//2 nodes of
twice the weight in one step, and only an odd node left over meets the
next-heavier run under the drop rule. Block targets have few distinct
weights (the facade's 3^k blocks have k+1), so this takes a step per
run where merging the lightest two nodes at a time takes one per leaf.
Nodes are taken in the order (weight, smallest leaf index) that the
node-at-a-time merge uses, so both give the same tree. The weights are
first scaled by the power of two that puts the largest in [0.5, 1). The
products in the merge then never overflow, and whether one underflows
depends on the weights' ratios, not on their scale: 1e-200 and 1e300
merge like 1.

brute_force_dyadic enumerates every dyadic pmf on small instances. It is
the self-contained optimality oracle: the test suite certifies ghc against
it, so the implementation does not lean on any external statement of the
merge rule being correct.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush, heapreplace
from math import frexp, ldexp, sqrt

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
    subtree, so the output is deterministic. Equal weights are merged a
    run at a time, pairing the run's nodes in index order, which keeps
    that tie rule. The weights are scaled by a power of two first, so
    ghc(c * x) equals ghc(x) for a power of two c whenever c * x is
    exact (no entry overflows or loses bits to underflow).
    """
    w = _as_weights(x).tolist()
    shift = -frexp(max(w))[1]
    # a run is the nodes of one weight in index order, held as two
    # sequences: each node's smallest leaf index and its subtree, a leaf
    # index or a (left, right) pair, so a run of leaves is one list
    # twice. order is a heap of (weight, smallest index, indices,
    # subtrees) over the runs of positive weight; a merge may queue a
    # second run of a weight, and the two are joined when it is popped.
    runs: dict = {}
    order = []
    for i, v in enumerate(w):
        run = runs.get(v)
        if run is None:
            runs[v] = run = [i]
            v = ldexp(v, shift)
            if v > 0:
                order.append((v, i, run, run))
        else:
            run.append(i)
    if not order:
        raise ValueError("weights must have at least one positive entry")
    heapify(order)
    while True:
        v, _, index, tree = heappop(order)
        while order and order[0][0] == v:
            _, _, more_index, more_tree = heappop(order)
            index, tree = zip(*sorted([*zip(index, tree),
                                       *zip(more_index, more_tree)]))
        n = len(index)
        if n > 1:
            # the lightest two nodes are the run's first two, then its
            # next two: each merged node is heavier than the rest of it.
            # zip over one iterator takes the subtrees two at a time.
            pairs = iter(tree)
            heappush(order, (2.0 * sqrt(v * v), index[0], index[:n - 1:2],
                             list(zip(pairs, pairs))))
            if not n % 2:
                continue
        # a lone node meets the lowest-index node of the next-heavier run
        i, a = index[-1], tree[-1]
        if not order:
            break
        u, j, heavier_index, heavier_tree = order[0]
        if u >= 4.0 * v:
            # keeping the small node cannot pay for the extra depth
            continue
        if j < i:
            i = j
        merged = (2.0 * sqrt(v * u), i, [i], [(a, heavier_tree[0])])
        if len(heavier_index) > 1:
            heapreplace(order, (u, heavier_index[1], heavier_index[1:],
                                heavier_tree[1:]))
            heappush(order, merged)
        else:
            heapreplace(order, merged)
    lengths: list = [None] * len(w)
    level = [a]
    depth = 0
    while level:
        below = []
        for node in level:
            if type(node) is int:
                lengths[node] = depth
            else:
                below += node
        level = below
        depth += 1
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
