"""Geometric Huffman coding.

ghc(x) returns the dyadic pmf minimizing KL distance to the normalized
target weights x. The merge rule differs from classical Huffman coding in
two ways: merged nodes get the geometric mean weight 2*sqrt(a*b) instead
of the sum, and a pair whose weights are more than a factor of four apart
is not merged at all, the smaller node is dropped and its entire subtree
ends up with probability zero.

The merge works on classes of leaves that share a weight, and on runs of
equal weight, as run-length Huffman coding does (Moffat and Turpin
1998). The classes are laid out one after another, each over a range of
positions, and nodes are taken in the order (weight, smallest position)
that a node-at-a-time merge over the same layout uses, so both give the
same tree. A run is a family: a class of n leaves is one family of n
blocks of one leaf, its n//2 pairs are one family of blocks of two
consecutive positions, and so on, so pairing a family is one step
however many blocks it has. A family holds every position in its range,
so when it is the lightest entry it holds the smallest positions at its
weight, and its blocks pair with each other first even where another
run shares the weight. Only an odd block left over meets the next run
under the drop rule, and it takes that run's first block; the merged
pair is a single node. A block target has few classes (the facade's 3^k
blocks have k+1 tilted weights), so merge_classes takes a few steps per
class where merging the lightest two nodes at a time takes one per leaf.
The weights are first scaled by the power of two that puts the largest
in [0.5, 1). The products in the merge then never overflow, and whether
one underflows depends on the weights' ratios, not on their scale:
1e-200 and 1e300 merge like 1.

ghc groups the leaves by weight and writes each leaf's length from the
blocks. ccghc groups them into type classes once and calls merge_classes
at every probe, so a probe costs work per class, not per leaf. Where
classes tie, the tree depends on their layout, and the two lay out
different classes, each in order of first appearance: ghc's hold the
leaves of one weight, ccghc's the leaves of one target and cost. Weights
are plain float arrays, such as tilt returns; ghc and brute_force_dyadic
check the ones they are given, ccghc's tilt checks its targets by the
same rule (_as_weights), and merge_classes takes a list of floats.

brute_force_dyadic enumerates every dyadic pmf on small instances. It is
the self-contained optimality oracle: the test suite certifies ghc against
it, so the implementation does not lean on any external statement of the
merge rule being correct.
"""
from __future__ import annotations

import math
from functools import lru_cache
from heapq import heapify, heappop, heappush, heapreplace
from math import frexp, ldexp, sqrt

import numpy as np

from .pmf import DyadicPmf, _probs_of

_BRUTE_MAX_SUPPORT = 8


def _as_weights(x, subject: str = "weights") -> np.ndarray:
    """x as non-negative float weights, checked: a Pmf's or DyadicPmf's
    probabilities, else x itself. They need not sum to 1: tilted
    targets are sub-normalized, and normalization only shifts the KL
    objective by a constant. subject names them in the error messages."""
    w = np.atleast_1d(_probs_of(x))
    if w.ndim != 1 or len(w) == 0:
        raise ValueError(f"{subject} must be a non-empty vector")
    # min and max propagate NaN, which fails every comparison
    lo, hi = w.min(), w.max()
    if not (lo >= 0 and hi < np.inf):
        raise ValueError(f"{subject} must be finite and non-negative")
    if not hi > 0:
        raise ValueError(f"{subject} must have at least one positive entry")
    return w


def group_leaves(keys) -> tuple:
    """Leaf indices grouped by equal key, as (keys, order, starts).

    keys lists each class's key in order of first appearance. order
    lists the leaf indices class by class, each class in index order,
    so class c is order[starts[c]:starts[c + 1]]: this is the layout
    that merge_classes takes, with leaf order[p] at position p.
    """
    groups: dict = {}
    for i, key in enumerate(keys):
        members = groups.get(key)
        if members is None:
            groups[key] = [i]
        else:
            members.append(i)
    order: list = []
    starts = [0]
    for members in groups.values():
        order += members
        starts.append(len(order))
    return list(groups), order, starts


def merge_classes(weights, starts) -> list:
    """The ghc merge over classes of leaves that share a weight.

    Arguments:
        weights: one non-negative weight per class, not all 0.
        starts: class c holds the layout positions starts[c] to
            starts[c + 1] - 1, as group_leaves gives them.

    Returns:
        The code tree's leaves as blocks (depth, c, pos, d), by
        increasing depth: the 2^d positions pos to pos + 2^d - 1, all of
        class c, each get codeword length depth + d. A position in no
        block is dropped. The lengths are the ones the node-at-a-time
        merge gives the positions, each with its class's weight, when it
        breaks ties by the smallest position in a node.
    """
    shift = -frexp(max(weights))[1]
    # the heap holds (weight, smallest position, ...) entries of two
    # kinds. A family (c, d, n) is n blocks of 2^d consecutive positions
    # of class c, from its own on. A single node holds one subtree, a
    # block (c, pos, d) or a (left, right) pair. A family holds every
    # position in its range, so a popped family holds the smallest
    # positions at its weight
    heap = []
    for c, v in enumerate(weights):
        v = ldexp(v, shift)
        if v > 0:
            heap.append((v, starts[c], c, 0, starts[c + 1] - starts[c]))
    if not heap:
        raise ValueError("weights must have at least one positive entry")
    heapify(heap)
    while True:
        run = heappop(heap)
        v, pos = run[0], run[1]
        if len(run) == 5:
            _, _, c, d, n = run
            if n > 1:
                # the lightest two nodes are the first two blocks, then
                # the next two: each merged node is heavier than the rest
                heappush(heap, (2.0 * sqrt(v * v), pos, c, d + 1, n >> 1))
                if not n & 1:
                    continue
                pos += (n - 1) << d
            a = (c, pos, d)
        else:
            a = run[2]
        # a lone node meets the next node on the heap, the first block of
        # the next run
        if not heap:
            break
        heavier = heap[0]
        u, j = heavier[0], heavier[1]
        if u >= 4.0 * v:
            # keeping the small node cannot pay for the extra depth
            continue
        if len(heavier) == 5:
            _, _, c, d, n = heavier
            b = (c, j, d)
            rest = (u, j + (1 << d), c, d, n - 1) if n > 1 else None
        else:
            b, rest = heavier[2], None
        if j < pos:
            pos = j
        merged = (2.0 * sqrt(v * u), pos, (a, b))
        if rest:
            heapreplace(heap, rest)
            heappush(heap, merged)
        else:
            heapreplace(heap, merged)
    blocks = []
    level = [a]
    depth = 0
    while level:
        below = []
        for node in level:
            if len(node) == 2:
                below += node
            else:
                blocks.append((depth, *node))
        level = below
        depth += 1
    return blocks


def leaf_lengths(blocks, order, size: int) -> list:
    """The codeword lengths of leaves 0..size-1 from the blocks that
    merge_classes returns, with leaf order[p] at position p, None for a
    dropped leaf."""
    lengths: list = [None] * size
    for depth, _, pos, d in blocks:
        for i in order[pos:pos + (1 << d)]:
            lengths[i] = depth + d
    return lengths


def ghc(x) -> DyadicPmf:
    """Dyadic pmf minimizing KL distance to the normalized weights.

    Arguments:
        x: Pmf, DyadicPmf, or an array or sequence of non-negative
            weights, such as tilt returns.

    Returns:
        DyadicPmf with one length per input entry; zero-weight entries
        (and dropped subtrees) get probability 0.

    Ties on the minimum weight are broken by position in the class
    layout, classes in first-appearance order, each in index order, and
    a merged node inherits the smallest position in its subtree, so the
    output is deterministic. Equal weights are merged a run at a time,
    pairing the run's nodes in position order, which keeps that tie
    rule. The weights are scaled by a power of two first, so
    ghc(c * x) equals ghc(x) for a power of two c whenever c * x is
    exact (no entry overflows or loses bits to underflow).
    """
    x = _as_weights(x)
    weights, order, starts = group_leaves(x.tolist())
    blocks = merge_classes(weights, starts)
    return DyadicPmf(tuple(leaf_lengths(blocks, order, len(x))))


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


def brute_force_dyadic(x) -> DyadicPmf:
    """Globally optimal dyadic pmf by exhaustive enumeration.

    Arguments:
        x: target weights with support size <= 8.

    Enumerates, for each n up to the support size, every multiset of n
    lengths satisfying Kraft equality, each at most n - 1 since a full
    binary tree on n leaves is at most n - 1 deep; assigns shorter
    lengths to heavier symbols (optimal for a fixed multiset by the
    rearrangement inequality, and dropping any symbol other than the
    lightest ones can never help), and returns the KL minimizer.
    """
    w = _as_weights(x)
    support = [i for i in range(len(w)) if w[i] > 0]
    if len(support) > _BRUTE_MAX_SUPPORT:
        raise ValueError(f"support {len(support)} too large for brute force")
    order = sorted(support, key=lambda i: (-w[i], i))
    total = float(np.sum(w[support]))
    log_norm = math.log2(total)

    best_kl = math.inf
    best: tuple = ()
    for n in range(1, len(support) + 1):
        for multiset in _kraft_multisets(n, n - 1):
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
