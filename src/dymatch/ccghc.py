"""Cost-constrained geometric Huffman coding.

The dyadic KL minimization under an affine cost budget w^T d <= S is
approached by bisection on a Lagrange multiplier: for each trial lambda
the unconstrained minimizer of kl(d||t) + lambda w^T d is ghc applied to
the tilted target t * 2^(-lambda w), and the bisection closes the bracket
around the smallest multiplier whose minimizer is feasible.

The result is a Lagrangian point, not in general the constrained
minimizer at S. It minimizes kl + lambda_star * cost over all dyadic
pmfs, hence KL among the dyadic pmfs that cost no more than it does
(Everett 1963); a cheaper-than-S result can leave a feasible pmf with
smaller KL unfound. On the facade instance at k=6 the Kronecker square
of the k=3 result is feasible with per-symbol gap 0.008587 against the
returned 0.014609, and enumeration under the cost filter beats the
result on 6 of the 25 seeded instances in TestLagrangianOptimality.

Feasibility at the boundary is decided by exact rational comparison of
the dyadic cost against the budget, never by floats: the interesting
budgets sit within 1e-4 of the achieved cost.

The probes work on type classes, not on leaves. Leaves with equal target
weight and equal cost tilt to equal weights at every multiplier, so
ccghc groups them once, into an array of class targets and a CostVector
of class costs. Each probe tilts that array, one weight per class, and
runs ghc's merge core, merge_classes, on the weights (the facade's 3^k
blocks form k+1 classes). When classes tilt to one positive weight (all
of the facade's at multiplier 0), the probe first lays them out as one
class over their leaves in index order, so the merge pairs them as one
run. A probe's Kraft sum is an integer sum over the blocks of the code
tree, and its exact cost one too: a block's cost numerator is a
difference of prefix sums of the leaves' cost numerators, taken in the
layout's order. Its KL is kl_divergence on the expanded probabilities,
so the trace is what probing the leaves gives. The result is certified
once on the leaves: ghc, average_cost_exact and kl_divergence recompute
it at lambda_star, and any disagreement with the class probe raises
RuntimeError.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, ldexp

import numpy as np

from .errors import ConvergenceError, InfeasibleConstraintError
from .ghc import ghc, group_leaves, leaf_lengths, merge_classes
from .pmf import (CostVector, DyadicPmf, Number, Pmf, _probs_of,
                  as_fraction, average_cost_exact, kl_divergence)

DEFAULT_EPS = 1e-9


def tilt(t, w: CostVector, lam: float) -> np.ndarray:
    """Tilted target t_i * 2^(lam * (w_min - w_i)) as a float array,
    w_min the cheapest cost among symbols with t_i > 0; entries with
    t_i = 0 are exactly 0. t is a Pmf or an array of per-entry weights,
    such as ccghc's class targets; each entry is tilted on its own, so a
    class tilts exactly as each of its members does.

    This is t * 2^(-lam w) times the constant 2^(lam w_min), which
    changes neither ghc's minimizer nor a normalized pmf. The shift keeps
    the cheapest supported symbol at its target weight, so no multiplier
    underflows every weight that matters. Shifting by an unsupported
    cheaper cost would not: with an unused symbol of cost 0 and the
    others near 10, lam = 110 scales every supported weight by about
    2^-1100, which is 0 as a float.

    Raises:
        ValueError: t and w differ in length, or lam is NaN or infinite.
    """
    tp = _probs_of(t)
    if len(tp) != len(w):
        raise ValueError(f"length mismatch: {len(tp)} vs {len(w)}")
    if not isfinite(lam):
        raise ValueError(f"multiplier must be finite, got {lam!r}")
    supported = tp > 0
    costs = w.costs[supported]
    shift = lam * float(costs.min())
    out = np.zeros(len(tp))
    out[supported] = tp[supported] * np.exp2(shift - lam * costs)
    return out


@dataclass(frozen=True)
class Evaluation:
    """One solver probe: the multiplier tried and what it produced."""

    lam: float
    cost: float
    kl: float
    feasible: bool


@dataclass(frozen=True)
class CcGhcResult:
    """Converged output of the constrained search.

    lambda_star is the feasible end of the final bracket, whose ends are
    within eps or adjacent floats; iterations counts bisection probes.
    d, cost_exact and kl are what the search's probe at lambda_star
    produced, so cost <= S holds exactly. d minimizes kl + lambda_star *
    cost over all dyadic pmfs, so it has the smallest KL among dyadic
    pmfs costing at most cost_exact; when cost_exact < S a feasible pmf
    with smaller KL may exist.
    """

    d: DyadicPmf
    lambda_star: float
    cost: float
    kl: float
    iterations: int
    bracket: tuple
    trace: tuple
    cost_exact: Fraction

    def to_dict(self, include_trace: bool = False) -> dict:
        out = {
            "lengths": list(self.d.lengths),
            "lambda_star": self.lambda_star,
            "cost": self.cost,
            "kl": self.kl,
            "iterations": self.iterations,
            "bracket": list(self.bracket),
        }
        if include_trace:
            out["trace"] = [{"lambda": e.lam, "cost": e.cost, "kl": e.kl,
                             "feasible": e.feasible} for e in self.trace]
        return out


def ccghc(t: Pmf, w: CostVector, S: Number,
          eps: float = DEFAULT_EPS) -> CcGhcResult:
    """Feasible dyadic pmf close in KL to t under w^T d <= S.

    The returned d is ghc of the tilt at lambda_star: it minimizes
    kl(d||t) + lambda_star * w^T d, and therefore KL among dyadic pmfs
    that cost at most its own cost_exact. It is the minimizer subject to
    w^T d <= S when cost_exact equals S or lambda_star is 0; otherwise a
    dyadic pmf costing between cost_exact and S may have smaller KL (the
    module docstring lists measured cases).

    Arguments:
        t: target pmf.
        w: costs, one per symbol.
        S: budget; decimal strings and Fractions are honored exactly.
        eps: bracket width at which the bisection stops, unless its ends
            become adjacent floats first; must be positive (NaN is
            refused). It is a width in multiplier units, the inverse of
            the cost unit: costs scaled by c give the same tilts at
            lambda / c, so the same eps resolves lambda_star c times
            more coarsely relative to its size.

    Returns:
        CcGhcResult. If ghc(t) is already feasible the search is skipped
        and lambda_star is 0.

    Raises:
        InfeasibleConstraintError: S below the cheapest supported symbol,
            or equal costs everywhere that exceed S.
        ConvergenceError: no feasible multiplier up to 2^100 (the
            bisection has no iteration limit).
    """
    if len(t) != len(w):
        raise ValueError(f"length mismatch: {len(t)} vs {len(w)}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    S_exact = as_fraction(S)
    # type classes: leaves with equal target weight and equal cost, which
    # tilt to equal weights at every multiplier
    keys, order, starts = group_leaves(zip(t.probs.tolist(), w.nums))
    targets = np.array([p for p, _ in keys])
    costs = CostVector._scaled(tuple(n for _, n in keys), w.den)
    cheapest = Fraction(min(n for p, n in keys if p > 0), w.den)
    if S_exact < cheapest:
        raise InfeasibleConstraintError(
            f"budget {S_exact} is below the cheapest supported symbol cost "
            f"{cheapest}")

    # the leaves' cost numerators as Python ints, so that their prefix
    # sums are exact however large
    nums = np.array(w.nums, dtype=object)

    def lay_out(order):
        """Each leaf's place in order, and the prefix sums of the leaves'
        cost numerators in that order."""
        order = np.fromiter(order, np.intp, len(t))
        place = np.empty(len(t), dtype=np.intp)
        place[order] = np.arange(len(t))
        return place, [0, *np.cumsum(nums[order]).tolist()]

    classes = (order, starts, *lay_out(order))
    by_place = np.zeros(len(t))
    # a block has 2^d <= len(t) leaves, so d < bits
    bits = len(t).bit_length()
    trace = []

    def probe(lam: float):
        """(the class layout, merge_classes' blocks, exact cost, KL) at
        lam when feasible, else None."""
        weights = tilt(targets, costs, lam).tolist()
        lay, at, place, sums = classes
        # fewer distinct positive weights than positive ones: classes
        # of one positive weight are laid out as one class, over their
        # leaves in index order. Classes at weight 0 get no codeword, so
        # their ties (zero targets) call for no layout, which would cost
        # work per leaf at every probe.
        if (len(set(weights)) - (0.0 in weights)
                < len(weights) - weights.count(0.0)):
            groups: dict = {}
            for c, v in enumerate(weights):
                groups.setdefault(v, []).extend(order[starts[c]:starts[c + 1]])
            weights, lay, at = list(groups), [], [0]
            for members in groups.values():
                lay += sorted(members)
                at.append(len(lay))
            place, sums = lay_out(lay)
        blocks = merge_classes(weights, lay, at)
        # Kraft sum and cost over 2^top, top beyond the longest codeword:
        # a block at depth D holds 2^-D of the probability
        top = blocks[-1][0] + bits
        kraft = cost = 0
        by_place.fill(0.0)
        for depth, _, pos, d in blocks:
            end = pos + (1 << d)
            kraft += 1 << (top - depth)
            cost += (sums[end] - sums[pos]) << (top - depth - d)
            by_place[pos:end] = ldexp(1.0, -depth - d)
        if kraft != 1 << top:
            raise ValueError(f"Kraft sum is {Fraction(kraft, 1 << top)}, "
                             "not 1")
        cost = Fraction(cost, w.den << top)
        kl = kl_divergence(by_place[place], t)
        feasible = cost <= S_exact
        trace.append(Evaluation(lam, float(cost), kl, feasible))
        return (lay, blocks, cost, kl) if feasible else None

    # found is always the probe at u, the feasible end of the bracket
    lo = u = 0.0
    iterations = 0
    found = probe(0.0)
    # equal costs everywhere need no special branch: any dyadic pmf then
    # costs exactly that value, so the budget check above already raised
    if not found:
        u = 1.0
        found = probe(u)
        while not found:
            lo, u = u, 2.0 * u
            if u > 2.0 ** 100:
                raise ConvergenceError(
                    "failed to bracket a feasible multiplier")
            found = probe(u)
    # lo == u == 0 skips it when lambda = 0 is feasible; it also ends
    # when no float lies strictly inside the bracket
    mid = 0.5 * (lo + u)
    while u - lo >= eps and lo < mid < u:
        iterations += 1
        at_mid = probe(mid)
        if at_mid:
            u, found = mid, at_mid
        else:
            lo = mid
        mid = 0.5 * (lo + u)
    # certify the class probe at u on the leaves themselves
    lay, blocks, cost, kl = found
    d = ghc(tilt(t, w, u))
    if (d.lengths != tuple(leaf_lengths(blocks, lay, len(t)))
            or average_cost_exact(d, w) != cost
            or kl_divergence(d, t) != kl):
        raise RuntimeError(f"the class merge at lambda {u!r} disagrees "
                           "with ghc on the leaves")
    return CcGhcResult(d=d, lambda_star=u, cost=float(cost), kl=kl,
                       iterations=iterations, bracket=(lo, u),
                       trace=tuple(trace), cost_exact=cost)
