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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, InfeasibleConstraintError
from .ghc import TargetWeights, ghc
from .pmf import (CostVector, DyadicPmf, Number, Pmf, as_fraction,
                  average_cost_exact, kl_divergence)

DEFAULT_EPS = 1e-9


def tilt(t: Pmf, w: CostVector, lam: float) -> TargetWeights:
    """Tilted target t_i * 2^(lam * (w_min - w_i)), w_min the cheapest
    cost among symbols with t_i > 0; entries with t_i = 0 are exactly 0.

    This is t * 2^(-lam w) times the constant 2^(lam w_min), which
    changes neither ghc's minimizer nor a normalized pmf. The shift keeps
    the cheapest supported symbol at its target weight, so no multiplier
    underflows every weight that matters. Shifting by an unsupported
    cheaper cost would not: with an unused symbol of cost 0 and the
    others near 10, lam = 54 scales every supported weight by about
    2^-540, and the product inside ghc's geometric-mean merge underflows.
    """
    if len(t) != len(w):
        raise ValueError(f"length mismatch: {len(t)} vs {len(w)}")
    tp = t.probs
    supported = tp > 0
    costs = w.costs[supported]
    shift = lam * float(costs.min())
    out = np.zeros(len(tp))
    out[supported] = tp[supported] * np.exp2(shift - lam * costs)
    return TargetWeights(out)


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
            refused).

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
    cheapest = Fraction(min(n for n, p in zip(w.nums, t.probs) if p > 0),
                        w.den)
    if S_exact < cheapest:
        raise InfeasibleConstraintError(
            f"budget {S_exact} is below the cheapest supported symbol cost "
            f"{cheapest}")

    trace = []

    def probe(lam: float):
        """(d, exact cost, KL) at lam when feasible, else None."""
        d = ghc(tilt(t, w, lam))
        cost = average_cost_exact(d, w)
        kl = kl_divergence(d, t)
        feasible = cost <= S_exact
        trace.append(Evaluation(lam, float(cost), kl, feasible))
        return (d, cost, kl) if feasible else None

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
    d, cost, kl = found
    return CcGhcResult(d=d, lambda_star=u, cost=float(cost), kl=kl,
                       iterations=iterations, bracket=(lo, u),
                       trace=tuple(trace), cost_exact=cost)
