"""The relaxed problem on the probability simplex.

Dropping the dyadic restriction, minimizing kl(p||t) subject to
w^T p <= E over the simplex has the exponential family solution
p*_i proportional to t_i * 2^(-lam * w_i), with the multiplier lam picked
so the constraint is active. Everything here works in base 2: distances
are bits and lam is the magnitude of dD/dE in bits per cost unit, which
lines up with the 2^(-lam w) tilt used on the dyadic side. (The same
family is often written with e^(-lam w); that multiplier is this one
times ln 2.)

The cost E(lam) = w^T p*(lam) is strictly decreasing whenever the
costs are not all equal, with slope -ln 2 Var(w) under p*(lam), and the
distance D(lam) = kl(p*(lam)||t) increasing with slope lam ln 2 Var(w),
toward -log2 T_C as lam grows, T_C the target's mass on the cheapest
supported symbols. One search (_search) inverts either: Newton steps
kept inside a bracket on the multiplier, run until they no longer move
it in floats. It returns the relaxed optimum where they stop.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import inf, isnan, log, nan
from typing import Sequence

import numpy as np

from .ccghc import _Tilt, tilt
from .errors import ConvergenceError, InfeasibleConstraintError
from .pmf import CostVector, Pmf, average_cost, kl_divergence


@dataclass(frozen=True)
class TiltedSolution:
    """Optimal point of the relaxed problem at one budget.

    lam is the active multiplier (0 when the constraint is slack), E the
    achieved cost w^T p_star, D the achieved distance kl(p_star||t).
    """

    p_star: Pmf
    lam: float
    E: float
    D: float


def tilted_pmf(t: Pmf, w: CostVector, lam: float) -> Pmf:
    """Normalized tilted pmf proportional to t_i * 2^(-lam * w_i): the
    dyadic side's tilt, normalized. Zero-probability target symbols stay
    exactly zero."""
    x = tilt(t, w, lam)
    return Pmf(x / x.sum())


def _search(tilted: _Tilt, t: Pmf, w: CostVector, rising, target: float,
            lam: float) -> TiltedSolution:
    """The relaxed optimum at the multiplier where rising, a quantity of
    the normalized tilt that grows with the multiplier, reaches target,
    searched upward from lam, the lower end of the bracket.

    rising(p, gap, var, lam) gives the quantity and its slope in lam from
    the normalized tilt p at lam, the excess gap of its cost over the
    cheapest supported cost, and the variance var of the costs under p.
    Each step is a Newton step unless it leaves the bracket; then it
    halves the bracket, or, while the bracket has no upper end, goes to
    2 max(lam, 1 / spread), which also caps a Newton step (spread is the
    largest supported cost minus the smallest). The search stops when a
    step no longer moves lam or no float lies strictly inside the
    bracket, and returns the normalized tilt at the last multiplier tried
    with its cost and distance. No step depends on the cost unit: with
    the costs scaled by 2^j, and a cost target with them, every
    multiplier tried is exactly 2^-j times the unscaled one.

    Raises:
        ConvergenceError: a step passes lam * spread = 2^100.
    """
    over = w.costs - tilted.cheapest
    spread = float(tilted.costs.max()) - tilted.cheapest
    lo, u = lam, inf
    while True:
        x = tilted(lam)
        p = x / x.sum()
        gap = float(np.dot(p, over))
        value, slope = rising(p, gap, float(np.dot(p, (over - gap) ** 2)),
                              lam)
        lo, u = (lam, u) if value < target else (lo, lam)
        step = lam + (target - value) / slope if slope > 0 else nan
        hi = u if u < inf else 2.0 * max(lam, 1 / spread)
        if step != lam and not lo < step < hi:
            step = 0.5 * (lo + u) if u < inf else hi
        # lam is lo or u, so this also ends a step that does not move it
        if not lo < step < u:
            p = Pmf(p)
            return TiltedSolution(p, lam, average_cost(p, w),
                                  kl_divergence(p, t))
        if step * spread > 2.0 ** 100:
            raise ConvergenceError("failed to bracket the multiplier")
        lam = step


def solve_simplex(t: Pmf, w: CostVector, E: float) -> TiltedSolution:
    """Minimize kl(p||t) over the simplex subject to w^T p <= E.

    Arguments:
        t: target pmf.
        w: costs; must not be all equal (the constraint cannot bind a
            direction then and the tilt family degenerates).
        E: cost budget, strictly above the cheapest supported symbol.

    Returns:
        TiltedSolution. For E >= w^T t the constraint is slack and the
        target itself is returned with lam = 0. Otherwise lam is found by
        Newton steps on the tilt's cost, from 0, until they no longer
        move it in floats (see _search). The cost is taken as its excess
        over the cheapest supported cost, so lam stays accurate however
        close E is to that cost, and E is met to the last bits in any
        cost unit.

    Raises:
        ValueError: E is NaN, or t and w differ in length.
        InfeasibleConstraintError: E at or below the cheapest supported cost.
        ConvergenceError: the search passes lam * spread = 2^100 (see
            _search).
    """
    tilted = _Tilt(t, w)
    if isnan(E):
        raise ValueError(f"budget must be a number, got {E!r}")
    if w.is_uniform:
        raise ValueError("degenerate cost vector: all entries equal")
    w_min = tilted.cheapest
    if E <= w_min:
        raise InfeasibleConstraintError(
            f"budget {E} does not exceed the cheapest supported cost {w_min}")
    wt = average_cost(t, w)
    if E >= wt:
        return TiltedSolution(t, 0.0, wt, 0.0)
    # the cost's excess falls with lam at rate ln 2 times the variance
    return _search(tilted, t, w,
                   lambda p, gap, var, lam: (-gap, log(2) * var),
                   w_min - E, 0.0)


def distance_cost_curve(t: Pmf, w: CostVector,
                        grid: Sequence[float]) -> tuple:
    """Pointwise distance-cost tradeoff D(E) over a grid of budgets.

    The grid must lie strictly between the cheapest supported cost and
    w^T t; D is strictly convex and decreasing there, and the lam of
    each returned TiltedSolution is the magnitude of the tangent slope.
    """
    wt = average_cost(t, w)
    points = []
    for E in grid:
        if E >= wt:
            raise ValueError(
                f"grid point {E} is not below w^T t = {wt}; D is flat there")
        points.append(solve_simplex(t, w, float(E)))
    return tuple(points)


def geometry_identity_residual(p: Pmf, t: Pmf, w: CostVector,
                               E_star: float) -> float:
    """Residual of the operating-point decomposition at budget E_star.

    With (p*, lam, E*, D*) the relaxed solution, every pmf p supported
    inside p* satisfies

        kl(p||t) = D* - lam (w^T p - E*) + kl(p||p*)

    exactly; the return value is |lhs - rhs|. Since kl(p||p*) >= 0, the
    identity puts every operating point on or above the tangent of D at
    (E*, D*).
    """
    sol = solve_simplex(t, w, E_star)
    if np.any((p.probs > 0) & (sol.p_star.probs == 0)):
        raise ValueError("p puts mass outside the support of p*")
    lhs = kl_divergence(p, t)
    rhs = (sol.D - sol.lam * (average_cost(p, w) - sol.E)
           + kl_divergence(p, sol.p_star))
    return abs(lhs - rhs)


def _csv_text(header: list, rows) -> str:
    """CSV text of a header row and the rows after it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def curve_csv(points: Sequence[TiltedSolution]) -> str:
    """CSV text (E, D, lambda) for plotting."""
    return _csv_text(["E", "D", "lambda"],
                     ([repr(pt.E), repr(pt.D), repr(pt.lam)] for pt in points))
