"""The relaxed problem on the probability simplex.

Dropping the dyadic restriction, minimizing kl(p||t) subject to
w^T p <= E over the simplex has the exponential family solution
p*_i proportional to t_i * 2^(-lam * w_i), with the multiplier lam picked
so the constraint is active. Everything here works in base 2: distances
are bits and lam is the magnitude of dD/dE in bits per cost unit, which
lines up with the 2^(-lam w) tilt used on the dyadic side. (The same
family is often written with e^(-lam w); that multiplier is this one
times ln 2.)

The cost function f(lam) = w^T p*(lam) is strictly decreasing whenever
the costs are not all equal, so a bisection inverts it.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import isnan
from typing import Sequence

import numpy as np

from .ccghc import _Tilt, tilt
from .errors import ConvergenceError, InfeasibleConstraintError
from .pmf import CostVector, Pmf, average_cost, kl_divergence

COST_TOL = 1e-12


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


def _solution(tilted, t: Pmf, w: CostVector, lam: float) -> TiltedSolution:
    """The relaxed optimum at multiplier lam from a prepared tilt of t:
    the normalized tilt, its cost E and its distance D."""
    x = tilted(lam)
    p = Pmf(x / x.sum())
    return TiltedSolution(p, lam, average_cost(p, w), kl_divergence(p, t))


def cost_of_lambda(t: Pmf, w: CostVector, lam: float) -> float:
    """f(lam) = w^T p*(lam), strictly decreasing in lam for non-equal costs.

    Takes the dot product on the normalized tilt directly, with no
    validated Pmf; solve_simplex's bisection does the same at every step
    from a tilt it prepares once.
    """
    return _cost_at(_Tilt(t, w), w, lam)


def _cost_at(tilted: _Tilt, w: CostVector, lam: float) -> float:
    """cost_of_lambda from a prepared tilt of t."""
    x = tilted(lam)
    return float(np.dot(x / x.sum(), w.costs))


def solve_simplex(t: Pmf, w: CostVector, E: float) -> TiltedSolution:
    """Minimize kl(p||t) over the simplex subject to w^T p <= E.

    Arguments:
        t: target pmf.
        w: costs; must not be all equal (the constraint cannot bind a
            direction then and the tilt family degenerates).
        E: cost budget, strictly above the cheapest supported symbol.

    Returns:
        TiltedSolution. For E >= w^T t the constraint is slack and the
        target itself is returned with lam = 0; otherwise E is within
        COST_TOL of the budget, or as close as floats allow where
        COST_TOL is finer than their spacing (costs in the thousands).

    Raises:
        ValueError: E is NaN, or t and w differ in length.
        InfeasibleConstraintError: E at or below the cheapest supported cost.
        ConvergenceError: f(lam) is still above E at lam = 2^128.
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

    lo, u = 0.0, 1.0
    while _cost_at(tilted, w, u) > E:
        lo, u = u, 2.0 * u
        if u > 2.0 ** 128:
            raise ConvergenceError("failed to bracket the multiplier")
    lam = 0.5 * (lo + u)
    while lo < lam < u:
        fe = _cost_at(tilted, w, lam)
        if abs(fe - E) <= COST_TOL:
            break
        if fe > E:
            lo = lam
        else:
            u = lam
        lam = 0.5 * (lo + u)
    return _solution(tilted, t, w, lam)


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


def curve_csv(points: Sequence[TiltedSolution]) -> str:
    """CSV text (E, D, lambda) for plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["E", "D", "lambda"])
    for pt in points:
        writer.writerow([repr(pt.E), repr(pt.D), repr(pt.lam)])
    return buf.getvalue()
