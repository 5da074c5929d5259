"""Block extension experiments.

Extending the instance to blocks of k iid symbols (product target t^k,
Kronecker-sum costs v_k, budget k S) and matching the blocks makes the
per-symbol distance of the constrained dyadic solution approach the
relaxed optimum D(S). The sweep records that trajectory. It is not
monotone in k, chiefly because each ccghc point is optimal only at its
own cost, not at the budget: on the facade instance k=3 spends nearly
all of 3S (cost 0.206068 per symbol) while k=6 stops at 0.204922, so
the Kronecker square of the k=3 code (gap 0.008587) beats ccghc's k=6
point (gap 0.014609). The exact constrained optimum is not monotone
either: its gap is 0.008587 at k=3, 0.00403 at k=6 and 0.01064 at k=8,
so no dyadic k=8 pmf within budget beats k=3 there.

The chord construction quantifies achievability: tilting by the slope xi
of the chord through (E*, D(E*)) and the point epsilon above it pushes
the block solution into the segment the chord cuts from the region above
the curve, once k is large enough.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .ccghc import DEFAULT_EPS, CcGhcResult, ccghc, tilt
from .ghc import ghc
from .pmf import (CostVector, Number, Pmf, as_fraction, average_cost_exact,
                  check_size_cap, kl_divergence, kronecker_cost,
                  kronecker_pmf)
from .simplex import solve_simplex, tilted_solution


@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-symbol operating point of the block-k constrained solution.

    gap is kl_per_symbol minus the relaxed optimum D(S); it is never
    below zero (up to float noise) because the relaxation lower-bounds
    every dyadic point.
    """

    k: int
    kl_per_symbol: float
    cost_per_symbol: float
    lambda_star: float
    gap: float


@dataclass(frozen=True)
class ChordConstruction:
    """Chord geometry at a budget E*: the second cut point E' where
    D(E') = D(E*) + epsilon, the midpoint E'', and the chord slope
    magnitude xi (steeper than the tangent, by strict convexity)."""

    E_prime: float
    E_mid: float
    xi: float


def convergence_sweep(t: Pmf, w: CostVector, S: Number, k_max: int,
                      eps: float = DEFAULT_EPS) -> tuple:
    """Run the constrained search at blocklengths 1..k_max.

    Returns one ConvergenceRecord per k. Every record is feasible
    (cost_per_symbol <= S, compared exactly); per-symbol quantities are
    computed from exact block costs with a single final float conversion.
    A k_max past SIZE_CAP is refused before any block is solved.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    check_size_cap(max(len(t), len(w)), k_max)
    S_exact = as_fraction(S)
    d_opt = solve_simplex(t, w, float(S_exact)).D
    records = []
    for k in range(1, k_max + 1):
        tk = kronecker_pmf(t, k)
        vk = kronecker_cost(w, k)
        res = ccghc(tk, vk, k * S_exact, eps)
        records.append(_record(k, res, d_opt))
    return tuple(records)


def _record(k: int, res: CcGhcResult, d_opt: float) -> ConvergenceRecord:
    kl_ps = res.kl / k
    return ConvergenceRecord(k=k, kl_per_symbol=kl_ps,
                             cost_per_symbol=float(res.cost_exact / k),
                             lambda_star=res.lambda_star, gap=kl_ps - d_opt)


def chord(t: Pmf, w: CostVector, E_star: float,
          epsilon: float) -> ChordConstruction:
    """Chord through (E*, D(E*)) and (E', D(E*) + epsilon).

    E' lies on the decreasing branch of D left of E*. Along the tilt
    family D rises and E falls as the multiplier grows, so E' is found by
    one bisection on the multiplier, from lam(E*) up to the multiplier of
    a budget just above the cheapest supported cost, until the bracket
    cannot shrink in floats. xi is computed from the achieved curve
    points, so strict convexity keeps it above the tangent slope lam(E*).

    Raises:
        ValueError: epsilon so large that D never reaches D(E*) + epsilon
            above the cheapest supported cost.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sol = solve_simplex(t, w, E_star)
    target = sol.D + epsilon
    supported = w.costs[t.probs > 0]
    w_min = float(supported.min())
    edge = solve_simplex(t, w, w_min + 1e-9 * (sol.E - w_min))
    if edge.D <= target:
        raise ValueError(
            f"epsilon {epsilon} exceeds the distance range available above "
            f"the cheapest cost {w_min}")
    # D(lo) <= target < D(hi)
    lo, hi = sol.lam, edge.lam
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if tilted_solution(t, w, mid).D > target:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    prime = tilted_solution(t, w, mid)
    xi = (prime.D - sol.D) / (sol.E - prime.E)
    return ChordConstruction(E_prime=prime.E,
                             E_mid=0.5 * (prime.E + sol.E),
                             xi=xi)


def achievability_check(t: Pmf, w: CostVector, S: Number, epsilon: float,
                        k: int) -> tuple:
    """Compare the constrained block-k solution against the chord tilt.

    The chord tilt Ghc(t^k * 2^(-xi v_k)) is the fixed-multiplier
    construction whose operating point lands in the chord segment for
    large k. The constrained search should do at least as well: this
    returns (ok, record) where ok is True when the constrained solution
    is feasible and, whenever the chord tilt is itself feasible, the
    constrained solution's distance does not exceed the chord tilt's
    (within 1e-12 for float noise).
    """
    S_exact = as_fraction(S)
    ch = chord(t, w, float(S_exact), epsilon)
    tk = kronecker_pmf(t, k)
    vk = kronecker_cost(w, k)
    res = ccghc(tk, vk, k * S_exact)
    record = _record(k, res, solve_simplex(t, w, float(S_exact)).D)
    ok = res.cost_exact <= k * S_exact
    d_xi = ghc(tilt(tk, vk, ch.xi))
    if average_cost_exact(d_xi, vk) <= k * S_exact:
        ok = ok and res.kl <= kl_divergence(d_xi, tk) + 1e-12
    return ok, record


def sweep_csv(records) -> str:
    """CSV text (k, kl_per_symbol, cost_per_symbol, lambda_star, gap)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "kl_per_symbol", "cost_per_symbol",
                     "lambda_star", "gap"])
    for r in records:
        writer.writerow([r.k, repr(r.kl_per_symbol), repr(r.cost_per_symbol),
                         repr(r.lambda_star), repr(r.gap)])
    return buf.getvalue()
