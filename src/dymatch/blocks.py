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
of the chord through (E*, D(E*)) and the point epsilon above it is meant
to push the block solution into the segment the chord cuts from the
region above the curve, once k is large enough. Measured on the facade
at E* = 0.2063, the per-symbol point of Ghc(t^k * 2^(-xi v_k)) lands in
the segment (E' <= cost <= E*, KL at or below the chord) for every
k = 5..12 at epsilon = 0.1 and for none of k = 1..4; for epsilon = 0.001,
0.003, 0.01, 0.02, 0.03 and 0.05 it lands at no k <= 12.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, log2

from .ccghc import CcGhcResult, _Tilt, ccghc, tilt
from .ghc import ghc
from .pmf import (CostVector, Number, Pmf, as_float, as_fraction,
                  average_cost_exact, check_size_cap, kl_divergence,
                  kronecker_cost, kronecker_pmf)
from .simplex import _csv_text, _search, solve_simplex


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
    D(E') = D(E*) + epsilon, the midpoint E'', the chord slope magnitude
    xi (steeper than the tangent, by strict convexity), and the relaxed
    distance D_star = D(E*) the chord starts from."""

    E_prime: float
    E_mid: float
    xi: float
    D_star: float


def convergence_sweep(t: Pmf, w: CostVector, S: Number, k_max: int) -> tuple:
    """Run the constrained search at blocklengths 1..k_max.

    Returns one ConvergenceRecord per k. Every record is feasible
    (cost_per_symbol <= S, compared exactly); per-symbol quantities are
    computed from exact block costs with a single final float conversion.
    A k_max past SIZE_CAP or an S past the float range is refused first.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    check_size_cap(max(len(t), len(w)), k_max)
    S_exact = as_fraction(S)
    d_opt = solve_simplex(t, w, as_float(S_exact, "budget")).D
    records = []
    for k in range(1, k_max + 1):
        res = ccghc(t, w, k * S_exact, k)
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
    family D rises and E falls as the multiplier grows, D toward its
    limit -log2 T_C, T_C the target's mass on the cheapest supported
    symbols. So E' is found by the simplex module's search for the
    multiplier where D reaches D(E*) + epsilon, Newton steps on D from
    lam(E*) with no upper end. xi is computed from the achieved curve
    points, so strict convexity puts it strictly between the tangent
    slopes lam(E*) and lam(E').

    Raises:
        ValueError: epsilon not positive (NaN included), too small to
            change D(E*) in floats or to give a xi between the tangent
            slopes (the differences it divides are then a few ulps), or
            so large that D(E*) + epsilon reaches D's limit or E' rounds
            to the cheapest supported cost; E_star NaN.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    sol = solve_simplex(t, w, E_star)
    target = sol.D + epsilon
    if target == sol.D:
        raise ValueError(f"epsilon {epsilon} is lost in D(E*) = {sol.D}")
    tilted = _Tilt(t, w)
    x = t.probs * (w.costs == tilted.cheapest)
    # D's limit is -log2 T_C, T_C = x.sum(); the search's D ends at the
    # distance of x / T_C, which may differ from it in the last bits
    limit = min(-log2(x.sum()), kl_divergence(x / x.sum(), t))
    # D rises with lam at rate lam ln 2 times the variance of the costs
    prime = _search(tilted, t, w,
                    lambda p, gap, var, lam: (kl_divergence(p, t),
                                              lam * log(2) * var),
                    target, sol.lam) if target < limit else None
    if prime is None or prime.E <= tilted.cheapest:
        raise ValueError(
            f"epsilon {epsilon} takes D(E*) = {sol.D} to D's limit {limit} "
            f"at the cheapest supported cost {tilted.cheapest}")
    xi = (prime.D - sol.D) / (sol.E - prime.E)
    # strict convexity puts the chord slope between the tangent slopes
    if not sol.lam < xi < prime.lam:
        raise ValueError(f"epsilon {epsilon} is too small to resolve the "
                         f"chord: xi = {xi} lies outside the tangent "
                         f"slopes ({sol.lam}, {prime.lam})")
    return ChordConstruction(E_prime=prime.E, E_mid=0.5 * (prime.E + sol.E),
                             xi=xi, D_star=sol.D)


def achievability_check(t: Pmf, w: CostVector, S: Number, epsilon: float,
                        k: int) -> tuple:
    """Compare the constrained block-k solution against the chord tilt.

    The chord tilt Ghc(t^k * 2^(-xi v_k)) is the fixed-multiplier
    construction whose operating point is meant to land in the chord
    segment for large k (the module docstring says where it was measured
    to). The constrained search should do at least as well: this
    returns (ok, record) where ok is True when the constrained solution
    is feasible and, whenever the chord tilt is itself feasible, the
    constrained solution's distance does not exceed the chord tilt's
    (within 1e-12 for float noise).
    """
    S_exact = as_fraction(S)
    E = as_float(S_exact, "budget")
    ch = chord(t, w, E, epsilon)
    tk = kronecker_pmf(t, k)
    vk = kronecker_cost(w, k)
    res = ccghc(t, w, k * S_exact, k)
    record = _record(k, res, ch.D_star)
    ok = res.cost_exact <= k * S_exact
    d_xi = ghc(tilt(tk, vk, ch.xi))
    if average_cost_exact(d_xi, vk) <= k * S_exact:
        ok = ok and res.kl <= kl_divergence(d_xi, tk) + 1e-12
    return ok, record


def sweep_csv(records) -> str:
    """CSV text (k, kl_per_symbol, cost_per_symbol, lambda_star, gap)."""
    return _csv_text(
        ["k", "kl_per_symbol", "cost_per_symbol", "lambda_star", "gap"],
        ([r.k, repr(r.kl_per_symbol), repr(r.cost_per_symbol),
          repr(r.lambda_star), repr(r.gap)] for r in records))
