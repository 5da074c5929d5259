"""Cost-constrained geometric Huffman coding.

The dyadic KL minimization under an affine cost budget w^T d <= S is
approached through a Lagrange multiplier: for each trial lambda the
unconstrained minimizer of kl(d||t) + lambda w^T d is ghc applied to the
tilted target t * 2^(-lambda w), and the search closes a bracket around
the smallest multiplier whose minimizer is feasible. It returns what a
bisection that probes every midpoint returns, but probes few of them.

The dual g(lambda) = min_d kl(d) + lambda (cost(d) - S) is concave and
piecewise linear, and each probe gives one of its lines, kl + lambda
(cost - S) of the tree it found. The search has three steps.

1. Bracket: probe 0, then 1, 2, 4, ... until a probe is feasible.
2. Locate (Kelley's cutting plane, 1960): on (a, b), the largest
   infeasible and the smallest feasible multiplier probed so far (the
   bracket at first), probe where the lines of a and b cross, which
   moves the end on the probe's side, until b's line meets a's at a or
   at b, within 1e-12 relative in value. At that point x both trees
   minimize kl + x * cost, so every minimizer below x costs more than
   the infeasible tree and every minimizer above x no more than the
   feasible one: the probes turn feasible at x. x stays unset if a
   crossing does not land strictly inside (a, b).
3. Replay: the bisection from the step-1 bracket, halving by the rule
   ccghc states. A midpoint within REPLAY * max(x, 1 / spread) of x is
   probed, any other outside (a, b) takes its side from the probes, and
   the rest take theirs from x. The final bracket's feasible end is
   probed, for the result, and so is its infeasible end if it lies
   above a. A side wrongly taken from x leaves one of them on the wrong
   side; then the bisection runs again without x (1 of the 99840
   random-small instances of seeds 1-40).

   Near x, the tilt's rounding can break the order: where the lines
   cross at exactly 20, the crossing computed in floats, an ulp above
   20, gave an infeasible tree, and the midpoint 20 a feasible one. So
   the midpoints near x are probed even outside (a, b); on the
   random-small seeds 1-3 that is one more probe on 16 of 7488 solves.

As feasibility turns once as lambda rises, away from that rounding near
x, the replay ends in the bisection's bracket, with its lambda_star,
iterations and result. On the facade at k = 1..10 the search runs 8-10
probes, where the bisection runs 37-38, and 8.1 per random-small solve
against 34.0. Stopping at x instead would move lambda_star and, where
trees tie, can return another tie member of other KL.

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
of class costs, and prepares their tilt once (_Tilt). Each probe tilts
that array, one weight per class, and runs ghc's merge core,
merge_classes, on the weights, with the type classes laid out in order
of first appearance (the facade's 3^k blocks form k+1 classes). Type
classes that tie, as those of one target do at multiplier 0 (all of the
facade's do), take their turns in that order, and each pairs its own
blocks first.

The classes are built from the symbols', not from the m^k leaves
(_type_classes). The recursion starts at the empty block, one class of
target 1.0 and cost 0, so the blocks of one symbol are its first step
(1.0 * t_s and 0 + n_s are t_s and n_s exactly). A leaf of level j + 1
is a leaf i of level j followed by a symbol s, at index i * m + s, and
kronecker_pmf and kronecker_cost give it the target t_i * t_s and the
cost numerator n_i + n_s. All leaves of a class share its key, so the
class c paired with s maps every one of them to the key
(target_c * t_s, num_c + n_s), the same float product and integer sum:
the pairs of equal key form the classes of level j + 1. The pair (c, s)
first appears at first_c * m + s, and with the classes in order of
first appearance the pairs in the order c * m + s are too, so each new
class is numbered at its first pair, in order of its first appearance,
which is the smallest of its pairs'. The leaves' class ids at level
j + 1 are a gather of the pairs' ids by the ids at level j, and one
stable sort of them gives the layout. A target such as (0.2, 0.3, 0.5)
gives blocks of one symbol multiset different floats in different
orders; they are different keys here as they are on the leaves.

A probe then costs its merge plus a sum over the blocks of the code
tree. A block (depth, c, pos, d) holds 2^d leaves of class c, each of
probability 2^-(depth + d), so it adds 2^-depth to the Kraft sum,
w_c 2^-depth to the cost and -(depth + d + log2 t_c) 2^-depth to the
KL, with log2 t_c taken once per class. Kraft sum and cost are exact
integers over 2^top, and feasibility is an integer comparison with the
budget. The KL is a float sum, so a probe's KL can differ from
kl_divergence on the expanded probabilities in the last bits (by at
most 1.5e-15 relative over every probe on the facade at k <= 10 and on
seeded and tie-heavy random instances).

The result is certified once on the leaves, which for k > 1 are built
by kronecker_pmf and kronecker_cost for it. ghc recomputes the lengths
at lambda_star from the leaf tilt. Where type classes tie there, ghc
lays them out as one class in index order, so it can return another
tree than the probe's, of the same value of kl + lambda_star * cost:
then the result is the probe's tree, whose feasibility the search
decided, and the two values must agree within 1e-12 relative.
average_cost_exact recomputes the result's exact cost, which must equal
the probe's, and kl_divergence gives its kl, which must agree with the
probe's within 1e-12 relative; a disagreement raises RuntimeError.

Every probe also bounds the optimum from below: d_lambda minimizes
kl + lambda * cost over all dyadic pmfs, so kl(d_lambda) +
lambda * (cost(d_lambda) - S) is at most the KL of every dyadic pmf
costing at most S (weak duality). The result carries the best such
bound over its probes as dual_bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, ldexp, log2

import numpy as np

from .errors import ConvergenceError, InfeasibleConstraintError
from .ghc import _as_weights, ghc, leaf_lengths, merge_classes
from .pmf import (CostVector, DyadicPmf, Number, Pmf, as_fraction,
                  average_cost_exact, kl_divergence, kronecker_cost,
                  kronecker_pmf)

# relative bracket width at which ccghc's bisection stops (see ccghc)
WIDTH = 2.0 ** -32
# relative distance from the located multiplier x within which the
# replayed bisection probes its midpoints; farther ones take their side
# from x (see the module docstring)
REPLAY = 2.0 ** -40
# how far a probe's KL, summed per class, may be from kl_divergence on the
# leaves, relative to max(1, |kl|)
KL_AGREEMENT = 1e-12


def ties(a: float, b: float) -> bool:
    """a agrees with b to KL_AGREEMENT relative to max(1, |b|)."""
    return abs(a - b) <= KL_AGREEMENT * max(1.0, abs(b))


class _Tilt:
    """tilt(t, w, .) with t and w checked and masked once, for a solve
    that tilts at many multipliers: calling it with lam returns
    tilt(t, w, lam), by the same operations in the same order."""

    __slots__ = ("size", "supported", "targets", "costs", "cheapest")

    def __init__(self, t, w: CostVector):
        tp = _as_weights(t, "targets")
        if len(tp) != len(w):
            raise ValueError(f"length mismatch: {len(tp)} vs {len(w)}")
        self.supported = tp > 0
        self.size = len(tp)
        self.targets = tp[self.supported]
        self.costs = w.costs[self.supported]
        self.cheapest = float(self.costs.min())

    def __call__(self, lam: float) -> np.ndarray:
        if not isfinite(lam):
            raise ValueError(f"multiplier must be finite, got {lam!r}")
        out = np.zeros(self.size)
        out[self.supported] = self.targets * np.exp2(lam * self.cheapest
                                                     - lam * self.costs)
        return out


def _past_ceiling(lam: float, spread: float, costs) -> bool:
    """True when lam times the nearest gap passes 2^100, where the
    multiplier searches give up. The nearest gap is the smallest
    positive gap between the float costs and the cheapest of them, or
    spread where they are all equal. It is at most spread, so costs, any
    iterable, is read only once lam * spread passes 2^100. The tilt at
    lam weighs the nearer costs 2^(-lam * gap) against the cheapest, so
    long before the ceiling it has put every weight off the cheapest
    costs at 0."""
    ceiling = 2.0 ** 100
    if lam * spread <= ceiling:
        return False
    costs = list(costs)
    low = min(costs)
    return lam * min((c - low for c in costs if c > low),
                     default=spread) > ceiling


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
        ValueError: t is not a non-empty vector, t and w differ in
            length, t has a NaN, infinite or negative entry or none above
            0 (ghc's weights check), or lam is NaN or infinite.
    """
    return _Tilt(t, w)(lam)


def _type_classes(t: Pmf, w: CostVector, k: int) -> tuple:
    """group_leaves(zip(tk.probs.tolist(), wk.nums)) for the k-symbol
    blocks tk = kronecker_pmf(t, k) and wk = kronecker_cost(w, k), built
    over classes from the empty block: (keys, order, starts), with keys
    the classes' (target, cost numerator) in order of first appearance
    (see the module docstring)."""
    symbols = list(zip(t.probs.tolist(), w.nums))
    # the empty block is one class, of target 1.0 and cost 0, and the
    # class of each leaf of the current level
    keys = [(1.0, 0)]
    ids = np.zeros(1, dtype=np.intp)
    for _ in range(k):
        # pair c * m + s is class c followed by symbol s; each new key
        # gets the next class id at its first pair
        index: dict = {}
        child = [index.setdefault((p * q, n + r), len(index))
                 for p, n in keys for q, r in symbols]
        keys = list(index)
        ids = np.array(child, dtype=np.intp).reshape(-1, len(symbols))[
            ids].ravel()
    order = np.argsort(ids, kind="stable")
    starts = [0, *np.cumsum(np.bincount(ids)).tolist()]
    return keys, order.tolist(), starts


@dataclass(frozen=True)
class Evaluation:
    """One solver probe: the multiplier tried and what it produced.

    cost is the probe's exact cost rounded to a float once, and feasible
    compares the exact cost with the budget. kl is summed per type class
    in floats, so it can differ in the last bits from kl_divergence on
    the probe's expanded pmf.
    """

    lam: float
    cost: float
    kl: float
    feasible: bool


@dataclass(frozen=True)
class CcGhcResult:
    """Converged output of the constrained search.

    lambda_star is the feasible end of the final bracket, narrowed by the
    rule ccghc states; iterations counts the bisection's halvings, probed
    or not. trace holds the probes that ran, in order, each multiplier
    once: the bracket's, the crossings, and the bisection's that were
    not predicted. lambda_star is among them, and when it is not 0 so is
    an infeasible probe at or above bracket[0], bracket[0] itself unless
    an infeasible crossing above it settled its side.
    d and cost_exact are what the search's probe at lambda_star
    produced, so cost <= S holds exactly, and kl is kl_divergence(d, t).
    d minimizes kl + lambda_star * cost over all dyadic pmfs, so it has
    the smallest KL among dyadic pmfs costing at most cost_exact; when
    cost_exact < S a feasible pmf with smaller KL may exist. dual_bound
    is the largest kl + lambda * (cost - S) over the probes, capped at
    kl: a lower bound on the KL of every dyadic pmf costing at most S,
    computed in floats from the trace, so good to its last bits.
    """

    d: DyadicPmf
    lambda_star: float
    cost: float
    kl: float
    iterations: int
    bracket: tuple
    trace: tuple
    cost_exact: Fraction
    dual_bound: float

    def to_dict(self) -> dict:
        return {
            "lengths": list(self.d.lengths),
            "lambda_star": self.lambda_star,
            "cost": self.cost,
            "kl": self.kl,
            "iterations": self.iterations,
            "bracket": list(self.bracket),
        }


def ccghc(t: Pmf, w: CostVector, S: Number, k: int = 1) -> CcGhcResult:
    """Feasible dyadic pmf close in KL to t^k under w_k^T d <= S, for the
    blocks of k symbols: t^k is kronecker_pmf(t, k) and w_k
    kronecker_cost(w, k), which are t and w at k = 1.

    The returned d is the class merge of the tilt at lambda_star, which
    is ghc of the leaf tilt up to how ties are broken: it minimizes
    kl(d||t) + lambda_star * w^T d, and therefore KL among dyadic pmfs
    that cost at most its own cost_exact. It is the minimizer subject to
    w^T d <= S when cost_exact equals S or lambda_star is 0; otherwise a
    dyadic pmf costing between cost_exact and S may have smaller KL (the
    module docstring lists measured cases).

    Arguments:
        t: target pmf.
        w: costs, one per symbol.
        S: budget per block; decimal strings and Fractions are honored
            exactly.
        k: blocklength. The type classes of the blocks are built from
            those of the symbols (see the module docstring); the leaves
            are built only for the certificate.

    Returns:
        CcGhcResult. If ghc(t) is already feasible the search is skipped
        and lambda_star is 0. Otherwise the bracket (lo, u) is halved
        while u - lo >= WIDTH * max(u, 1 / spread), spread the largest
        supported cost minus the smallest, and a float lies inside it.
        It resolves lambda * spread to WIDTH, relative above 1 and
        absolute below, so costs and S scaled by 2^j give exactly
        lambda_star 2^-j and the same d. Only the midpoints whose side
        the dual's lines leave open are probed (see the module
        docstring), so the result, bracket and iterations are those of
        the bisection that probes every midpoint.

    Raises:
        SizeCapError: k > 1 and m^k past SIZE_CAP, checked before any
            class is built.
        InfeasibleConstraintError: S below the cheapest supported block,
            or equal costs everywhere that exceed S.
        ConvergenceError: no feasible multiplier lambda with lambda
            times the nearest gap up to 2^100, the smallest positive gap
            between a supported class cost, as the tilt's float, and the
            cheapest (_past_ceiling; the spread where there is none).
            The one input known to give up has supported costs equal as
            floats but not exactly, where the budget needs them apart,
            such as costs (1, 1 + 2^-100, 2) and budget 1 + 10^-31: the
            tilt weighs the first two alike at every multiplier, so no
            probe drops the dearer one. The bisection has no iteration
            limit.
    """
    if len(t) != len(w):
        raise ValueError(f"length mismatch: {len(t)} vs {len(w)}")
    S_exact = as_fraction(S)
    # the leaves, for the certificate; the builds check the size cap
    leaves, costs = (t, w) if k == 1 else (kronecker_pmf(t, k),
                                           kronecker_cost(w, k))
    # type classes: leaves with equal target weight and equal cost, which
    # tilt to equal weights at every multiplier
    keys, order, starts = _type_classes(t, w, k)
    cnum = [n for _, n in keys]
    tilted = _Tilt(np.array([p for p, _ in keys]),
                   CostVector._scaled(tuple(cnum), w.den))
    # a class at target 0 gets no codeword, so its log2 is never summed
    logs = [log2(p) if p > 0 else -inf for p, _ in keys]
    supported = [n for p, n in keys if p > 0]
    cheapest = Fraction(min(supported), w.den)
    if S_exact < cheapest:
        raise InfeasibleConstraintError(
            f"budget {S_exact} is below the cheapest supported symbol cost "
            f"{cheapest}")
    S_num, S_den = S_exact.numerator, S_exact.denominator
    # a block has 2^d <= len(leaves) leaves, so d < bits
    bits = len(leaves).bit_length()
    # every probe that ran, in order: multiplier -> (its Evaluation, and
    # merge_classes' blocks, the exact cost as numerator and denominator
    # and the KL when feasible, else None)
    probes = {}
    # the largest infeasible and the smallest feasible multiplier probed,
    # which settle the side of every multiplier outside (a, b)
    a, b = 0.0, inf

    def probe(lam: float):
        """The feasible payload at lam, or None; each multiplier is
        merged once."""
        nonlocal a, b
        if lam in probes:
            return probes[lam][1]
        blocks = merge_classes(tilted(lam).tolist(), starts)
        # Kraft sum and cost over 2^top, top beyond the longest codeword:
        # a block at depth D holds 2^-D of the probability
        top = blocks[-1][0] + bits
        kraft = cost = 0
        kl = 0.0
        for depth, c, _, d in blocks:
            share = 1 << (top - depth)
            kraft += share
            cost += cnum[c] * share
            kl -= ldexp(depth + d + logs[c], -depth)
        if kraft != 1 << top:
            raise ValueError(f"Kraft sum is {Fraction(kraft, 1 << top)}, "
                             "not 1")
        den = w.den << top
        feasible = cost * S_den <= S_num * den
        # int / int rounds once, as float(Fraction(cost, den)) does
        probes[lam] = (Evaluation(lam, cost / den, kl, feasible),
                       (blocks, cost, den, kl) if feasible else None)
        if feasible:
            b = min(b, lam)
        else:
            a = max(a, lam)
        return probes[lam][1]

    def line(lam: float, at: float) -> float:
        """kl + at * cost of the probe at lam: its line of the dual at
        at, less at * S."""
        e = probes[lam][0]
        return e.kl + at * e.cost

    lo = u = 0.0
    # spread > 0 past this probe, as equal supported costs fit at 0 or
    # raised above; lo == u == 0 skips the search when it is 0
    spread = (max(supported) - min(supported)) / w.den
    if not probe(0.0):
        u = 1.0
        while not probe(u):
            lo, u = u, 2.0 * u
            if _past_ceiling(u, spread, (n / w.den for n in supported)):
                raise ConvergenceError(
                    "failed to bracket a feasible multiplier")
    # locate x, where the probes turn feasible, from the dual's lines
    # (step 2 of the module docstring)
    x = None
    while a < b:
        if ties(line(b, a), line(a, a)):
            x = a
            break
        if ties(line(a, b), line(b, b)):
            x = b
            break
        ea, eb = probes[a][0], probes[b][0]
        if ea.cost <= eb.cost:
            # exact costs within an ulp: the lines cross nowhere in floats
            break
        cross = (eb.kl - ea.kl) / (ea.cost - eb.cost)
        if not a < cross < b:
            break
        probe(cross)

    def halve(lo: float, u: float, x):
        """Bisect (lo, u) to the stopping width. A midpoint within
        REPLAY * max(x, 1 / spread) of x is probed, any other outside
        (a, b) takes its side from the probes, and the rest take theirs
        from x, or are probed if x is None. Returns the final bracket and
        the halvings."""
        iterations = 0
        mid = 0.5 * (lo + u)
        while lo < mid < u and u - lo >= WIDTH * max(u, 1 / spread):
            iterations += 1
            if x is not None and abs(mid - x) <= REPLAY * max(x, 1 / spread):
                feasible = probe(mid)
            elif not a < mid < b:
                feasible = mid >= b
            elif x is None:
                feasible = probe(mid)
            else:
                feasible = mid > x
            if feasible:
                u = mid
            else:
                lo = mid
            mid = 0.5 * (lo + u)
        return lo, u, iterations

    start = lo, u
    lo, u, iterations = halve(*start, x)
    # a side wrongly taken from x leaves u infeasible or lo feasible; lo
    # at or below a, an infeasible probe, is infeasible already
    if x is not None and (not probe(u) or lo > a and probe(lo)):
        lo, u, iterations = halve(*start, None)
    found = probe(u)
    # certify the class probe at u on the leaves themselves
    blocks, num, den, probe_kl = found
    cost = Fraction(num, den)
    lengths = tuple(leaf_lengths(blocks, order, len(leaves)))
    d = ghc(tilt(leaves, costs, u))
    value = None
    if d.lengths != lengths:
        # ghc laid out type classes tied at u as one: the result is the
        # probe's tree, which must reach ghc's value of kl + u * cost
        value = (kl_divergence(d, leaves)
                 + u * float(average_cost_exact(d, costs)))
        d = DyadicPmf(lengths)
    kl = kl_divergence(d, leaves)
    if (average_cost_exact(d, costs) != cost or not ties(probe_kl, kl)
            or value is not None and not ties(kl + u * float(cost), value)):
        raise RuntimeError(f"the class merge at lambda {u!r} disagrees "
                           "with ghc on the leaves")
    # a list, then a tuple of it: CPython builds a tuple from a generator
    # by resizing one of 10 entries, and each such trace freed would add
    # to the free list of its size (1.4 MB of peak RSS over 20000 solves)
    trace = [e for e, _ in probes.values()]
    # capped at kl, which a probe's KL, summed per class, can exceed by an
    # ulp; at lambda_star 0 it is kl, and S may be past the float range
    bound = kl if u == 0 else min(kl, max(
        e.kl + e.lam * (e.cost - float(S_exact)) for e in trace))
    return CcGhcResult(d=d, lambda_star=u, cost=float(cost), kl=kl,
                       iterations=iterations, bracket=(lo, u),
                       trace=tuple(trace), cost_exact=cost,
                       dual_bound=bound)
