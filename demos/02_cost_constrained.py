"""Dyadic matching under an average-cost budget.

Symbols carry costs (here: slat widths 0.18, 0.18, 0.31 meters against a
0.625 m slot). The plain match to the uniform target overshoots a tight
shadowing budget, so the search tilts the target with a Lagrange
multiplier until the constrained optimum appears.
"""
from dymatch import ccghc
from dymatch.facade import SLAT_COSTS, SLOT_WIDTH, TARGET


def report(budget):
    res = ccghc(TARGET, SLAT_COSTS, budget)
    shade = res.cost / SLOT_WIDTH
    print(f"budget {budget}: lengths {res.d.lengths}  probs {res.d.probs}")
    print(f"  lambda* {res.lambda_star:.6f}  cost {res.cost:.6f} "
          f"({shade:.1%} of the slot)  kl {res.kl:.6f} bits  "
          f"iterations {res.iterations}")
    print()


print(f"costs {SLAT_COSTS.costs} per symbol, slot width {SLOT_WIDTH}\n")

# A loose budget that still binds: ghc of the uniform target, (2, 2, 1),
# gives the wide slat the short codeword and costs 0.245, so multiplier 0
# is infeasible. Any positive multiplier breaks that tie toward the cheap
# slats, (2, 1, 2) at cost 0.2125, so lambda* is the smallest multiplier
# the bisection resolves and prints as 0.000000. Both trees have the same
# KL, so their lines of the dual meet at 0, and the search probes only
# 0, 1 and lambda*, though it counts all 30 halvings.
report("0.2233")

# The facade budget: 33% shadowing. Single symbols offer nothing between
# cost 0.2125 and 0.18, so the tilt jumps straight to dropping the wide
# symbol. Blocks of three recover the middle ground (see demo 04).
report("0.2063")

# Infeasible: even the cheapest supported symbol costs 0.18.
try:
    report("0.17")
except Exception as e:
    print(f"budget 0.17: {e}")
