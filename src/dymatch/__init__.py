"""Dyadic pmf matching under an average-cost constraint.

The core problem: given a target pmf t, per-symbol costs w, and a budget
S, find the dyadic pmf d (every probability a power of two) minimizing
kl(d || t) subject to w^T d <= S. Dyadic pmfs are exactly what a full
prefix-free code induces on parsed fair bits, so the minimizer doubles
as a code table; the pipeline module turns that into a complete
text-to-symbols encoder and back.

Layers, bottom up: pmf (types and exact arithmetic), ghc (unconstrained
dyadic matching), ccghc (the constrained search), simplex (the relaxed
problem and its tradeoff curve), blocks (blocklength extension and the
asymptotic gap), codes (prefix-code machinery), pipeline (end-to-end
encode and decode), facade (the reference installation's constants),
cli (the command line).
"""
from .blocks import (ChordConstruction, ConvergenceRecord,
                     achievability_check, chord, convergence_sweep, sweep_csv)
from .ccghc import CcGhcResult, ccghc, tilt
from .codes import (PrefixCode, SymbolAlphabet, canonical_code, load_code,
                    parse_code_table, verify_kraft)
from .errors import (CodeFormatError, ConvergenceError, DymatchError,
                     InfeasibleConstraintError, SizeCapError)
from .ghc import brute_force_dyadic, ghc
from .pipeline import (EncodeResult, FrequencyStats, compress_text,
                       decompress_bits, facade_stats, match_bits, run_facade,
                       unmatch_symbols)
from .pmf import (SIZE_CAP, CostVector, DyadicPmf, Pmf, as_fraction,
                  average_cost, average_cost_exact, kl_divergence,
                  kronecker_cost, kronecker_pmf)
from .simplex import (TiltedSolution, curve_csv, distance_cost_curve,
                      geometry_identity_residual, solve_simplex, tilted_pmf)

__version__ = "0.1.0"

__all__ = [
    "CcGhcResult", "ChordConstruction", "CodeFormatError",
    "ConvergenceError", "ConvergenceRecord", "CostVector", "DyadicPmf",
    "DymatchError", "EncodeResult", "FrequencyStats",
    "InfeasibleConstraintError", "Pmf", "PrefixCode", "SIZE_CAP",
    "SizeCapError", "SymbolAlphabet", "TiltedSolution",
    "achievability_check", "as_fraction", "average_cost",
    "average_cost_exact", "brute_force_dyadic", "canonical_code", "ccghc",
    "chord", "compress_text", "convergence_sweep", "curve_csv",
    "decompress_bits", "distance_cost_curve", "facade_stats",
    "geometry_identity_residual", "ghc", "kl_divergence", "kronecker_cost",
    "kronecker_pmf", "load_code", "match_bits", "parse_code_table",
    "run_facade", "solve_simplex", "sweep_csv", "tilt",
    "tilted_pmf", "unmatch_symbols", "verify_kraft",
]
