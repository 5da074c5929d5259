"""Command line interface.

Subcommands mirror the library: match (cost-constrained dyadic search),
optimal (simplex relaxation), curve (tradeoff CSV), sweep (blocklength
convergence CSV), encode and decode (the text pipeline), verify (code
table checks). Exit codes: 0 success, 2 infeasible constraint, 3 parse
or format error, 4 size cap.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .blocks import convergence_sweep, sweep_csv
from .ccghc import DEFAULT_EPS, ccghc
from .codes import SymbolAlphabet, canonical_code, format_code_table, \
    load_code, parse_code_table, prefix_violations, verify_kraft
from .errors import CodeFormatError, DymatchError, InfeasibleConstraintError, \
    SizeCapError
from .facade import SLAT_ALPHABET
from .pipeline import decompress_bits, run_facade, unmatch_symbols
from .pmf import CostVector, Pmf, as_fraction, kronecker_cost, kronecker_pmf
from .simplex import curve_csv, distance_cost_curve, solve_simplex


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which collides with the
    # infeasible-constraint exit; route usage errors to 3 instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _load_pmf(path) -> Pmf:
    return Pmf.from_json(Path(path).read_text(encoding="utf-8"))


def _load_costs(path) -> CostVector:
    return CostVector.from_json(Path(path).read_text(encoding="utf-8"))


def _parse_alphabet(spec: Optional[str], m: int) -> tuple:
    """Symbol tokens from a CLI flag: comma-separated, or one char each."""
    if spec is None:
        if m <= 26:
            return tuple("abcdefghijklmnopqrstuvwxyz"[:m])
        raise ValueError(f"no default alphabet for {m} symbols; use --alphabet")
    tokens = tuple(spec.split(",")) if "," in spec else tuple(spec)
    if len(tokens) != m:
        raise ValueError(f"alphabet has {len(tokens)} tokens, expected {m}")
    return tokens


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {spec!r}")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    if not a < b:
        raise ValueError(f"grid start {a} must be below stop {b}")
    return np.linspace(a, b, n)


def _cmd_match(args) -> int:
    t = _load_pmf(args.target)
    w = _load_costs(args.costs)
    if len(t) != len(w):
        raise ValueError(f"target has {len(t)} symbols, costs {len(w)}")
    k = args.block
    if k < 1:
        raise ValueError("block length must be positive")
    S = as_fraction(args.budget)
    tokens = _parse_alphabet(args.alphabet, len(t))
    if k > 1 and any(len(tok) != 1 for tok in tokens):
        raise ValueError("block extension needs single-character symbols")
    # the size cap is checked before any block is named
    target = kronecker_pmf(t, k)
    costs = kronecker_cost(w, k)
    blocks = tuple("".join(p) for p in itertools.product(tokens, repeat=k))
    res = ccghc(target, costs, k * S, eps=args.eps)
    # a result that has no code table, or a table the file format cannot
    # spell, fails before any output
    table = format_code_table(canonical_code(res.d, SymbolAlphabet(blocks)))
    payload = res.to_dict()
    payload["block"] = k
    payload["per_symbol"] = {"cost": float(res.cost_exact / k),
                             "kl": res.kl / k}
    print(json.dumps(payload, indent=2))
    print()
    sys.stdout.write(table)
    return 0


def _cmd_optimal(args) -> int:
    t = _load_pmf(args.target)
    w = _load_costs(args.costs)
    sol = solve_simplex(t, w, float(as_fraction(args.budget)))
    print(json.dumps({
        "p_star": [float(p) for p in sol.p_star],
        "lambda": sol.lam,
        "E": sol.E,
        "D": sol.D,
    }, indent=2))
    return 0


def _cmd_curve(args) -> int:
    t = _load_pmf(args.target)
    w = _load_costs(args.costs)
    points = distance_cost_curve(t, w, _parse_grid(args.grid))
    sys.stdout.write(curve_csv(points))
    return 0


def _cmd_sweep(args) -> int:
    t = _load_pmf(args.target)
    w = _load_costs(args.costs)
    records = convergence_sweep(t, w, as_fraction(args.budget), args.kmax,
                                eps=args.eps)
    sys.stdout.write(sweep_csv(records))
    return 0


def _cmd_encode(args) -> int:
    text = Path(args.text).read_text(encoding="utf-8").rstrip("\n")
    source = load_code(args.source_code)
    matcher = load_code(args.matcher)
    w = _load_costs(args.costs)
    if args.alphabet is None and len(w) == len(SLAT_ALPHABET):
        alphabet = SLAT_ALPHABET
    else:
        alphabet = SymbolAlphabet(_parse_alphabet(args.alphabet, len(w)))
    res = run_facade(text, source, matcher, w, args.slats, alphabet)
    sys.stdout.write(res.symbols + "\n")
    stats = {"symbols": len(res.symbols), "bit_count": res.bit_count,
             "pad_bits": res.pad_bits}
    if res.stats is not None:
        stats["effective_freqs"] = [float(p) for p in
                                    res.stats.effective_freqs]
        stats["effective_cost"] = res.stats.effective_cost
        stats["bit_balance"] = res.stats.bit_balance
        stats["shadowing"] = res.stats.shadowing
    print(json.dumps(stats, indent=2), file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    symbols = "".join(Path(args.slats).read_text(encoding="utf-8").split())
    matcher = load_code(args.matcher)
    source = load_code(args.source_code)
    bits = unmatch_symbols(symbols, matcher, args.bits)
    print(decompress_bits(bits, source))
    return 0


def _cmd_verify(args) -> int:
    pairs = parse_code_table(Path(args.code).read_text(encoding="utf-8"))
    kraft = verify_kraft(pairs)
    violations = [f"{a} ({sa}) is a prefix of {b} ({sb})"
                  for (sa, a), (sb, b) in prefix_violations(pairs)]
    print(f"entries:     {len(pairs)}")
    print(f"max length:  {max(len(b) for _, b in pairs)}")
    if kraft == 1:
        status = "complete"
    elif kraft < 1:
        status = f"incomplete, deficit {1 - kraft}"
    else:
        status = "exceeds 1: not realizable as a prefix code"
    print(f"kraft sum:   {kraft} ({status})")
    print(f"prefix-free: {'yes' if not violations else 'no'}")
    for v in violations:
        print(f"  {v}")
    return 0 if not violations and kraft <= 1 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dymatch",
                     description="Cost-constrained dyadic pmf matching and "
                                 "the text-to-symbols pipeline built on it.")
    sub = parser.add_subparsers(dest="command", required=True)

    def instance(p, budget=True):
        p.add_argument("--target", required=True,
                       help="target pmf, JSON array file")
        p.add_argument("--costs", required=True,
                       help="per-symbol costs, JSON array file")
        if budget:
            p.add_argument("--budget", required=True,
                           help="average cost bound per symbol")

    p = sub.add_parser("match", help="constrained dyadic match via ccGhc")
    instance(p)
    p.add_argument("--block", type=int, default=1,
                   help="blocklength for the Kronecker extension")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS,
                   help="bisection bracket tolerance")
    p.add_argument("--alphabet", default=None,
                   help="symbol tokens, comma separated or one char each")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("optimal", help="simplex-relaxed optimum")
    instance(p)
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("curve", help="distance-cost tradeoff CSV")
    instance(p, budget=False)
    p.add_argument("--grid", required=True, help="budgets as start:stop:count")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("sweep", help="blocklength convergence CSV")
    instance(p)
    p.add_argument("--kmax", type=int, required=True,
                   help="largest blocklength")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS,
                   help="bisection bracket tolerance")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("encode", help="text to symbol stream")
    p.add_argument("--text", required=True, help="input text file")
    p.add_argument("--source-code", required=True, help="source code table")
    p.add_argument("--matcher", required=True, help="matcher code table")
    p.add_argument("--costs", required=True, help="per-symbol costs JSON")
    p.add_argument("--slats", type=int, default=None,
                   help="fit the stream to exactly this many symbols")
    p.add_argument("--alphabet", default=None,
                   help="symbol tokens in cost order (default: l,r,m)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="symbol stream back to text")
    p.add_argument("--slats", required=True, help="symbol stream file")
    p.add_argument("--matcher", required=True, help="matcher code table")
    p.add_argument("--source-code", required=True, help="source code table")
    p.add_argument("--bits", type=int, required=True,
                   help="compressed bit count, strips the padding")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="Kraft and prefix-freeness report")
    p.add_argument("--code", required=True, help="code table file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except InfeasibleConstraintError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SizeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (CodeFormatError, json.JSONDecodeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DymatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
