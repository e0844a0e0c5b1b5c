"""Command-line front end.

Every command takes one `--seed` flag (default 0) and derives sub-streams
by a fixed counter scheme: curve chunks use SeedSequence((seed, chunk)),
`compare` prefixes its two curves with (seed, 271) and (seed, 577), and
`converge` draws size-n batches from (seed, 7919, index of n).  Output is
byte-identical for identical flags and does not depend on --threads.

Only the sampling commands (`gw`, `compare`, `converge`) import asymptotics,
and with it numpy; the others run on the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import lp, reduction
from .election import InvalidInput, Profile, parse_rule
from .exact import InstanceTooLarge, NotStrictWinner, mcs_outcome

# ValueError covers election.InvalidInput and json.JSONDecodeError.
VALIDATION_ERRORS = (ValueError, KeyError, OSError, NotStrictWinner, InstanceTooLarge)
NUMERICAL_ERRORS = (
    lp.NumericalFailure,
    lp.StatusMismatch,
    reduction.ZInfeasible,
    reduction.ConstructionFailed,
)
MAX_GRID_POINTS = 100_000


def parse_grid(spec: str):
    """Inclusive start:stop:step grid, e.g. 0:2.5:0.05."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidInput(f"grid must look like start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InvalidInput(f"grid needs finite numbers, got {spec!r}")
    if step <= 0:
        raise InvalidInput("grid step must be positive")
    if stop < start:
        raise InvalidInput("grid stop must not precede start")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise InvalidInput(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    count = int(span) + 1
    return [round(start + i * step, 10) for i in range(count)]


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _num(value):
    """JSON-safe number: plain floats, never inf."""
    if value == math.inf:
        return "unreachable"
    return float(value)


def cmd_polytope(args) -> int:
    rule = parse_rule(args.rule, args.m)
    poly = reduction.mw_polytope(rule)
    dots = reduction.cone_optimal_vertices(poly)
    sigma = rule.sigma
    extra = {
        "sigma_w": sigma,
        "sigma_scaled_vertices": reduction.sigma_scaled(poly, rule),
        "optimal_dots": [
            [str(Fraction(x)) if args.exact else float(x),
             str(Fraction(y)) if args.exact else float(y)]
            for x, y in dots
        ],
        "sigma_scaled_dots": [[float(x) * sigma, float(y) * sigma] for x, y in dots],
    }
    _emit(poly.to_json(args.rule, exact=args.exact, extra=extra), args.out)
    return 0


def cmd_gw(args) -> int:
    from . import asymptotics

    rule = parse_rule(args.rule, args.m)
    model = asymptotics.limit_model(rule)
    grid = parse_grid(args.grid)
    curve = asymptotics.gw_curve(model, grid, args.samples, args.seed, args.threads)
    _emit(asymptotics.curve_to_csv(curve, args.rule, args.m, args.seed), args.out)
    return 0


def cmd_compare(args) -> int:
    from . import asymptotics

    rule_a = parse_rule(args.rule_a, args.m)
    rule_b = parse_rule(args.rule_b, args.m)
    grid = parse_grid(args.grid) if args.grid else None
    report = asymptotics.dominates(
        rule_a, rule_b, grid=grid, samples=args.samples, seed=args.seed, threads=args.threads
    )
    payload = {
        "rule_a": args.rule_a,
        "rule_b": args.rule_b,
        "m": args.m,
        "verdict": report.verdict.value,
        "method": report.method,
        "coefficient_a": report.coefficient_a,
        "coefficient_b": report.coefficient_b,
        "notes": report.notes,
    }
    _emit(json.dumps(payload), args.out)
    return 0


def cmd_exact(args) -> int:
    with open(args.profile) as fh:
        profile = Profile.from_json(fh.read())
    rule = parse_rule(args.rule, profile.m)
    outcome = mcs_outcome(profile, rule, strict_win=args.strict_win)
    payload = {
        "rule": args.rule,
        "m": profile.m,
        "n": profile.n,
        "mcs": int(outcome.value) if outcome.value != math.inf else "unreachable",
        "target": outcome.target,
        "witness": outcome.plan.as_dict() if outcome.plan is not None else None,
    }
    _emit(json.dumps(payload), args.out)
    return 0


def cmd_converge(args) -> int:
    from . import asymptotics

    rule = parse_rule(args.rule, args.m)
    n_list = [int(v) for v in args.n_list.split(",") if v.strip()]
    if not n_list or any(n <= 0 for n in n_list):
        raise InvalidInput(f"--n-list needs positive sizes, got {args.n_list!r}")
    grid = parse_grid(args.grid)
    points = asymptotics.convergence_experiment(
        rule, n_list, args.trials, seed=args.seed, grid=grid,
        limit_samples=args.limit_samples, threads=args.threads,
    )
    _emit(asymptotics.convergence_to_csv(points, args.rule, args.m, args.seed, args.trials), args.out)
    return 0


def cmd_qvalue(args) -> int:
    rule = parse_rule(args.rule, args.m)
    parts = args.margins.split(",")
    if len(parts) != 2:
        raise InvalidInput(f"--margins needs two comma-separated numbers, got {args.margins!r}")
    try:
        a_margin, b_deficit = (Fraction(p.strip()) for p in parts)
    except ZeroDivisionError:
        raise InvalidInput(f"--margins has a zero denominator: {args.margins!r}") from None
    margins = reduction.MarginPair(a_margin, b_deficit)
    poly = reduction.mw_polytope(rule)
    q = reduction.q_dual(margins, poly)
    argmax = [] if q == math.inf else [
        [float(x), float(y)] for x, y in reduction.optimal_vertex_set(margins, poly)
    ]
    try:
        payload = {
            "rule": args.rule,
            "m": args.m,
            "margins": {"a_margin": float(a_margin), "b_deficit": float(b_deficit)},
            "scoreboard_valid": margins.scoreboard_valid(args.m),
            "q": _num(q),
            "optimal_vertices": argmax,
        }
    except OverflowError:
        raise InvalidInput(f"--margins {args.margins!r}: too large for a float") from None
    _emit(json.dumps(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalition-lp",
        description="Coalition sizes for positional voting rules: polytopes, "
        "limit curves, dominance, and exact search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write to this file instead of stdout")
        if threads:
            p.add_argument(
                "--threads", type=int, default=None,
                help="sampling pool size (default: COALITION_LP_THREADS or the usable CPUs)",
            )

    p = sub.add_parser("polytope", help="dual polytope with optimal-vertex dots")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="emit coordinates as fraction strings")
    common(p)
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("gw", help="Monte Carlo limit curve as CSV")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", default="0:2.5:0.05")
    p.add_argument("--samples", type=int, default=1_000_000)
    common(p, threads=True)
    p.set_defaults(fn=cmd_gw)

    p = sub.add_parser("compare", help="dominance verdict between two rules")
    p.add_argument("--rule-a", required=True)
    p.add_argument("--rule-b", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", default=None)
    p.add_argument("--samples", type=int, default=200_000)
    common(p, threads=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("exact", help="exact minimum coalition with witness")
    p.add_argument("--profile", required=True, help="profile JSON file")
    p.add_argument("--rule", required=True)
    p.add_argument("--strict-win", action="store_true",
                   help="require the target to finish strictly ahead of everyone")
    common(p)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("converge", help="finite-n distance to the limit curve")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated electorate sizes")
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--grid", default="0:2.5:0.05")
    p.add_argument("--limit-samples", type=int, default=1_000_000)
    common(p, threads=True)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("qvalue", help="two-variable dual value at given margins")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--margins", required=True, help="a_margin,b_deficit (fractions allowed)")
    common(p)
    p.set_defaults(fn=cmd_qvalue)

    return parser


def _check_counts(args):
    """Reject a negative --seed or a --threads below 1 before any work starts."""
    if args.seed < 0:
        raise InvalidInput(f"--seed must be non-negative, got {args.seed}")
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        raise InvalidInput(f"--threads must be at least 1, got {threads}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
