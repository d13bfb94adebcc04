"""Command line front end: every operation as a scriptable subcommand.

Exit codes: 0 success, 1 acceptance failure, 2 argument or path errors,
3 budget or table errors.  Output is CSV or JSON (17 significant digits) to
stdout or the --out path.  All computations are deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import acceptance
from .arithmetic import BudgetError, shell_tables
from .distribution import cdf_and_moments, density
from .empirical import component_sum_l2_gap, sample_errors
from .lattice import _x4_from_args, count_points, normalized_error, volume_unit_ball
from .moments import density_moment, q2_closed, q_analytic, q_ergodic, variance_series
from .phi import build_phi, partial_sum_phi
from .voronoi import gap_report

SCHEMA_VERSION = 1

_COMMANDS: list = []


def _command(name: str, help: str, *options, q=True, out=True, cache=False):
    """Register the decorated handler as subcommand `name` with its own options.

    q, out and cache say which shared options it takes; out may be --out's help.
    """

    def register(fn):
        _COMMANDS.append((name, help, fn, options, q, out, cache))
        return fn

    return register


def _opt(flag: str, **kwargs):
    return flag, kwargs


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    _write(json.dumps(payload, indent=2, default=_json_default) + "\n", out)


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit_csv(header: list[str], rows, out: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    _write("\n".join(lines) + "\n", out)


def _moment_payload(mv) -> dict:
    return {"value": mv.value, "method": mv.method, "error_estimate": mv.error,
            "truncation": mv.meta}


def _x4_and_tables(args):
    """x^4 from --x or --x2, and shell tables reaching floor(x^2)."""
    x4 = _x4_from_args(args.x, vars(args).get("x2"))
    return x4, shell_tables(args.q, math.isqrt(x4.numerator // x4.denominator), args.cache)


def _window_tables(args):
    """Shell tables for dilations in [X, 2X]."""
    return shell_tables(args.q, (2 * args.X) ** 2, args.cache)


@_command("count", "exact lattice point count in the dilated ball",
          _opt("--x", help="dilation parameter, exact rational like 3/2 or 1.5"),
          _opt("--x2", help="square of the dilation parameter (for irrational x)"), cache=True)
def _count(args):
    x4, tables = _x4_and_tables(args)
    n = count_points(args.q, tables, x4=x4)
    if args.out:
        _emit({"count": n}, args.out)
    else:
        print(n)


@_command("error", "normalized counting error at one dilation",
          _opt("--x", required=True), cache=True)
def _error(args):
    x4, tables = _x4_and_tables(args)
    val = normalized_error(args.q, tables, x4=x4)
    vol = volume_unit_ball(args.q)
    _emit({"q": args.q, "x": str(args.x), "normalized_error": val, "volume": vol}, args.out)


@_command("voronoi-gap", "mean square gap to the truncated trig sum",
          _opt("--X", type=int, required=True), _opt("--samples", type=int, default=200),
          _opt("--H", type=float), cache=True)
def _voronoi_gap(args):
    rep = gap_report(sample_errors(args.q, _window_tables(args), args.X, args.samples), args.H)
    _emit({"q": args.q, "X": args.X, **asdict(rep)}, args.out)


@_command("phi", "evaluate one almost periodic component",
          _opt("--m", type=int, required=True), _opt("--t", type=float, nargs="+", required=True),
          _opt("--D", type=int, default=128), _opt("--K", type=int, default=128))
def _phi(args):
    vals = build_phi(args.q, args.m, args.D, args.K)(np.array(args.t))
    _emit_csv(["t", "phi"], zip(args.t, vals), args.out)


@_command("phi-sum", "partial sum of components along sqrt(m) x^2",
          _opt("--M", type=int, required=True), _opt("--x", type=float, nargs="+", required=True),
          _opt("--D", type=int, default=64), _opt("--K", type=int, default=64))
def _phi_sum(args):
    vals = partial_sum_phi(args.q, args.M, np.array(args.x), args.D, args.K)
    _emit_csv(["x", "phi_sum"], zip(args.x, vals), args.out)


@_command("moments", "component moment Q(m, l)",
          _opt("--m", type=int, required=True), _opt("--l", type=int, required=True),
          _opt("--method", choices=["analytic", "ergodic", "closed2"], default="analytic"),
          _opt("--D", type=int), _opt("--K", type=int))
def _moments(args):
    # --D is the modulus of the ergodic route and the depth of the other two
    d_name = "d_mod" if args.method == "ergodic" else "d_max"
    kwargs = {k: v for k, v in ((d_name, args.D), ("k_max", args.K)) if v is not None}
    if args.method == "analytic":
        mv = q_analytic(args.q, args.m, args.l, **kwargs)
    elif args.method == "ergodic":
        mv = q_ergodic(args.q, args.m, args.l, **kwargs)
    elif args.method != "closed2":  # a --config value skips argparse's choices check
        raise ValueError(f"unknown method {args.method!r}")
    elif args.l != 2:
        raise ValueError("closed2 computes l = 2 only")
    else:
        mv = q2_closed(args.q, args.m, **kwargs)
    _emit(_moment_payload(mv), args.out)


@_command("density-moment", "moment of the limiting density",
          _opt("--j", type=int, required=True), _opt("--Mmax", type=int, default=300))
def _density_moment(args):
    _emit(_moment_payload(density_moment(args.q, args.j, m_max=args.Mmax)), args.out)


@_command("density", "limiting density by Fourier inversion",
          _opt("--M", type=int, default=60), _opt("--A", type=float), _opt("--step", type=float),
          _opt("--xmin", type=float), _opt("--xmax", type=float),
          out="CSV path (x, P); metadata JSON goes to stdout")
def _density(args):
    grid = density(args.q, m_max=args.M, A=args.A, step=args.step, x_min=args.xmin, x_max=args.xmax)
    report = cdf_and_moments(grid)
    variance = variance_series(args.q)  # the closure's target, cached by density
    if args.out:
        _emit_csv(["x", "P"], zip(grid.x, grid.p), args.out)
    _emit({"M": grid.m_max, "d_mod": grid.d_mod, "k_max": grid.k_max, "A": grid.cutoff,
           "sigma_step": grid.step, "x_step": grid.x_step, "tail_variance": grid.tail_variance,
           "variance": {"value": variance.value, "error": variance.error, **variance.meta},
           "error_budget": grid.error_budget, "moments": report["moments"],
           "abs_moments": report["abs_moments"]}, None)


@_command("empirical", "sampled error experiment over [X, 2X]",
          _opt("--X", type=int, required=True), _opt("--samples", type=int, required=True),
          _opt("--M", type=int, default=0, help="also compute component-sum gaps up to M"),
          out="samples CSV path; JSON report goes to stdout", cache=True)
def _empirical(args):
    tables = _window_tables(args)
    series = sample_errors(args.q, tables, args.X, args.samples)
    report = {"q": args.q, "X": args.X, **series.stats()}
    if args.M:
        window = series if args.samples <= 1500 else sample_errors(args.q, tables, args.X, 1500)
        gaps = component_sum_l2_gap(window, [args.M])
        report["component_sum_gaps"] = {str(k): v for k, v in gaps.items()}
    if args.out:
        _emit_csv(["x", "err"], zip(series.x, series.err), args.out)
    _emit(report, None)


@_command("verify", "run the acceptance suite",
          _opt("--criteria", type=int, nargs="*", help="subset of criteria numbers"),
          q=False, out=False, cache=True)
def _verify(args):
    ok = True
    for name, passed, detail, seconds in acceptance.run_criteria(args.criteria, cache=args.cache):
        print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}  ({seconds:.1f} s)")
        ok = ok and passed
    return 0 if ok else 1


def _load_config(path: str) -> dict:
    """key = value lines; blank lines, # comments and lines without = are skipped."""
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    pairs = (line.split("=", 1) for line in lines if "=" in line and not line.startswith("#"))
    return {key.strip(): val.strip() for key, val in pairs}


# a negative number in any float notation, -inf and -nan too: argparse's own pattern
# has no exponent and takes -1e-9 for a flag
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The heislat parser; config values become defaults of the options they name."""
    p = argparse.ArgumentParser(prog="heislat", description=__doc__)
    p.add_argument("--config", help="key=value defaults file")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help, fn, options, q, out, cache in _COMMANDS:
        c = sub.add_parser(name, help=help)
        c._negative_number_matcher = _NEGATIVE_NUMBER
        head = [_opt("--q", type=int, required=True)] if q else []
        tail = [_opt("--cache")] if cache else []
        if out:
            tail.append(_opt("--out", help=None if out is True else out))
        actions = {a.dest: a for a in (c.add_argument(flag, **kw) for flag, kw in (*head, *options, *tail))}
        # argparse types a string default itself; a multi-value one is split and typed here
        defaults = {k: v for k, v in (config or {}).items() if k in actions}
        for k in [k for k in defaults if actions[k].nargs in ("+", "*")]:
            defaults[k] = [actions[k].type(part) for part in defaults[k].split()]
        c.set_defaults(run=fn, **defaults)
    return p


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            args = build_parser(_load_config(args.config)).parse_args(argv)
        return args.run(args) or 0
    except SystemExit as exc:  # argparse has printed the usage error
        return exc.code if isinstance(exc.code, int) else 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, TypeError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
