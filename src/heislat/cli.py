"""Command line front end: every operation as a scriptable subcommand.

Exit codes: 0 success, 1 acceptance failure, 2 argument errors, 3 budget or
table errors.  Output is CSV or JSON (17 significant digits) to stdout or
the --out path.  All computations are deterministic; there is no seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import acceptance
from .arithmetic import BudgetError, shell_tables
from .distribution import cdf_and_moments, density
from .empirical import component_sum_l2_gap, sample_errors
from .lattice import as_fraction, count_points, normalized_error, volume_unit_ball
from .moments import density_moment, q2_closed, q_analytic, q_ergodic
from .phi import build_phi, partial_sum_phi
from .voronoi import gap_report

SCHEMA_VERSION = 1


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=_json_default)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit_csv(header: list[str], rows, out: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _apply_config(args) -> None:
    # config values fill in options the command line left unset
    for key, val in _load_config(getattr(args, "config", None)).items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, _coerce(val))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="heislat", description=__doc__)
    p.add_argument("--config", help="key=value defaults file")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="exact lattice point count in the dilated ball")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--x", help="dilation parameter, exact rational like 3/2 or 1.5")
    c.add_argument("--x2", help="square of the dilation parameter (for irrational x)")
    c.add_argument("--cache")
    c.add_argument("--out")

    c = sub.add_parser("error", help="normalized counting error at one dilation")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--x", required=True)
    c.add_argument("--cache")
    c.add_argument("--out")

    c = sub.add_parser("voronoi-gap", help="mean square gap to the truncated trig sum")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--X", type=int, required=True)
    c.add_argument("--samples", type=int, default=200)
    c.add_argument("--H", type=float)
    c.add_argument("--cache")
    c.add_argument("--out")

    c = sub.add_parser("phi", help="evaluate one almost periodic component")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--t", type=float, nargs="+", required=True)
    c.add_argument("--D", type=int, default=128)
    c.add_argument("--K", type=int, default=128)
    c.add_argument("--out")

    c = sub.add_parser("phi-sum", help="partial sum of components along sqrt(m) x^2")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--M", type=int, required=True)
    c.add_argument("--x", type=float, nargs="+", required=True)
    c.add_argument("--D", type=int, default=64)
    c.add_argument("--K", type=int, default=64)
    c.add_argument("--out")

    c = sub.add_parser("moments", help="component moment Q(m, l)")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--method", choices=["analytic", "ergodic", "closed2"], default="analytic")
    c.add_argument("--D", type=int)
    c.add_argument("--K", type=int)
    c.add_argument("--out")

    c = sub.add_parser("density-moment", help="moment of the limiting density")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--j", type=int, required=True)
    c.add_argument("--Mmax", type=int, default=300)
    c.add_argument("--out")

    c = sub.add_parser("density", help="limiting density by Fourier inversion")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--M", type=int, default=60)
    c.add_argument("--A", type=float)
    c.add_argument("--step", type=float)
    c.add_argument("--xmin", type=float)
    c.add_argument("--xmax", type=float)
    c.add_argument("--out", help="CSV path (x, P); metadata JSON goes to stdout")

    c = sub.add_parser("empirical", help="sampled error experiment over [X, 2X]")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--X", type=int, required=True)
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--M", type=int, default=0, help="also compute component-sum gaps up to M")
    c.add_argument("--cache")
    c.add_argument("--out", help="samples CSV path; JSON report goes to stdout")

    c = sub.add_parser("verify", help="run the acceptance suite")
    c.add_argument("--criteria", type=int, nargs="*", help="subset of criteria numbers")
    c.add_argument("--cache")

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _apply_config(args)
        return _dispatch(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "count":
        if (args.x is None) == (args.x2 is None):
            raise ValueError("give exactly one of --x and --x2")
        if args.x is not None:
            x4 = as_fraction(args.x) ** 4
        else:
            x4 = as_fraction(args.x2) ** 2
        limit = math.isqrt(x4.numerator // x4.denominator)
        tables = shell_tables(args.q, limit, args.cache)
        n = count_points(args.q, tables, x4=x4)
        if args.out:
            _emit({"schema": SCHEMA_VERSION, "count": n}, args.out)
        else:
            print(n)
        return 0
    if cmd == "error":
        x4 = as_fraction(args.x) ** 4
        limit = math.isqrt(x4.numerator // x4.denominator)
        tables = shell_tables(args.q, limit, args.cache)
        val = normalized_error(args.q, tables, x4=x4)
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "q": args.q,
                "x": str(args.x),
                "normalized_error": val,
                "volume": volume_unit_ball(args.q),
            },
            args.out,
        )
        return 0
    if cmd == "voronoi-gap":
        limit = (2 * args.X) ** 2
        tables = shell_tables(args.q, limit, args.cache)
        rep = gap_report(args.q, tables, args.X, args.samples, args.H)
        _emit({"schema": SCHEMA_VERSION, "q": args.q, "X": args.X, **asdict(rep)}, args.out)
        return 0
    if cmd == "phi":
        trunc = build_phi(args.q, args.m, args.D, args.K)
        vals = trunc(np.array(args.t))
        _emit_csv(["t", "phi"], zip(args.t, vals), args.out)
        return 0
    if cmd == "phi-sum":
        vals = partial_sum_phi(args.q, args.M, np.array(args.x), args.D, args.K)
        _emit_csv(["x", "phi_sum"], zip(args.x, vals), args.out)
        return 0
    if cmd == "moments":
        kwargs = {}
        if args.D:
            kwargs["d_max"] = args.D
        if args.K:
            kwargs["k_max"] = args.K
        if args.method == "analytic":
            mv = q_analytic(args.q, args.m, args.l, **kwargs)
        elif args.method == "ergodic":
            if args.D:
                kwargs["d_mod"] = kwargs.pop("d_max")
            mv = q_ergodic(args.q, args.m, args.l, **kwargs)
        else:
            if args.l != 2:
                raise ValueError("closed2 computes l = 2 only")
            mv = q2_closed(args.q, args.m, **kwargs)
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "value": mv.value,
                "method": mv.method,
                "error_estimate": mv.error,
                "truncation": mv.meta,
            },
            args.out,
        )
        return 0
    if cmd == "density-moment":
        mv = density_moment(args.q, args.j, m_max=args.Mmax)
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "value": mv.value,
                "method": mv.method,
                "error_estimate": mv.error,
                "truncation": mv.meta,
            },
            None,
        )
        return 0
    if cmd == "density":
        grid = density(
            args.q, m_max=args.M, A=args.A, step=args.step, x_min=args.xmin, x_max=args.xmax
        )
        report = cdf_and_moments(grid)
        if args.out:
            _emit_csv(["x", "P"], zip(grid.x, grid.p), args.out)
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "M": grid.m_max,
                "A": grid.cutoff,
                "sigma_step": grid.step,
                "x_step": grid.x_step,
                "tail_variance": grid.tail_variance,
                "error_budget": grid.error_budget,
                "moments": report["moments"],
                "abs_moments": report["abs_moments"],
            },
            None,
        )
        return 0
    if cmd == "empirical":
        limit = (2 * args.X) ** 2
        tables = shell_tables(args.q, limit, args.cache)
        series = sample_errors(args.q, tables, args.X, args.samples)
        report = {"schema": SCHEMA_VERSION, "q": args.q, "X": args.X, **series.stats()}
        if args.M:
            gaps = component_sum_l2_gap(
                args.q, tables, args.X, [args.M], n_samples=min(args.samples, 1500)
            )
            report["component_sum_gaps"] = {str(k): v for k, v in gaps.items()}
        if args.out:
            _emit_csv(["x", "err"], zip(series.x, series.err), args.out)
        _emit(report, None)
        return 0
    if cmd == "verify":
        results = acceptance.run_criteria(args.criteria, cache=args.cache)
        ok = True
        for name, passed, detail in results:
            print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")
            ok = ok and passed
        return 0 if ok else 1
    raise ValueError(f"unknown command {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
