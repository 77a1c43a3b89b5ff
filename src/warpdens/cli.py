"""Command-line front end.

Subcommands: fit (CSV sample -> density JSON), cfit (two-column CSV ->
conditional density JSON), bench (named benchmark -> CSV + JSON),
oracle (named analytic density -> constructive warp reconstruction).

Exit codes: 0 ok, 2 input or output error, 3 optimization failure,
4 domain or shape error, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bench as bench_mod
from .conditional import ConditionalFitConfig, fit_conditional
from .errors import (
    ConstraintError,
    DegenerateSampleError,
    DomainError,
    OptimizationError,
    WarpdensError,
    sample,
)
from .estimator import DensityEstimate, FitConfig, fit
from .geometry import unit_grid
from .templates import (
    GridDensity,
    ShapeSpec,
    build_template,
    group_action,
    oracle_reconstruct_warp,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OPTIM = 3
EXIT_DOMAIN = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _atomic_write_json(path: str, payload: dict) -> None:
    bench_mod._atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _read_csv_columns(path: str, ncols: int) -> np.ndarray:
    """Read numeric CSV columns; a single non-numeric first row is a header."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a BOM is not a header
            rows = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DegenerateSampleError(f"cannot read {path}: {exc}")
    if not rows:
        raise DegenerateSampleError(f"{path} is empty")
    start = 0
    first = rows[0].split(",")
    try:
        [float(v) for v in first[:ncols]]
    except ValueError:
        start = 1
    data = []
    for line in rows[start:]:
        parts = line.split(",")
        if len(parts) < ncols:
            raise DegenerateSampleError(f"{path}: expected {ncols} columns")
        try:
            data.append([float(v) for v in parts[:ncols]])
        except ValueError as exc:
            raise DegenerateSampleError(f"{path}: {exc}")
    if not data:
        raise DegenerateSampleError(f"{path} has no data rows")
    return np.asarray(data, float)


def _parse_shape(args) -> ShapeSpec:
    if args.shape is not None:
        pieces = tuple(tok.strip().lower() for tok in args.shape.split(","))
        return ShapeSpec(pieces, free_boundaries=args.free_boundaries)
    return ShapeSpec.modes(args.modes)


def _parse_support(text: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A,B, got {text!r}") from None
    return a, b


# the flag that sets each FitConfig field its errors name
_FLAGS = {"j_max": "--jmax", "restarts": "--restarts"}


def _fit_config(args, shape: ShapeSpec) -> FitConfig:
    try:
        return FitConfig(
            shape=shape,
            j_max=args.jmax,
            restarts=args.restarts,
            seed=args.seed,
            support=args.support,
        )
    except ConstraintError as exc:
        msg = str(exc)
        flags = " and ".join(f for key, f in _FLAGS.items() if key in msg)
        raise ConstraintError(f"{msg} (set by {flags})" if flags else msg) from None


def _estimate_payload(est: DensityEstimate) -> dict:
    a, b = est.support
    xs = np.linspace(a, b, 512)
    ps = est.pdf(xs)
    payload = {
        "schema": 1,
        "support": [a, b],
        "J": est.j,
        "aic": est.aic,
        "loglik": est.loglik,
        "lambda_hat": [float(v) for v in est.lambda_hat],
        "c_hat": [float(v) for v in est.c_hat.c],
        "curve": [{"x": float(x), "p": float(p)} for x, p in zip(xs, ps)],
    }
    if est.n_eff is not None:
        payload["n_eff"] = est.n_eff
    if est.bandwidth is not None:
        payload["bandwidth"] = est.bandwidth
    if est.x0 is not None:
        payload["x0"] = est.x0
    return payload


def _write_curve_csv(path: str, payload: dict) -> None:
    lines = ["x,p"] + [f"{pt['x']!r},{pt['p']!r}" for pt in payload["curve"]]
    bench_mod._atomic_write(path, "\n".join(lines) + "\n")


def cmd_fit(args) -> int:
    shape = _parse_shape(args)
    data = _read_csv_columns(args.input, 1)[:, 0]
    est = fit(data, _fit_config(args, shape))
    payload = _estimate_payload(est)
    _atomic_write_json(args.output, payload)
    if args.curve_csv:
        _write_curve_csv(args.curve_csv, payload)
    return EXIT_OK


def cmd_cfit(args) -> int:
    shape = _parse_shape(args)
    data = _read_csv_columns(args.input, 2)
    # finite before x0 is checked against the range
    sample(data.ravel(), DegenerateSampleError, "covariates and responses", 0)
    x, y = data[:, 0], data[:, 1]
    x0 = args.x0 if args.x0 is not None else float(np.median(x))
    if not (np.min(x) <= x0 <= np.max(x)):
        raise DomainError(f"x0 = {x0} outside the covariate range")
    cfg = ConditionalFitConfig(
        base=_fit_config(args, shape), x0=x0, neighbor_fraction=args.frac
    )
    est = fit_conditional(x, y, cfg)
    payload = _estimate_payload(est)
    _atomic_write_json(args.output, payload)
    if args.curve_csv:
        _write_curve_csv(args.curve_csv, payload)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.name == "list":
        for name in sorted(bench_mod.BENCHMARKS):
            print(name)
        return EXIT_OK
    if args.name not in bench_mod.BENCHMARKS:
        print(
            f"error: unknown benchmark {args.name!r}; valid names: "
            + ", ".join(sorted(bench_mod.BENCHMARKS)),
            file=sys.stderr,
        )
        return EXIT_USAGE
    spec = dataclasses.replace(
        bench_mod.BENCHMARKS[args.name], replicates=args.reps, seed=args.seed
    )
    n = args.n if args.n is not None else spec.sample_sizes[0]
    summary = bench_mod.run_benchmark(spec, n, out_dir=args.out_dir)
    print(
        f"{summary.name} n={summary.n}: "
        + " ".join(f"{k}={v:.4f}" for k, v in summary.mean.items())
    )
    return EXIT_OK


def _oracle_density(name: str, n: int) -> tuple[GridDensity, int]:
    t = unit_grid(n)
    if name == "beta22":
        return GridDensity.from_values(t, bench_mod.Beta(2, 2).pdf(t)), 1
    if name == "bimodal":
        vals = 0.6 * bench_mod.Beta(5, 12).pdf(t) + 0.4 * bench_mod.Beta(12, 5).pdf(t)
        return GridDensity.from_values(t, vals), 2
    if name == "template":
        tmpl = build_template(ShapeSpec.modes(2), [0.4, 0.8], omega=0.0, n=n)
        return GridDensity.from_values(t, tmpl.g), 2
    raise DomainError(
        f"unknown oracle density {name!r}; valid: beta22, bimodal, template"
    )


def cmd_oracle(args) -> int:
    p0, n_modes = _oracle_density(args.density, args.grid)
    shape = ShapeSpec.modes(args.modes)
    warp, lam = oracle_reconstruct_warp(p0, shape)
    tmpl = build_template(shape, lam, omega=0.0, n=args.grid)
    recon = group_action(tmpl, warp)
    linf = float(np.max(np.abs(recon.p - p0.p)))
    stride = max(1, args.grid // 512)
    payload = {
        "schema": 1,
        "density": args.density,
        "modes": args.modes,
        "lambda": [float(v) for v in lam],
        "reconstruction_linf": linf,
        "gamma": [
            {"t": float(t), "g": float(g)}
            for t, g in zip(warp.t[::stride], warp.gamma[::stride])
        ],
        "curve": [
            {"x": float(t), "p": float(p)}
            for t, p in zip(recon.t[::stride], recon.p[::stride])
        ],
    }
    _atomic_write_json(args.output, payload)
    return EXIT_OK


def _add_fit_flags(p: _Parser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--modes", type=int, help="number of modes M")
    group.add_argument("--shape", type=str, help='piece sequence, e.g. "inc,dec"')
    p.add_argument(
        "--free-boundaries", action="store_true",
        help="free the boundary antimodes; boundary modes are always free",
    )
    p.add_argument("--jmax", type=int, default=FitConfig.j_max)
    p.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.add_argument(
        "--support", type=_parse_support, default=None, metavar="A,B",
        help="fixed support; write --support=A,B when A is negative",
    )
    p.add_argument("--curve-csv", type=str, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="warpdens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a density from a one-column CSV")
    p_fit.add_argument("input")
    p_fit.add_argument("-o", "--output", required=True)
    _add_fit_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_cfit = sub.add_parser("cfit", help="conditional fit from an (x,y) CSV")
    p_cfit.add_argument("input")
    p_cfit.add_argument("-o", "--output", required=True)
    _add_fit_flags(p_cfit)
    p_cfit.add_argument("--x0", type=float, default=None)
    p_cfit.add_argument("--frac", type=float,
                        default=ConditionalFitConfig.neighbor_fraction)
    p_cfit.set_defaults(func=cmd_cfit)

    p_bench = sub.add_parser("bench", help="run a named benchmark (or 'list')")
    p_bench.add_argument("name")
    p_bench.add_argument("--n", type=int, default=None)
    p_bench.add_argument("--reps", type=int, default=bench_mod.BenchmarkSpec.replicates)
    p_bench.add_argument("--seed", type=int, default=bench_mod.BenchmarkSpec.seed)
    p_bench.add_argument("--out-dir", type=str, default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_or = sub.add_parser("oracle", help="constructive warp reconstruction")
    p_or.add_argument("density")
    p_or.add_argument("-o", "--output", required=True)
    p_or.add_argument("--modes", type=int, required=True)
    p_or.add_argument("--grid", type=int, default=4097)
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (DegenerateSampleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OptimizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPTIM
    except WarpdensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # a size too large to hold is an invalid setting
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
