"""Command line front end.

Subcommands: constants, count, chimney, horoball, equidist, locate,
meansq, verify.  Every JSON payload echoes the parsed options, defaults
and --output included, under "config" (see _emit_json); CSV tables carry a
single header row and use '.' decimals and '\\n' line endings.  Exit codes:
0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import acceptance, equidist, moebius, orbits, randlat
from .latcount import CountingError, EllipsoidSpec, count_full, error_terms
from .quadform import HorocountError, QuadForm, constants

USAGE_ERROR = 2
CHECK_FAILURE = 1
MAX_STEPS = 10_000  # levels of one t-grid; see _t_grid


def _load_gram(spec: str, dim: int) -> QuadForm:
    if spec == "identity":
        return QuadForm.identity(dim)
    try:
        mat = np.loadtxt(spec, ndmin=2)
    except OSError as exc:
        raise CountingError(f"cannot read gram file {spec!r}: {exc}") from exc
    except ValueError as exc:
        raise CountingError(f"malformed gram file {spec!r}: {exc}") from exc
    if mat.shape != (dim, dim):
        raise CountingError(
            f"gram file {spec!r} has shape {mat.shape}, expected ({dim}, {dim})")
    return QuadForm.from_gram(mat)


def _emit_json(args, payload: dict, path: str | None):
    """Write the payload, after a "config" that echoes the parsed options
    (all but fn), to path, or print it."""
    config = {k: v for k, v in vars(args).items() if k != "fn"}
    text = json.dumps({"config": config, **payload}, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(header: str, rows: list[str], path: str | None):
    text = header + "\n" + "\n".join(rows) + ("\n" if rows else "")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    return repr(float(x))


def _t_grid(args) -> list[float]:
    """The --steps evenly spaced levels from --tmin to --tmax.

    Refused before any level is made when an end, or the distance between
    them, is not a finite float, or --steps is not in [1, MAX_STEPS].  A
    level costs at least its record and its CSV row, about 1 KB, so
    MAX_STEPS keeps a grid's own memory near 10 MB.
    """
    if not math.isfinite(args.tmax - args.tmin):
        raise HorocountError(f"--tmin and --tmax must be finite floats with a finite "
                             f"difference, got {args.tmin!r} and {args.tmax!r}")
    if not 1 <= args.steps <= MAX_STEPS:
        raise HorocountError(f"--steps must lie in [1, {MAX_STEPS}], got {args.steps}")
    return [float(t) for t in np.linspace(args.tmin, args.tmax, args.steps)]


# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    c = constants(args.dim)
    _emit_json(args, {
        "d": c.d,
        "lambda": c.lam,
        "mu": c.mu,
        "alpha": c.alpha,
        "omega": c.omega,
        "zeta": c.zeta,
        "C_d": c.c_d,
        "kappa_d": c.kappa_d,
        "kappa_per_volume": c.kappa_per_volume,
        "T_d": c.t_d,
        "exponents": {
            "thm11": c.exponent_interval,
            "thm12": c.exponent_pointwise,
            "edwards": c.exponent_edwards,
            "rh": c.exponent_rh,
        },
    }, args.output)
    return 0


def cmd_count(args) -> int:
    form = _load_gram(args.gram, args.dim)
    spec = EllipsoidSpec(form, args.radius)
    mode = "exact" if args.exact else "auto"
    start = time.perf_counter()
    if args.primitive:
        res = error_terms(spec, mode=mode)
    else:
        res = count_full(spec, mode=mode)
        cst = constants(args.dim)
        res.e0 = res.n0 - cst.omega * args.radius ** args.dim
    elapsed_ms = 1000.0 * (time.perf_counter() - start)
    _emit_json(args, {**dataclasses.asdict(res), "elapsed_ms": elapsed_ms}, args.output)
    return 0


def _emit_series(args, header: str, rows: list[str], series, envelope: bool,
                 **refs) -> int:
    """Write the table to --output, then print the config, the decay fit of
    the (t, rel_error) series (or its error, with null fields) and refs."""
    _emit_csv(header, rows, args.output)
    try:
        fit = orbits.fit_error_exponent(series, envelope=envelope)
        fit_payload = {"slope": fit.slope, "intercept": fit.intercept,
                       "r2": fit.r2, "n_points": fit.n_points}
    except CountingError as exc:
        fit_payload = {"slope": None, "intercept": None, "r2": None,
                       "error": str(exc)}
    _emit_json(args, {**fit_payload, **refs}, None)
    return 0


def cmd_sweep(args) -> int:
    """chimney or horoball, by args.subcommand; only chimney takes --sigma."""
    form = _load_gram(args.gram, args.dim)
    results = orbits.sweep(form, _t_grid(args), kind=args.subcommand,
                           sigma=getattr(args, "sigma", None))
    rows = [f"{_fmt(r.T)},{_fmt(r.R)},{r.count},{_fmt(r.predicted)},{_fmt(r.rel_error)}"
            for r in results]
    return _emit_series(args, "T,R,count,predicted,rel_error", rows,
                        [(r.T, r.rel_error) for r in results], args.envelope,
                        theory_slope=orbits.theory_slope(args.dim))


def cmd_equidist(args) -> int:
    if args.profile == "indicator":
        profile = equidist.indicator_profile(args.support)
    else:
        profile = equidist.bump_profile(args.support, args.plateau)
    try:
        nx, ny = (int(x) for x in args.base_grid.split(","))
    except ValueError as exc:
        raise HorocountError(f"--base-grid expects nx,ny, got {args.base_grid!r}") from exc
    q = equidist.QuadratureSpec(base_grid=(nx, ny))
    averages = equidist.horosphere_averages(_t_grid(args), profile, q, d=args.dim)
    rows = [f"{_fmt(a.t)},{_fmt(a.value)},{_fmt(a.target)},{_fmt(a.err)},{_fmt(a.quad_error_estimate)}"
            for a in averages]
    cst = constants(args.dim)
    return _emit_series(args, "t,value,target,err,quad_err", rows,
                        [(a.t, a.err) for a in averages], True,
                        theory_slope_thm12=-cst.exponent_pointwise,
                        theory_slope_thm11=-cst.exponent_interval,
                        edwards_slope=-cst.exponent_edwards)


def cmd_locate(args) -> int:
    try:
        data = np.loadtxt(args.series, delimiter=",", skiprows=args.skip_rows, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CountingError(f"cannot read series file {args.series!r}: {exc}") from exc
    if data.shape[1] < 2:
        raise CountingError("series file needs two columns: t, g(t)")
    hits = equidist.good_t_locator(data[:, 0], data[:, 1], args.alpha, args.beta,
                                   args.eps, args.kappa, args.ctilde)
    _emit_json(args, {
        "t0": equidist.locator_threshold_t0(args.alpha, args.beta, args.eps,
                                            args.kappa, args.ctilde),
        "n_hits": len(hits),
        "hits": hits,
    }, args.output)
    return 0


def cmd_meansq(args) -> int:
    rep = randlat.mean_square_check(args.dim, args.radius, args.samples,
                                    sampler=args.sampler, seed=args.seed)
    _emit_json(args, {
        "d": rep.d,
        "R": rep.radius,
        "n_samples": rep.n_samples,
        "mean_D2": rep.mean_d2,
        "std_error": rep.std_error,
        "bound": rep.bound,
        "mean_E1sq": rep.mean_e1sq,
        "bound_E1sq": rep.bound_e1sq,
        "passed": rep.passed,
        "degenerate": rep.degenerate,
    }, args.output)
    return 0 if rep.passed or rep.degenerate else CHECK_FAILURE


def cmd_verify(args) -> int:
    if args.target == "moebius":
        form = _load_gram(args.gram, args.dim)
        spec = EllipsoidSpec(form, args.radius)
        inv = moebius.verify_inversion(spec)
        rel = moebius.error_relation_check(spec)
        passed = inv.ok and rel.ok
        _emit_json(args, {
            "shell_identities": dataclasses.asdict(inv),
            "error_relations": {"ok": rel.ok,
                                "residual_full_from_primitive": rel.residual_full_from_primitive,
                                "residual_primitive_from_full": rel.residual_primitive_from_full,
                                "budget": rel.budget},
            "passed": passed,
        }, args.output)
        return 0 if passed else CHECK_FAILURE
    results = acceptance.run(args.suite)
    ok = all(r.passed for r in results)
    return 0 if ok else CHECK_FAILURE


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horocount",
        description="Lattice point counting in ellipsoids and horospherical "
                    "equidistribution checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="write the primary table/JSON here")

    p = sub.add_parser("constants", help="named constants for a dimension")
    p.add_argument("--dim", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("count", help="lattice points in a dilated ellipsoid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gram", default="identity", help="'identity' or a d x d text file")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--primitive", action="store_true")
    p.add_argument("--exact", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_count)

    for name, helptext in (("chimney", "orbit counting in truncated chimneys"),
                           ("horoball", "horosphere counting in balls")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--gram", default="identity")
        p.add_argument("--tmin", type=float, required=True)
        p.add_argument("--tmax", type=float, required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--envelope", action="store_true")
        if name == "chimney":
            p.add_argument("--sigma", type=int, default=None,
                           help="stabilizer order (required for d >= 5)")
        common(p)
        p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("equidist", help="horospherical averages over a t-grid")
    p.add_argument("--dim", type=int, required=True, choices=(2, 3))
    p.add_argument("--profile", choices=("indicator", "bump"), default="indicator")
    p.add_argument("--support", type=float, default=1.0)
    p.add_argument("--plateau", type=float, default=None)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--base-grid", default="16,24")
    common(p)
    p.set_defaults(fn=cmd_equidist)

    p = sub.add_parser("locate", help="good-t locator on a sampled series")
    p.add_argument("--series", required=True, help="CSV with columns t, g(t)")
    p.add_argument("--skip-rows", type=int, default=0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--ctilde", type=float, required=True)
    common(p)
    p.set_defaults(fn=cmd_locate)

    p = sub.add_parser("meansq", help="mean-square discrepancy Monte Carlo")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--sampler", choices=("exact", "walk"), default="exact")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    common(p)
    p.set_defaults(fn=cmd_meansq)

    p = sub.add_parser("verify", help="run the acceptance suite or a targeted check")
    p.add_argument("target", nargs="?", choices=("suite", "moebius"), default="suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--dim", type=int, default=2, help="dimension for targeted checks")
    p.add_argument("--gram", default="identity")
    p.add_argument("--radius", type=float, default=10.0)
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HorocountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
