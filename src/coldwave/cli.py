"""Command-line front end.

Subcommands cover every module: stix, dispersion, cutoffs, resonances,
typemap, characteristics, origin-chars, symbol-check, layered, solve,
solve-mixed, energy-check, illposedness.  Outputs are deterministic:
identical configuration and seed give byte-identical files.

Exit codes: 0 success; 1 a usage error, invalid input or an
InvalidConfiguration; 2 a NumericalFailure, out of memory or an internal
error; 3 a CheckFailed, or a failed symbol-check or energy-check.  The
kind of a toolkit error (``errors``) sets its stderr prefix and code.

Importing this module loads numpy, ``config``, ``output`` and ``errors``
only: each command imports the numerical modules it runs when called.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import config as cfg
from . import output
from .errors import (EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_NUMERICAL,
                     EXIT_OK, ColdwaveError)

# Largest symbol-check --kmax: |k|^6, and 64 |k|^6 for the doubled k,
# stay far below the float range.
KMAX_LIMIT = 1e40


def _note(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _load_plasma(path):
    """The plasma configuration in the file ``path``; a ValueError
    that refuses it names the file."""
    data = cfg.load_json(path)
    try:
        return cfg.parse_plasma(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_stix(args):
    from . import plasma

    pl = _load_plasma(args.plasma)
    st = plasma.stix_parameters(pl, args.omega, resonance_rtol=args.tol)
    output.write_json(
        {"R": st.R, "L": st.L, "s": st.s, "d": st.d, "p": st.p}, args.out)
    return EXIT_OK


def cmd_dispersion(args):
    from . import dispersion

    pl = _load_plasma(args.plasma)
    output.write_csv(dispersion.SCAN_HEADER,
                     _scan_blocks(pl, args.omegas, args.thetas, args.tol),
                     args.out)
    return EXIT_OK


def _scan_blocks(pl, omegas, thetas, tol):
    """Column blocks of the dispersion scan, computed about BLOCK_ROWS
    rows (whole omegas) at a time; the scan is elementwise, so each block
    equals the same rows of one full scan."""
    from . import dispersion

    step = max(1, output.BLOCK_ROWS // len(thetas))
    for k in range(0, len(omegas), step):
        yield tuple(dispersion.dispersion_scan(
            pl, omegas[k:k + step], thetas, resonance_rtol=tol).values())


def cmd_cutoffs(args):
    from . import dispersion

    pl = _load_plasma(args.plasma)
    found = dispersion.cutoff_frequencies(pl, args.bracket)
    if args.format == "csv":
        omegas = np.array([w for w, _ in found], dtype=float)
        codes = np.array(["PRL".index(which) for _, which in found],
                         dtype=np.intp)
        output.write_csv("omega,which",
                         [(omegas, (np.array(list("PRL")), codes))], args.out)
    else:
        output.write_json(
            [{"omega": w, "which": which} for w, which in found], args.out)
    return EXIT_OK


def cmd_resonances(args):
    from . import dispersion

    pl = _load_plasma(args.plasma)
    res = dispersion.hybrid_resonances(pl, args.bracket)
    if args.format == "csv":
        output.write_csv("omega", [(np.array(res.roots, float),)], args.out)
    else:
        output.write_json(
            {"roots": list(res.roots),
             "lower_hybrid_estimate": res.lower_hybrid_estimate}, args.out)
    return EXIT_OK


def cmd_typemap(args):
    from . import electrostatics

    k11, k33 = cfg.parse_fields(cfg.load_json(args.fields))
    x0, x1, z0, z1 = args.box
    xs, zs = np.linspace(x0, x1, args.nx), np.linspace(z0, z1, args.nz)
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    v11, v33 = (np.real(k(X, Z)).astype(float) for k in (k11, k33))
    kinds = electrostatics.type_from_product(v11, v33)
    # NaN samples are skipped, as a running min() would skip them
    k33_min = np.min(v33, initial=np.inf, where=~np.isnan(v33))
    if k33_min <= 0.0:
        _note(args, f"warning: K33 reaches {k33_min:g} <= 0; the type map "
                    "assumes strictly positive K33")
    output.write_csv("x,z,K11,K33,type", [(
        (xs, np.repeat(np.arange(args.nx), args.nz)),
        (zs, np.tile(np.arange(args.nz), args.nx)),
        *(a.ravel() for a in (v11, v33, kinds)))], args.out)
    return EXIT_OK


def cmd_characteristics(args):
    from . import typegeometry

    path = typegeometry.trace_characteristic(
        args.start, args.branch, args.step, domain=args.box,
        max_steps=args.max_steps)
    n = len(path.points)
    output.write_csv("branch,step,x,y", [(
        (np.array([path.branch]), np.zeros(n, np.intp)), np.arange(n),
        *path.points.T)], args.out)
    _note(args, f"termination: {path.termination} ({n} points)")
    return EXIT_OK


def cmd_origin_chars(args):
    from . import typegeometry

    oc = typegeometry.origin_characteristics()
    output.write_json({
        "coefficients": list(oc.polynomial),
        "roots": list(oc.roots),
        "count": oc.count,
    }, args.out)
    return EXIT_OK


def cmd_symbol_check(args):
    from . import plasma, typegeometry

    if args.plasma:
        pl = _load_plasma(args.plasma)
        if args.omega is None:
            raise ValueError("--omega is required with --plasma")
        K = plasma.dielectric_tensor(plasma.stix_parameters(
            pl, args.omega, resonance_rtol=args.tol))
    elif args.omega is not None:
        raise ValueError("--omega requires --plasma")
    else:
        K = plasma.dielectric_tensor(plasma.StixParameters.vacuum())
    rng = np.random.default_rng(args.seed)
    records = []
    all_pass = True
    for _ in range(args.trials):
        k = rng.uniform(-args.kmax, args.kmax, 3)
        _, det = typegeometry.curl_curl_symbol(k)
        sigma = typegeometry.coulomb_gauge_symbol(K, k)
        sigma2 = typegeometry.coulomb_gauge_symbol(K, 2.0 * k)
        nk = float(np.linalg.norm(k))
        det_ok = abs(det) <= 1e-12 * max(1.0, nk ** 6)
        hom_ok = abs(sigma2 - 64.0 * sigma) <= 1e-10 * max(abs(64.0 * sigma),
                                                           1e-300)
        ok = bool(det_ok and hom_ok)
        all_pass &= ok
        records.append({"k": list(k), "det": det,
                        "sigma": float(sigma.real), "pass": ok})
    output.write_json(records, args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_layered(args):
    from . import electrostatics

    problem = cfg.parse_layered(cfg.load_json(args.layered))
    sol = electrostatics.integrate_layered(problem, complex(*args.psi0),
                                           args.x0, args.x1)
    output.write_csv("x,psi_re,psi_im",
                     [(sol.xs, sol.psi.real, sol.psi.imag)], args.out)
    _note(args, f"accepted at {sol.steps} cells")
    return EXIT_OK


def _write_solution(args, header, sol, arrays):
    """Solution CSV, one row per inside node of ``sol.grid`` in row-major
    order, and the run summary (to --summary, else a stderr note)."""
    i, j = np.nonzero(sol.grid.inside)
    output.write_csv(header, [((sol.grid.xs, i), (sol.grid.ys, j),
                               *(a[i, j] for a in arrays))], args.out)
    summary = {"residual_norm": sol.residual_norm,
               "condition_estimate": sol.condition_estimate,
               "rank": sol.rank, **sol.norms, **sol.diagnostics}
    if args.summary:
        output.write_json(summary, args.summary)
    else:
        _note(args, output.json_text(summary))
    return EXIT_OK


def cmd_solve(args):
    from .solvers import solve_closed_dirichlet

    problem, (nx, ny) = cfg.parse_problem(cfg.load_json(args.problem))
    sol = solve_closed_dirichlet(problem, nx, ny)
    return _write_solution(args, "x,y,u", sol, [sol.values])


def cmd_solve_mixed(args):
    from .multipliers import MixedMultiplierSpec
    from .solvers import solve_mixed

    problem, (nx, ny) = cfg.parse_problem(cfg.load_json(args.problem))
    spec = MixedMultiplierSpec(problem.domain, mu=args.mu, delta=args.mdelta)
    sol = solve_mixed(problem, nx, ny, spec)
    return _write_solution(args, "x,y,u1,u2", sol, sol.values)


def cmd_energy_check(args):
    from .grid import Domain, Grid2D
    from .multipliers import (BUMP_DEGREE, MultiplierSpec, bump_coefficients,
                              bump_gram)

    kappa, delta, nx = args.kappa, args.delta, args.nx
    domain = Domain.rectangle(*args.box)
    rng = np.random.default_rng(args.seed)
    grids = [Grid2D(domain, nx, nx), Grid2D(domain, 2 * nx - 1, 2 * nx - 1)]
    spec = MultiplierSpec(kappa, domain, delta=delta,
                          delta_tilde=args.delta_tilde)
    grams = [bump_gram(g, spec) for g in grids]
    bound = delta * args.bound_factor
    alphas = bump_coefficients(rng, args.trials)
    coarse, fine = (gram.ratios(alphas) for gram in grams)
    ratios = np.minimum(coarse, fine)
    try:
        span_min, alpha = grams[0].span_minimum()
        span = {"span_min_ratio": span_min,
                "span_minimizer": alpha.reshape(BUMP_DEGREE + 1, -1).tolist(),
                "span_min_ratio_refined": float(grams[1].ratios([alpha])[0])}
    except np.linalg.LinAlgError:  # W singular: a bump vanishes at every node
        span = dict.fromkeys(("span_min_ratio", "span_minimizer",
                              "span_min_ratio_refined"))
    ok = bool(ratios.min() >= bound)
    output.write_json({
        "kappa": kappa, "delta": delta, "trials": args.trials,
        "bound": bound, "min_ratio": float(ratios.min()),
        "max_two_resolution_gap": float(np.abs(coarse - fine).max()),
        "warnings": list(spec.warnings),
        "pass": ok, "ratios": ratios.tolist(), **span,
    }, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_illposedness(args):
    from .solvers import illposedness_diagnostic

    problem, _ = cfg.parse_problem(cfg.load_json(args.problem))
    diag = illposedness_diagnostic(problem, args.levels)
    output.write_json([{"h": h, "cond": c} for h, c in diag], args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Every usage error, before or after the subcommand name, prints the
    usage and exits EXIT_INVALID (argparse's own code, 2, means a
    numerical failure here).  Subparsers are built with this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"error: {message}\n")


def _positive(kind, limit=math.inf):
    """argparse type converting with ``kind`` (float, or int for counts)
    and rejecting values that are not > 0, not finite or above ``limit``."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value > limit:
            raise argparse.ArgumentTypeError(
                f"must be at most {limit:g}, got {text!r}")
        return value
    return convert


def _floats(text, sep, count, what, form):
    """The ``count`` finite floats of a ``sep``-separated argument;
    ``what`` and ``form`` name it and its form in the messages."""
    try:
        values = tuple(float(v) for v in text.split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {what}: {text!r}") from None
    if len(values) != count:
        raise argparse.ArgumentTypeError(f"must be {form}, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return values


def _bracket(text):
    """argparse type of cutoffs and resonances --bracket ('low:high'):
    two finite floats with 0 < low < high."""
    lo, hi = _floats(text, ":", 2, "bracket", "'low:high'")
    if not 0.0 < lo < hi:
        raise argparse.ArgumentTypeError(
            f"must have 0 < low < high, got {text!r}")
    return lo, hi


def _angle(token):
    """An angle in radians from '1.2', '1.2rad' or '60deg'."""
    token = token.strip()
    if token.endswith("deg"):
        return math.radians(float(token[:-3]))
    return float(token.removesuffix("rad"))


def _grid(what, value=float, positive=False):
    """argparse type of a grid, 'a,b,c' (each entry read by ``value``) or
    'start:stop:count[:lin|:log]' (np.linspace, or np.geomspace of
    positive endpoints): its float64 values, each finite (and > 0 with
    ``positive``); ``what`` names it in the messages."""
    def convert(text):
        parts = text.split(":")
        log = parts[3:] == ["log"]
        if len(parts) not in (1, 3, 4) or parts[3:] not in ([], ["lin"],
                                                            ["log"]):
            raise argparse.ArgumentTypeError(
                f"must be 'a,b,c' or start:stop:count[:log], got {text!r}")
        try:   # a count numpy cannot allocate raises ValueError too
            if len(parts) == 1:
                values = np.array([value(t) for t in text.split(",")])
            else:   # stop - start overflows where np.linspace would
                start, stop, count = (value(parts[0]), value(parts[1]),
                                      int(parts[2]))
                values = np.array([start, stop, stop - start])
            if not np.isfinite(values).all():
                raise argparse.ArgumentTypeError(
                    f"must be finite, got {text!r}")
            if len(parts) > 1:
                if count < 1:
                    raise argparse.ArgumentTypeError(
                        f"count must be >= 1, got {text!r}")
                if log and not (start > 0.0 and stop > 0.0):
                    raise argparse.ArgumentTypeError(
                        f"log spacing needs positive endpoints, got {text!r}")
                values = (np.geomspace if log else np.linspace)(
                    start, stop, count)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {what}: {text!r}") from None
        if positive and not (values > 0.0).all():
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        return values
    return convert


def _point(text):
    """argparse type of characteristics --start ('x,y') and layered
    --psi0 ('re,im'): two finite floats."""
    return _floats(text, ",", 2, "point", "'x,y'")


def _box(text):
    """argparse type of --box ('x0:x1:y0:y1'): four finite floats with
    x0 < x1 and y0 < y1."""
    box = _floats(text, ":", 4, "box", "x0:x1:y0:y1")
    if not (box[0] < box[1] and box[2] < box[3]):
        raise argparse.ArgumentTypeError(
            f"must have x0 < x1 and y0 < y1, got {text!r}")
    return box


def _levels(text):
    """argparse type of illposedness --levels: strictly increasing grid
    sizes, each at least config.GRID_MIN."""
    try:
        levels = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid level list: {text!r}") from None
    if min(levels) < cfg.GRID_MIN:
        raise argparse.ArgumentTypeError(
            f"levels must be >= {cfg.GRID_MIN}, got {text!r}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise argparse.ArgumentTypeError(
            f"levels must be strictly increasing, got {text!r}")
    return levels


def _add_global_flags(parser, suppress=False):
    """Shared flags; subcommands re-declare them with SUPPRESS defaults so
    they may appear on either side of the subcommand name."""
    d = (lambda _: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--out", default=d(None),
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=d("json"),
                        help="output format where both are supported")
    parser.add_argument("--seed", type=int, default=d(42))
    parser.add_argument("--tol", type=_positive(float), default=d(1e-9),
                        help="cyclotron-resonance guard (relative)")
    parser.add_argument("--quiet", action="store_true", default=d(False))


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every call."""
    parser = _Parser(
        prog="coldwave",
        description="Cold-plasma wave numerics: Stix parameters, dispersion "
                    "scans, type geometry, and degenerate-operator solvers.")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stix", help="Stix parameters at one frequency")
    p.add_argument("--plasma", required=True)
    p.add_argument("--omega", type=float, required=True)

    p = sub.add_parser("dispersion", help="dispersion scan to CSV")
    p.add_argument("--plasma", required=True)
    p.add_argument("--omegas", type=_grid("omega grid", positive=True),
                   required=True,
                   help="'a,b,c' or start:stop:count[:log]")
    p.add_argument("--thetas", type=_grid("theta grid", _angle),
                   required=True,
                   help="angles; accepts 90deg / 1.57rad forms")

    p = sub.add_parser("cutoffs", help="cutoff frequencies in a bracket")
    p.add_argument("--plasma", required=True)
    p.add_argument("--bracket", type=_bracket, required=True,
                   help="'low:high' in rad/s")

    p = sub.add_parser("resonances", help="hybrid resonances in a bracket")
    p.add_argument("--plasma", required=True)
    p.add_argument("--bracket", type=_bracket, required=True)

    p = sub.add_parser("typemap", help="elliptic/hyperbolic type map to CSV")
    p.add_argument("--fields", required=True, help="field-definition JSON")
    p.add_argument("--box", type=_box, required=True, help="x0:x1:z0:z1")
    p.add_argument("--nx", type=_positive(int), default=33)
    p.add_argument("--nz", type=_positive(int), default=33)

    p = sub.add_parser("characteristics", help="trace one characteristic")
    p.add_argument("--start", type=_point, required=True, help="'x,y'")
    p.add_argument("--branch", type=int, choices=(-1, 1), required=True)
    p.add_argument("--step", type=_positive(float), default=1e-3)
    p.add_argument("--box", type=_box, help="stop box x0:x1:y0:y1")
    p.add_argument("--max-steps", type=_positive(int), default=200000)

    sub.add_parser("origin-chars",
                   help="characteristic slopes through the origin")

    p = sub.add_parser("symbol-check",
                       help="curl-curl degeneracy and gauge-symbol checks")
    p.add_argument("--trials", type=_positive(int), default=1000)
    p.add_argument("--kmax", type=_positive(float, KMAX_LIMIT), default=10.0,
                   help=f"components of k drawn from [-kmax, kmax]; at "
                        f"most {KMAX_LIMIT:g}")
    p.add_argument("--plasma")
    p.add_argument("--omega", type=float)

    p = sub.add_parser("layered", help="integrate the plane-layered ODE")
    p.add_argument("--layered", required=True,
                   help="JSON with K11, sigma0, x_range")
    p.add_argument("--psi0", type=_point, default="1,0", help="'re,im'")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--x1", type=float, required=True)

    p = sub.add_parser("solve", help="closed Dirichlet least-squares solve")
    p.add_argument("--problem", required=True)
    p.add_argument("--summary", help="write run summary JSON here")

    p = sub.add_parser("solve-mixed", help="mixed-problem least squares")
    p.add_argument("--problem", required=True)
    p.add_argument("--summary")
    p.add_argument("--mu", type=_positive(float), default=1.0)
    p.add_argument("--mdelta", type=_positive(float), default=0.05,
                   help="multiplier delta (piecewise m)")

    p = sub.add_parser("energy-check",
                       help="multiplier energy-inequality trials")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--delta-tilde", type=float, default=0.05)
    p.add_argument("--trials", type=_positive(int), default=100)
    p.add_argument("--box", type=_box, default="-1:1:-1:1")
    p.add_argument("--nx", type=_positive(int), default=65)
    p.add_argument("--bound-factor", type=_positive(float), default=0.9)

    p = sub.add_parser("illposedness",
                       help="condition growth across refinements")
    p.add_argument("--problem", required=True)
    p.add_argument("--levels", type=_levels, default="13,33,49")

    for action in sub.choices.values():
        _add_global_flags(action, suppress=True)
    return parser


_COMMANDS = {
    "stix": cmd_stix,
    "dispersion": cmd_dispersion,
    "cutoffs": cmd_cutoffs,
    "resonances": cmd_resonances,
    "typemap": cmd_typemap,
    "characteristics": cmd_characteristics,
    "origin-chars": cmd_origin_chars,
    "symbol-check": cmd_symbol_check,
    "layered": cmd_layered,
    "solve": cmd_solve,
    "solve-mixed": cmd_solve_mixed,
    "energy-check": cmd_energy_check,
    "illposedness": cmd_illposedness,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:  # usage error (EXIT_INVALID) or --help (0)
        return exc.code
    except ColdwaveError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
