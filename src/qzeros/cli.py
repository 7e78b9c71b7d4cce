"""Command-line front end.

Subcommands: zeros, matrix, spectrum, verify, flow, sweep. Parameters are
passed as complex literals (either "0.5+0.2i" or "0.5+0.2j"); reports are
emitted as JSON or CSV and are byte-stable for a fixed configuration and
seed. Exit codes: 0 all executed checks pass, 2 a check failed, 3 a
numerical degeneracy or I/O failure, 4 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
import time
from typing import Optional, Union

import numpy as np

from .checks import ANCHORS, CHECKS, Case
from .errors import QZerosError, SingularTrajectory
from .numlin import compute_zero_set, match_spectra
from .polyform import AWParams, RacahParams, check_base
from .report import (
    VerificationReport,
    _c,
    emit_report,
    envelope,
    render_csv,
    render_json,
    resolve_tolerances,
    write_output,
)
from .sweeps import SplitMix64, unit_direction
from .zeroflow import FAMILIES
from . import zeroflow

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 4

FLOW_DEFAULT_T_END = 0.05
FLOW_DEFAULT_EPSILON = 1e-6
SWEEP_DEFAULT_COUNT = 5


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex literal {text!r}")
    if not cmath.isfinite(value):  # nan, or a literal beyond the double range
        raise argparse.ArgumentTypeError(f"complex literal {text!r} is not finite")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qz",
        description=(
            "Compute Askey-Wilson / q-Racah polynomial zeros, the spectral "
            "matrices built from them, and verify their closed-form spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", choices=tuple(FAMILIES), required=True)
    for family in FAMILIES.values():
        for name, flag in family.flags.items():
            common.add_argument(flag, type=parse_complex, help=f"{family.title} parameter {name}")
    common.add_argument("-q", dest="q", type=parse_complex, required=True, help="base q")
    common.add_argument("-N", dest="N", type=int, required=True, help="polynomial degree")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--format", dest="output_format", choices=("json", "csv"), default="json"
    )
    common.add_argument("--output", dest="output_path", default=None, metavar="PATH")
    common.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named tolerance (identity_residual, spectrum_match, "
        "fd_jacobian, diophantine); repeatable",
    )

    for name, text in (
        ("zeros", "compute and dump the zero set"),
        ("matrix", "build the spectral matrix and dump its entries"),
        ("spectrum", "compare computed eigenvalues against the closed form"),
        ("verify", "run the full verification suite"),
    ):
        sub.add_parser(name, parents=[common], help=text)

    flow = sub.add_parser("flow", parents=[common], help="integrate the zero flow and export it")
    flow.add_argument("--t-end", dest="t_end", type=float, default=FLOW_DEFAULT_T_END)
    flow.add_argument("--dt-max", dest="dt_max", type=float, default=None)
    flow.add_argument("--epsilon", type=float, default=FLOW_DEFAULT_EPSILON)

    sweep = sub.add_parser(
        "sweep", parents=[common], help="verify identities across seeded random parameter sets"
    )
    sweep.add_argument("--count", type=int, default=SWEEP_DEFAULT_COUNT)
    return parser


_parser = functools.cache(build_parser)  # parsing leaves a parser unchanged: build it once


def _config_from_args(
    parser: _Parser, args: argparse.Namespace
) -> tuple[Union[AWParams, RacahParams, None], dict]:
    """Validate the arguments: the parameter set (None for sweep) and the --tol overrides."""
    overrides = {}
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            parser.error(f"--tol value for {name!r} is not a number: {value!r}")
    try:
        resolve_tolerances(overrides)
    except ValueError as exc:
        parser.error(str(exc))

    if args.N < 1:
        parser.error("degree N must be at least 1 (a degree-0 polynomial has no zeros)")
    if args.command == "flow":
        if not 0 < args.t_end < math.inf:
            parser.error(f"--t-end must be finite and positive, got {args.t_end}")
        if args.dt_max is None:
            args.dt_max = args.t_end / 50.0
        floor = zeroflow.STEP_FLOOR * max(1.0, args.t_end)
        if not args.dt_max >= floor:  # integrate_flow's step floor; also catches 0 and nan
            parser.error(f"--dt-max (default t-end/50) must be >= {floor:.1e}, got {args.dt_max}")
        if args.t_end / args.dt_max > zeroflow.MAX_FLOW_STEPS:  # at least that many steps
            parser.error(f"--t-end/--dt-max must be at most {zeroflow.MAX_FLOW_STEPS}")
    if args.command == "sweep" and args.count < 1:
        parser.error(f"--count must be at least 1, got {args.count}")

    params: Union[AWParams, RacahParams, None] = None
    family = FAMILIES[args.family]
    try:
        if args.command == "sweep":
            check_base(args.q, args.N)  # each drawn set checks the rest
        else:
            missing = [flag for name, flag in family.flags.items() if getattr(args, name) is None]
            if missing:
                parser.error(f"family {family.name} requires {' '.join(missing)}")
            values = {name: getattr(args, name) for name in family.flags}
            params = family.params_type(**values, q=args.q, N=args.N)
    except (QZerosError, ValueError) as exc:
        parser.error(f"inadmissible parameters: {exc}")

    return params, overrides


# --- commands ---------------------------------------------------------------
# Each takes the parsed arguments, the parameter set and the tolerance overrides.


def _emit_json(args: argparse.Namespace, params, body: dict) -> str:
    payload = envelope(args.family, params, body, args.seed)
    return write_output(render_json(payload), args.output_path)


def _emit_csv(args: argparse.Namespace, header: list, rows: list) -> str:
    return write_output(render_csv(header, rows), args.output_path)


def _re_im(value) -> list:
    """The CSV cells of a complex value."""
    return [repr(float(value.real)), repr(float(value.imag))]


def _cmd_zeros(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    zs = compute_zero_set(params)
    if args.output_format == "json":
        body = {
            "zbar": [_c(z) for z in zs.zbar],
            "xbar": [_c(x) for x in zs.xbar] if zs.xbar is not None else None,
            "residuals": list(map(float, zs.residuals)),
            "min_separation": zs.min_separation if math.isfinite(zs.min_separation) else None,
        }
        text = _emit_json(args, params, body)
    else:
        xs = zs.xbar if zs.xbar is not None else [None] * len(zs.zbar)
        rows = [
            [i, *_re_im(z), *(_re_im(x) if x is not None else ["", ""]), repr(float(r))]
            for i, (z, x, r) in enumerate(zip(zs.zbar, xs, zs.residuals))
        ]
        text = _emit_csv(args, ["index", "re_z", "im_z", "re_x", "im_x", "residual"], rows)
    return text, EXIT_OK


def _cmd_matrix(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    mat = Case(params).mat
    if args.output_format == "json":
        body = {
            "label": mat.label,
            "entries": [[_c(v) for v in row] for row in mat.entries],
            "predicted": [_c(v) for v in mat.predicted],
        }
        text = _emit_json(args, params, body)
    else:
        rows = [[i, j, *_re_im(v)] for (i, j), v in np.ndenumerate(mat.entries)]
        text = _emit_csv(args, ["row", "col", "re", "im"], rows)
    return text, EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    tols = resolve_tolerances(overrides)
    case = Case(params)
    mat, computed = case.mat, case.spectrum
    match = match_spectra(computed, mat.predicted)
    ok = match.max_rel_gap <= tols["spectrum_match"]
    if args.output_format == "json":
        body = {
            "label": mat.label,
            "computed": [_c(v) for v in computed],
            "predicted": [_c(v) for v in mat.predicted],
            "pairing": [int(i) for i in match.pairing],
            "max_abs_gap": match.max_abs_gap,
            "max_rel_gap": match.max_rel_gap,
            "tolerance": tols["spectrum_match"],
            "pass": ok,
        }
        text = _emit_json(args, params, body)
    else:
        rows = [
            [i, *_re_im(v), *_re_im(p), repr(float(abs(v - p)))]
            for i, (v, p) in enumerate(zip(computed, mat.predicted[match.pairing]))
        ]
        text = _emit_csv(
            args,
            ["index", "re_computed", "im_computed", "re_predicted", "im_predicted", "abs_gap"],
            rows,
        )
    return text, EXIT_OK if ok else EXIT_CHECK_FAILED


def run_verify(
    params: Union[AWParams, RacahParams],
    tolerance_overrides: Optional[dict] = None,
    seed: int = 0,
    sweep: bool = False,
) -> VerificationReport:
    """The verification suite for one parameter set of either family: the rows of
    checks.CHECKS (with ``sweep``, those a sweep runs) whose check applies, in order. Check
    failures are recorded in the report, never raised."""
    tols = resolve_tolerances(tolerance_overrides)
    case = Case(params)
    fields = {**ANCHORS[params.family], "label": case.mat.label}
    report = VerificationReport(family=params.family, params=params, seed=seed)
    for name, anchor, tolerance, in_sweep, check in CHECKS:
        residual = check(case) if in_sweep or not sweep else None
        if residual is not None:
            report.add(name.format(**fields), residual, tols[tolerance], [anchor.format(**fields)])
    return report


def _cmd_verify(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    report = run_verify(params, overrides, args.seed)
    text = emit_report(report, args.output_format, args.output_path)
    return text, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_flow(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    zs = compute_zero_set(params)
    n = params.N
    direction = np.asarray(unit_direction(SplitMix64(args.seed), n))
    # the start must stay a small displacement: well inside the gaps between the zeros
    if not 0 < args.epsilon < 1e-3 * zs.min_separation:
        print(
            f"qz: epsilon {args.epsilon:.3e} must be positive and below 1e-3 times "
            f"the zero separation {zs.min_separation:.3e}",
            file=sys.stderr,
        )
        return "", EXIT_USAGE
    family = FAMILIES[args.family]
    start = family.position(zs) + args.epsilon * direction
    trajectory = zeroflow.integrate_flow(
        lambda y: family.velocity(params, y), start, args.t_end, args.dt_max
    )
    if args.output_format == "json":
        body = {
            "trajectory": [
                {"step": i, "t": t, "positions": [_c(v) for v in y]}
                for i, (t, y) in enumerate(trajectory)
            ]
        }
        text = _emit_json(args, params, body)
    else:
        header = ["step", "t", *(f"{part}_{k}" for k in range(n) for part in ("re", "im"))]
        rows = [
            [i, repr(float(t)), *(cell for v in y for cell in _re_im(v))]
            for i, (t, y) in enumerate(trajectory)
        ]
        text = _emit_csv(args, header, rows)
    return text, EXIT_OK


def _cmd_sweep(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    draw = FAMILIES[args.family].draw
    stream = SplitMix64(args.seed)
    report = VerificationReport(family=args.family, params=None, seed=args.seed)
    for i in range(args.count):
        checks = run_verify(draw(stream, args.q, args.N), overrides, sweep=True)
        report.extend(checks, prefix=f"set{i:02d}.")
    text = emit_report(report, args.output_format, args.output_path)
    return text, EXIT_OK if report.passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "zeros": _cmd_zeros,
    "matrix": _cmd_matrix,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "flow": _cmd_flow,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    params, overrides = _config_from_args(parser, args)
    started = time.monotonic()
    try:
        text, code = _COMMANDS[args.command](args, params, overrides)
    except SingularTrajectory as exc:
        print(f"qz: flow stopped: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QZerosError as exc:
        print(f"qz: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"qz: i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:  # a last resort: no check bounds every allocation
        print("qz: out of memory", file=sys.stderr)
        return EXIT_NUMERIC
    if text and not args.output_path:
        sys.stdout.write(text)
    elapsed = int(round(1000.0 * (time.monotonic() - started)))
    print(f"qz: {args.command} finished in {elapsed} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
