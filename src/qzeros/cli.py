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

from .errors import QZerosError, SingularTrajectory
from .numlin import compute_zero_set, eigenvalues, match_spectra
from .polyform import AWParams, RacahParams, check_base
from .report import (
    VerificationReport,
    _c,
    as_rational,
    emit_report,
    envelope,
    rel_residual,
    render_csv,
    render_json,
    resolve_tolerances,
    spectrum_closed_form,
    trace_closed_form,
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

#: Parameter scalings (t*a, b/t) resp. (t*alpha, beta/t) of the isospectrality check.
ISOSPECTRAL_T_VALUES = (0.5, 2.0, 1.0 + 0.3j)


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
        rows = []
        for i, z in enumerate(zs.zbar):
            x = zs.xbar[i] if zs.xbar is not None else None
            rows.append(
                [
                    i,
                    repr(float(z.real)),
                    repr(float(z.imag)),
                    repr(float(x.real)) if x is not None else "",
                    repr(float(x.imag)) if x is not None else "",
                    repr(float(zs.residuals[i])),
                ]
            )
        text = _emit_csv(args, ["index", "re_z", "im_z", "re_x", "im_x", "residual"], rows)
    return text, EXIT_OK


def _cmd_matrix(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    zs = compute_zero_set(params)
    mat = FAMILIES[args.family].build_matrix(params, zs)
    if args.output_format == "json":
        body = {
            "label": mat.label,
            "entries": [[_c(v) for v in row] for row in mat.entries],
            "predicted": [_c(v) for v in mat.predicted],
        }
        text = _emit_json(args, params, body)
    else:
        rows = [
            [i, j, repr(float(mat.entries[i, j].real)), repr(float(mat.entries[i, j].imag))]
            for i in range(mat.size)
            for j in range(mat.size)
        ]
        text = _emit_csv(args, ["row", "col", "re", "im"], rows)
    return text, EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, params, overrides: dict) -> tuple[str, int]:
    tols = resolve_tolerances(overrides)
    zs = compute_zero_set(params)
    mat = FAMILIES[args.family].build_matrix(params, zs)
    computed = eigenvalues(mat.entries)
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
        rows = []
        for i, v in enumerate(computed):
            p = mat.predicted[match.pairing[i]]
            rows.append(
                [
                    i,
                    repr(float(v.real)),
                    repr(float(v.imag)),
                    repr(float(p.real)),
                    repr(float(p.imag)),
                    repr(float(abs(v - p))),
                ]
            )
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
    """The verification suite for one parameter set of either family.

    With ``sweep``, only the four checks a sweep reports per set: the zero
    identities, the spectrum, the trace for k = 1 and the determinant.
    Check failures are recorded in the report, never raised.
    """
    family = FAMILIES[params.family]
    tols = resolve_tolerances(tolerance_overrides)
    match_tol = tols["spectrum_match"]
    zs = compute_zero_set(params)
    mat = family.build_matrix(params, zs)
    entries, predicted = mat.entries, mat.predicted
    report = VerificationReport(family=family.name, params=params, seed=seed)
    ident, spec, cor = family.identity_ref, family.spectrum_ref, family.corollary_ref

    residuals = family.residuals(params, zs)
    report.add(f"{ident}-residuals", float(np.max(residuals)), tols["identity_residual"], [ident])
    spectrum = eigenvalues(entries)
    report.add(f"{spec}-spectrum", match_spectra(spectrum, predicted).max_rel_gap, match_tol, [spec])
    if params.N == 1 and not sweep:
        delta = complex(entries[0, 0]) - complex(predicted[0])
        report.add(f"matrix-{mat.label}-entry", rel_residual(delta, predicted[0]), match_tol, [spec])

    # M and mu scaled by 2^-e <= 1/max|mu_n|, exactly, so that M^k and mu^k stay in the double
    # range; the residual |tr - sum| / max(1, |sum|) is then formed at the scale 2^-ke
    e = math.frexp(max(1.0, float(np.max(np.abs(predicted)))))[1]
    scaled, mu = entries * math.ldexp(1.0, -e), predicted * math.ldexp(1.0, -e)
    power = np.eye(len(entries), dtype=complex)
    for k in (1,) if sweep else (1, 2, 3):
        power = power @ scaled
        target = complex(np.sum(mu**k))
        floor = math.ldexp(1.0, max(-k * e, -1074))  # 2^-ke, or the least double above it
        residual = rel_residual(complex(np.trace(power)) - target, target, floor)
        report.add(f"{cor}.3-trace-k{k}", residual, match_tol, [f"{cor}.3"])
    if not sweep:
        closed = trace_closed_form(params)
        residual = rel_residual(complex(np.trace(entries)) - closed, closed)
        report.add(f"{cor}.3-trace-closed-form", residual, match_tol, [f"{cor}.3"])
    # det = mu_1 ... mu_N, compared in log space: q^(-N^2) may leave the double range. The
    # logs are complex (real mu may be negative); a singular matrix has log(sign) = -inf and
    # gives ratio 0, and a ratio beyond the double range gives an inf residual
    sign, logabsdet = np.linalg.slogdet(entries)
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(complex(sign)) + logabsdet - np.sum(np.log(predicted.astype(complex)))
        residual = abs(np.exp(log_ratio) - 1)
    report.add(f"{cor}.3-det", residual, match_tol, [f"{cor}.3"])
    if sweep:
        return report

    qfrac, prodfrac = as_rational(params.q), as_rational(params.product)
    if qfrac is not None and prodfrac is not None:
        exact = spectrum_closed_form(qfrac, prodfrac, params.shift, params.N)
        match = match_spectra(spectrum, np.array([float(f) for f in exact], dtype=complex))
        report.add(f"{cor}.1-diophantine", match.max_rel_gap, tols["diophantine"], [f"{cor}.1"])

    worst = None
    for t in ISOSPECTRAL_T_VALUES:
        try:
            swept = family.isospectral(params, t)
            m_swept = family.build_matrix(swept, compute_zero_set(swept, polish=False))
        except (QZerosError, ValueError):
            # this scaling lands outside the admissible parameter set;
            # isospectrality is only claimed within it
            continue
        gap = match_spectra(eigenvalues(m_swept.entries), spectrum).max_rel_gap
        worst = gap if worst is None else max(worst, gap)
    if worst is not None:
        report.add(f"{cor}.2-isospectral", worst, match_tol, [f"{cor}.2"])

    jac = zeroflow.fd_jacobian(lambda y: family.velocity(params, y), family.position(zs))
    denom = np.maximum(np.abs(entries), 1e-3 * float(np.max(np.abs(entries))))
    residual = float(np.max(np.abs(jac - entries) / denom))
    report.add("flow-jacobian", residual, tols["fd_jacobian"], [family.flow_ref])
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
        header = ["step", "t"]
        for k in range(n):
            header += [f"re_{k}", f"im_{k}"]
        rows = []
        for i, (t, y) in enumerate(trajectory):
            row = [i, repr(float(t))]
            for v in y:
                row += [repr(float(v.real)), repr(float(v.imag))]
            rows.append(row)
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
