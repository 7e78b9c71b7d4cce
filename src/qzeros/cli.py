"""Command-line front end.

Subcommands: zeros, matrix, spectrum, verify, flow, sweep. Parameters are
passed as complex literals (either "0.5+0.2i" or "0.5+0.2j"); reports are
emitted as JSON or CSV and are byte-stable for a fixed configuration and
seed. Exit codes: 0 all executed checks pass, 2 a check failed, 3 a
numerical degeneracy or I/O failure, 4 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import QZerosError, SingularTrajectory
from .numlin import ZeroSet, compute_zero_set, determinant, eigenvalues, match_spectra
from .polyform import AWParams, RacahParams
from .report import VerificationReport, emit_report, rel_residual, resolve_tolerances
from .sweeps import SplitMix64, draw_aw_params, draw_racah_params, unit_direction
from . import awspec, racahspec, zeroflow

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 4

FLOW_DEFAULT_T_END = 0.05
FLOW_DEFAULT_EPSILON = 1e-6
SWEEP_DEFAULT_COUNT = 5


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from the command line."""

    command: str
    family: str
    params: Union[AWParams, RacahParams, None]
    q: complex = 0.5
    N: int = 1
    tolerance_overrides: dict = field(default_factory=dict)
    seed: int = 0
    output_format: str = "json"
    output_path: Optional[str] = None
    t_end: float = FLOW_DEFAULT_T_END
    dt_max: Optional[float] = None
    epsilon: float = FLOW_DEFAULT_EPSILON
    count: int = SWEEP_DEFAULT_COUNT


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex literal {text!r}")


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
    common.add_argument("--family", choices=("aw", "racah"), required=True)
    common.add_argument("-a", type=parse_complex, help="Askey-Wilson parameter a")
    common.add_argument("-b", type=parse_complex, help="Askey-Wilson parameter b")
    common.add_argument("-c", type=parse_complex, help="Askey-Wilson parameter c")
    common.add_argument("-d", type=parse_complex, help="Askey-Wilson parameter d")
    common.add_argument("--alpha", type=parse_complex, help="q-Racah parameter alpha")
    common.add_argument("--beta", type=parse_complex, help="q-Racah parameter beta")
    common.add_argument("--gamma", type=parse_complex, help="q-Racah parameter gamma")
    common.add_argument("--delta", type=parse_complex, help="q-Racah parameter delta")
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


def _config_from_args(parser: _Parser, args: argparse.Namespace) -> RunConfig:
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

    params: Union[AWParams, RacahParams, None] = None
    if args.command != "sweep":
        if args.family == "aw":
            missing = [f for f in "abcd" if getattr(args, f) is None]
            if missing:
                parser.error(f"family aw requires -{' -'.join(missing)}")
            ctor = lambda: AWParams(a=args.a, b=args.b, c=args.c, d=args.d, q=args.q, N=args.N)
        else:
            missing = [
                f for f in ("alpha", "beta", "gamma", "delta") if getattr(args, f) is None
            ]
            if missing:
                parser.error(f"family racah requires --{' --'.join(missing)}")
            ctor = lambda: RacahParams(
                alpha=args.alpha,
                beta=args.beta,
                gamma=args.gamma,
                delta=args.delta,
                q=args.q,
                N=args.N,
            )
        try:
            params = ctor()
        except (QZerosError, ValueError) as exc:
            parser.error(f"inadmissible parameters: {exc}")

    return RunConfig(
        command=args.command,
        family=args.family,
        params=params,
        q=args.q,
        N=args.N,
        tolerance_overrides=overrides,
        seed=args.seed,
        output_format=args.output_format,
        output_path=args.output_path,
        t_end=getattr(args, "t_end", FLOW_DEFAULT_T_END),
        dt_max=getattr(args, "dt_max", None),
        epsilon=getattr(args, "epsilon", FLOW_DEFAULT_EPSILON),
        count=getattr(args, "count", SWEEP_DEFAULT_COUNT),
    )


# --- payload rendering -----------------------------------------------------


def _c(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _params_payload(params: Union[AWParams, RacahParams]) -> dict:
    if isinstance(params, AWParams):
        return {"a": _c(params.a), "b": _c(params.b), "c": _c(params.c), "d": _c(params.d), "q": _c(params.q)}
    return {
        "alpha": _c(params.alpha),
        "beta": _c(params.beta),
        "gamma": _c(params.gamma),
        "delta": _c(params.delta),
        "q": _c(params.q),
    }


def _envelope(config: RunConfig, body: dict) -> dict:
    out = {
        "family": config.family,
        "params": _params_payload(config.params) if config.params is not None else {},
        "N": config.params.N if config.params is not None else None,
    }
    out.update(body)
    out.update({"seed": config.seed, "elapsed_ms": 0})
    return out


def _emit_json(payload: dict, path: Optional[str]) -> str:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _emit_csv(rows: list[list], header: list[str], path: Optional[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


# --- commands ---------------------------------------------------------------


def _build_matrix(config: RunConfig, zs: ZeroSet):
    if config.family == "aw":
        return awspec.build_matrix_M(config.params, zs)
    return racahspec.build_matrix_L(config.params, zs)


def _cmd_zeros(config: RunConfig) -> tuple[str, int]:
    zs = compute_zero_set(config.params)
    if config.output_format == "json":
        body = {
            "zbar": [_c(z) for z in zs.zbar],
            "xbar": [_c(x) for x in zs.xbar] if zs.xbar is not None else None,
            "residuals": list(map(float, zs.residuals)),
            "min_separation": zs.min_separation if math.isfinite(zs.min_separation) else None,
        }
        text = _emit_json(_envelope(config, body), config.output_path)
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
        text = _emit_csv(rows, ["index", "re_z", "im_z", "re_x", "im_x", "residual"], config.output_path)
    return text, EXIT_OK


def _cmd_matrix(config: RunConfig) -> tuple[str, int]:
    zs = compute_zero_set(config.params)
    mat = _build_matrix(config, zs)
    if config.output_format == "json":
        body = {
            "label": mat.label,
            "entries": [[_c(v) for v in row] for row in mat.entries],
            "predicted": [_c(v) for v in mat.predicted],
        }
        text = _emit_json(_envelope(config, body), config.output_path)
    else:
        rows = [
            [i, j, repr(float(mat.entries[i, j].real)), repr(float(mat.entries[i, j].imag))]
            for i in range(mat.size)
            for j in range(mat.size)
        ]
        text = _emit_csv(rows, ["row", "col", "re", "im"], config.output_path)
    return text, EXIT_OK


def _cmd_spectrum(config: RunConfig) -> tuple[str, int]:
    tols = resolve_tolerances(config.tolerance_overrides)
    zs = compute_zero_set(config.params)
    mat = _build_matrix(config, zs)
    computed = eigenvalues(mat.entries)
    match = match_spectra(computed, mat.predicted)
    ok = match.max_rel_gap <= tols["spectrum_match"]
    if config.output_format == "json":
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
        text = _emit_json(_envelope(config, body), config.output_path)
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
            rows,
            ["index", "re_computed", "im_computed", "re_predicted", "im_predicted", "abs_gap"],
            config.output_path,
        )
    return text, EXIT_OK if ok else EXIT_CHECK_FAILED


def run_verify(
    params: Union[AWParams, RacahParams],
    tolerance_overrides: Optional[dict] = None,
    seed: int = 0,
) -> VerificationReport:
    """The full verification suite for one parameter set."""
    tols = resolve_tolerances(tolerance_overrides)
    zs = compute_zero_set(params)
    is_aw = isinstance(params, AWParams)
    report = VerificationReport(family="aw" if is_aw else "racah", params=params, seed=seed)

    if is_aw:
        mat = awspec.build_matrix_M(params, zs)
        residuals = awspec.prop21_residuals(params, zs)
        report.add(
            "prop2.1-residuals", float(np.max(residuals)), tols["identity_residual"], ["prop2.1"]
        )
        spectrum_name, entry_name, entry_ref = "prop2.2-spectrum", "matrix-M-entry", "prop2.2"
        corollaries = awspec.verify_corollaries(params, mat, tolerance_overrides)
        jac_ref = "sec3.1"
        point = zeroflow.FlowState(family="aw", positions=zs.xbar, time=0.0)
    else:
        mat = racahspec.build_matrix_L(params, zs)
        residuals = racahspec.prop23_residuals(params, zs)
        report.add(
            "prop2.3-residuals", float(np.max(residuals)), tols["identity_residual"], ["prop2.3"]
        )
        spectrum_name, entry_name, entry_ref = "prop2.4-spectrum", "matrix-L-entry", "prop2.4"
        corollaries = racahspec.verify_corollaries(params, mat, tolerance_overrides)
        jac_ref = "sec3.2"
        point = zeroflow.FlowState(family="racah", positions=zs.zbar, time=0.0)

    match = match_spectra(eigenvalues(mat.entries), mat.predicted)
    report.add(spectrum_name, match.max_rel_gap, tols["spectrum_match"], [entry_ref])
    if params.N == 1:
        report.add(
            entry_name,
            rel_residual(complex(mat.entries[0, 0]) - complex(mat.predicted[0]), mat.predicted[0]),
            tols["spectrum_match"],
            [entry_ref],
        )
    report.extend(corollaries)

    jac = zeroflow.fd_jacobian(zeroflow.velocity_for(params), point)
    norm_max = float(np.max(np.abs(mat.entries)))
    denom = np.maximum(np.abs(mat.entries), 1e-3 * norm_max)
    report.add(
        "flow-jacobian",
        float(np.max(np.abs(jac - mat.entries) / denom)),
        tols["fd_jacobian"],
        [jac_ref],
    )
    return report


def _cmd_verify(config: RunConfig) -> tuple[str, int]:
    report = run_verify(config.params, config.tolerance_overrides, config.seed)
    text = emit_report(report, config.output_format, config.output_path)
    return text, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_flow(config: RunConfig) -> tuple[str, int]:
    zs = compute_zero_set(config.params)
    n = config.params.N
    stream = SplitMix64(config.seed)
    direction = np.asarray(unit_direction(stream, n))
    try:
        zeroflow.PerturbationState(base=zs, epsilon=config.epsilon, direction=direction)
    except ValueError as exc:
        print(f"qz: {exc}", file=sys.stderr)
        return "", EXIT_USAGE
    base = zs.xbar if config.family == "aw" else zs.zbar
    start = zeroflow.FlowState(
        family=config.family, positions=base + config.epsilon * direction, time=0.0
    )
    dt_max = config.dt_max if config.dt_max is not None else config.t_end / 50.0
    trajectory = zeroflow.integrate_flow(
        zeroflow.velocity_for(config.params), start, config.t_end, dt_max
    )
    if config.output_format == "json":
        body = {
            "trajectory": [
                {"step": i, "t": s.time, "positions": [_c(v) for v in s.positions]}
                for i, s in enumerate(trajectory)
            ]
        }
        text = _emit_json(_envelope(config, body), config.output_path)
    else:
        header = ["step", "t"]
        for k in range(n):
            header += [f"re_{k}", f"im_{k}"]
        rows = []
        for i, s in enumerate(trajectory):
            row = [i, repr(float(s.time))]
            for v in s.positions:
                row += [repr(float(v.real)), repr(float(v.imag))]
            rows.append(row)
        text = _emit_csv(rows, header, config.output_path)
    return text, EXIT_OK


def _cmd_sweep(config: RunConfig) -> tuple[str, int]:
    stream = SplitMix64(config.seed)
    report = VerificationReport(family=config.family, params=None, seed=config.seed)
    tols = resolve_tolerances(config.tolerance_overrides)
    for i in range(config.count):
        if config.family == "aw":
            params = draw_aw_params(stream, config.q, config.N)
            zs = compute_zero_set(params)
            mat = awspec.build_matrix_M(params, zs)
            residuals = awspec.prop21_residuals(params, zs)
            names = ("prop2.1-residuals", "prop2.2-spectrum", "cor2.2.3-trace-k1", "cor2.2.3-det")
            refs = ("prop2.1", "prop2.2", "cor2.2.3")
            trace_target = awspec.trace_closed_form(params)
            det_target = awspec.det_closed_form(params)
        else:
            params = draw_racah_params(stream, config.q, config.N)
            zs = compute_zero_set(params)
            mat = racahspec.build_matrix_L(params, zs)
            residuals = racahspec.prop23_residuals(params, zs)
            names = ("prop2.3-residuals", "prop2.4-spectrum", "cor2.4.3-trace-k1", "cor2.4.3-det")
            refs = ("prop2.3", "prop2.4", "cor2.4.3")
            trace_target = racahspec.trace_closed_form(params)
            det_target = racahspec.det_closed_form(params)
        prefix = f"set{i:02d}."
        report.add(prefix + names[0], float(np.max(residuals)), tols["identity_residual"], [refs[0]])
        match = match_spectra(eigenvalues(mat.entries), mat.predicted)
        report.add(prefix + names[1], match.max_rel_gap, tols["spectrum_match"], [refs[1]])
        report.add(
            prefix + names[2],
            rel_residual(complex(np.trace(mat.entries)) - trace_target, trace_target),
            tols["spectrum_match"],
            [refs[2]],
        )
        report.add(
            prefix + names[3],
            rel_residual(determinant(mat.entries) - det_target, det_target),
            tols["spectrum_match"],
            [refs[2]],
        )
    text = emit_report(report, config.output_format, config.output_path)
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
    config = _config_from_args(parser, args)
    started = time.monotonic()
    try:
        text, code = _COMMANDS[config.command](config)
    except SingularTrajectory as exc:
        print(f"qz: flow stopped: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QZerosError as exc:
        print(f"qz: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"qz: i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if text and not config.output_path:
        sys.stdout.write(text)
    elapsed = int(round(1000.0 * (time.monotonic() - started)))
    print(f"qz: {config.command} finished in {elapsed} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
