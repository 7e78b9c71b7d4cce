"""Verification reports: named checks, tolerances, JSON/CSV emission.

A report is a flat list of checks, each carrying a nonnegative residual,
the tolerance it was held to, a verdict, and the anchor names of the
statements it exercises. Reports serialize deterministically: identical
inputs (including the seed) produce byte-identical artifacts, which is why
the emitted elapsed_ms field is pinned to 0 and actual wall time is only
ever printed to the diagnostic stream.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .polyform import AWParams, RacahParams

PACKAGE_VERSION = "0.1.0"

#: Named tolerances; the only ones the CLI accepts overrides for.
DEFAULT_TOLERANCES = {
    "identity_residual": 1e-8,
    "spectrum_match": 1e-6,
    "fd_jacobian": 1e-4,
    "diophantine": 1e-8,
}

@dataclass
class Check:
    name: str
    residual: float
    tolerance: float
    passed: bool
    refs: list[str] = field(default_factory=list)


@dataclass
class VerificationReport:
    family: str
    params: Union[AWParams, RacahParams, None]
    checks: list[Check] = field(default_factory=list)
    seed: int = 0
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tolerance: float, refs: Sequence[str]) -> Check:
        check = Check(
            name=name,
            residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            refs=list(refs),
        )
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                Check(prefix + c.name, c.residual, c.tolerance, c.passed, list(c.refs))
            )


def resolve_tolerances(overrides: Optional[dict] = None, env: Optional[dict] = None) -> dict:
    """Default tolerances with optional overrides, scaled by QZ_TOL_SCALE.

    Overrides are accepted only for the published names; anything else is a
    usage error.
    """
    tols = dict(DEFAULT_TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {sorted(unknown)}")
        tols.update({k: float(v) for k, v in overrides.items()})
    scale = tolerance_scale(env)
    return {k: v * scale for k, v in tols.items()}


def tolerance_scale(env: Optional[dict] = None) -> float:
    """The QZ_TOL_SCALE multiplier (default 1) from env, or from os.environ."""
    env = os.environ if env is None else env
    return float(env.get("QZ_TOL_SCALE", "1") or "1")


def rel_residual(delta: complex, target: complex) -> float:
    """|delta| normalized by max(1, |target|)."""
    return abs(delta) / max(1.0, abs(target))


def as_rational(x: complex, max_denominator: int = 10**6) -> Optional[Fraction]:
    """The exact rational a float encodes, or None if it does not look rational."""
    if abs(complex(x).imag) > 1e-12:
        return None
    re = complex(x).real
    fr = Fraction(re).limit_denominator(max_denominator)
    if abs(float(fr) - re) <= 1e-12 * max(1.0, abs(re)):
        return fr
    return None


def rational_spectrum(qfrac: Fraction, prodfrac: Fraction, N: int, shift: int) -> list[Fraction]:
    """Exact eigenvalues q^(-N) (1-q^n) (1-prod*q^(2N+shift-n)) for n = 1..N.

    shift = -1 reproduces the Askey-Wilson spectrum (product abcd),
    shift = +1 the q-Racah spectrum (product alpha*beta).
    """
    out = []
    qinvN = Fraction(1, 1) / qfrac**N
    for n in range(1, N + 1):
        out.append(qinvN * (1 - qfrac**n) * (1 - prodfrac * qfrac ** (2 * N + shift - n)))
    return out


# --- serialization ---------------------------------------------------------


def _c(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _params_dict(params: Union[AWParams, RacahParams, None]) -> dict:
    if params is None:
        return {}
    if isinstance(params, AWParams):
        return {
            "a": _c(params.a),
            "b": _c(params.b),
            "c": _c(params.c),
            "d": _c(params.d),
            "q": _c(params.q),
        }
    return {
        "alpha": _c(params.alpha),
        "beta": _c(params.beta),
        "gamma": _c(params.gamma),
        "delta": _c(params.delta),
        "q": _c(params.q),
    }


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "family": report.family,
        "params": _params_dict(report.params),
        "N": report.params.N if report.params is not None else None,
        "checks": [
            {
                "name": c.name,
                "residual": _finite_or_none(c.residual),
                "tolerance": c.tolerance,
                "pass": c.passed,
                "refs": c.refs,
            }
            for c in report.checks
        ],
        "pass": report.passed,
        "seed": report.seed,
        "elapsed_ms": report.elapsed_ms,
    }


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def render_report_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\n"


def render_report_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "residual", "tolerance", "pass", "refs"])
    for c in report.checks:
        writer.writerow(
            [c.name, repr(c.residual), repr(c.tolerance), str(c.passed).lower(), ";".join(c.refs)]
        )
    return buf.getvalue()


def emit_report(report: VerificationReport, output_format: str, path: Optional[str]) -> str:
    """Render and optionally write the report; returns the rendered text."""
    if output_format == "json":
        text = render_report_json(report)
    elif output_format == "csv":
        text = render_report_csv(report)
    else:
        raise ValueError(f"unknown output format {output_format!r}")
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
