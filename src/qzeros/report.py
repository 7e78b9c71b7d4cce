"""Verification reports: named checks, tolerances, closed forms, JSON/CSV emission.

The closed-form spectrum and trace that the checks hold M and L to are
written once for both families, in terms of the product and shift that
each params type carries; the determinant is checked against the product
of the spectrum.

A report is a flat list of checks, each carrying a nonnegative residual,
the tolerance it was held to, a verdict, and the anchor names of the
statements it exercises. Reports serialize deterministically: identical
inputs (including the seed) produce byte-identical artifacts, which is why
the emitted elapsed_ms field is pinned to 0 and actual wall time is only
ever printed to the diagnostic stream.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence, Union

from .polyform import AWParams, RacahParams
from .qkernel import ComplexScalar

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


def resolve_tolerances(overrides: Optional[dict] = None) -> dict:
    """Default tolerances with optional overrides.

    Overrides are accepted only for the published names, and only as
    finite positive numbers; anything else is a usage error.
    """
    tols = dict(DEFAULT_TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {sorted(unknown)}")
        tols.update({k: float(v) for k, v in overrides.items()})
    bad = {k: v for k, v in tols.items() if not 0 < v < math.inf}
    if bad:
        raise ValueError(f"tolerances must be finite and positive, got {bad}")
    return tols


def rel_residual(delta: complex, target: complex) -> float:
    """|delta| normalized by max(1, |target|).

    inf where a modulus is not representable, NaN where a part is NaN: either
    fails its check.
    """
    try:
        return abs(delta) / max(1.0, abs(target))
    except OverflowError:
        # finite parts whose modulus exceeds the largest double; but abs() of a
        # complex with a NaN part raises too when an earlier overflow left errno
        # set, and that residual is NaN, whatever ran before
        if cmath.isnan(delta) or cmath.isnan(target):
            return math.nan
        return math.inf


def as_rational(x: complex, max_denominator: int = 10**6) -> Optional[Fraction]:
    """The exact rational a float encodes, or None if it does not look rational.

    The gap is relative to |x|, so a tiny q, real or imaginary, is not the rational 0.
    """
    x = complex(x)
    fr = Fraction(x.real).limit_denominator(max_denominator)
    return fr if abs(x - float(fr)) <= 1e-12 * abs(x) else None


def spectrum_closed_form(q, product, shift: int, N: int) -> list:
    """The eigenvalues q^(-N) (1-q^n) (1-product*q^(2N+shift-n)) for n = 1..N.

    shift = -1 with product abcd is the spectrum of M, shift = +1 with
    product alpha*beta that of L (the params types carry both). Exact on
    Fractions.
    """
    return [
        q**-N * (1 - q**n) * (1 - product * q ** (2 * N + shift - n)) for n in range(1, N + 1)
    ]


def trace_closed_form(p: Union[AWParams, RacahParams]) -> ComplexScalar:
    """tr M resp. tr L = N (q^(-N) + P q^(N+s)) + (1 - q^(-N))/(1 - q) (q + P q^(N+s))."""
    q = p.q
    pw = p.product * q ** (p.N + p.shift)
    return p.N * (q**-p.N + pw) + (1.0 - q**-p.N) / (1.0 - q) * (q + pw)


# --- serialization ---------------------------------------------------------


def _c(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def envelope(
    family: str, params: Union[AWParams, RacahParams, None], body: dict, seed: int
) -> dict:
    """The artifact fields shared by every command, around a command's own body.

    The parameters serialize in declaration order, without N; elapsed_ms is
    pinned to 0 so that artifacts are byte-stable.
    """
    out = {
        "family": family,
        "params": {} if params is None else {
            f.name: _c(getattr(params, f.name)) for f in fields(params) if f.name != "N"
        },
        "N": params.N if params is not None else None,
    }
    out.update(body)
    out.update({"seed": seed, "elapsed_ms": 0})
    return out


def report_to_dict(report: VerificationReport) -> dict:
    checks = [
        {
            "name": c.name,
            "residual": _finite_or_none(c.residual),
            "tolerance": c.tolerance,
            "pass": c.passed,
            "refs": c.refs,
        }
        for c in report.checks
    ]
    body = {"checks": checks, "pass": report.passed}
    return envelope(report.family, report.params, body, report.seed)


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_csv(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_output(text: str, path: Optional[str]) -> str:
    """Write the rendered text to path, if one is given; returns the text."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def render_report_json(report: VerificationReport) -> str:
    return render_json(report_to_dict(report))


def render_report_csv(report: VerificationReport) -> str:
    return render_csv(
        ["name", "residual", "tolerance", "pass", "refs"],
        (
            [c.name, repr(c.residual), repr(c.tolerance), str(c.passed).lower(), ";".join(c.refs)]
            for c in report.checks
        ),
    )


def emit_report(report: VerificationReport, output_format: str, path: Optional[str]) -> str:
    """Render and optionally write the report; returns the rendered text."""
    if output_format == "json":
        text = render_report_json(report)
    elif output_format == "csv":
        text = render_report_csv(report)
    else:
        raise ValueError(f"unknown output format {output_format!r}")
    return write_output(text, path)
