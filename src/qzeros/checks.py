"""The checks of ``qz verify`` and ``qz sweep``: one residual function per check, mapping a Case
to its residual (None where the check does not apply), and one table of them, CHECKS, in report
order. A check calls the library through this module's globals when it runs, so a rebinding of
those names (by a profiler, say) reaches it. Adding a check is one function and one row."""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .errors import QZerosError
from .numlin import christoffel_darboux_eigenvalues, compute_zero_set, match_spectra
from .report import as_rational, rel_residual, spectrum_closed_form, trace_closed_form
from .zeroflow import FAMILIES, fd_jacobian

#: Parameter scalings (t*a, b/t) resp. (t*alpha, beta/t) of the isospectrality check.
ISOSPECTRAL_T_VALUES = (0.5, 2.0, 1.0 + 0.3j)

#: Each family's anchors: the zero identities, the closed-form spectrum and the matrix entries,
#: the corollary (.1 rationality, .2 isospectrality, .3 trace and determinant), the flow.
ANCHORS = {
    "aw": dict(identity="prop2.1", spectrum="prop2.2", corollary="cor2.2", flow="sec3.1"),
    "racah": dict(identity="prop2.3", spectrum="prop2.4", corollary="cor2.4", flow="sec3.2"),
}


class Case:
    """A parameter set, its zero set and matrix, and the matrix's spectrum, formed when read."""

    def __init__(self, params, polish: bool = True):
        self.params, self.zs = params, compute_zero_set(params, polish=polish)
        self.mat = FAMILIES[params.family].build_matrix(params, self.zs)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return christoffel_darboux_eigenvalues(self.mat.entries)


def identity(case: Case) -> float:
    return float(np.max(FAMILIES[case.params.family].residuals(case.params, case.zs)))


def spectrum(case: Case) -> float:
    return match_spectra(case.spectrum, case.mat.predicted).max_rel_gap


def entry(case: Case) -> Optional[float]:
    """At N = 1 the one entry is the one eigenvalue."""
    if case.params.N == 1:
        delta = complex(case.mat.entries[0, 0]) - complex(case.mat.predicted[0])
        return rel_residual(delta, case.mat.predicted[0])


def trace(k: int, case: Case) -> float:
    """tr A^k against sum mu^k, A and mu scaled by 2^-e <= 1/max|mu_n|, exactly, so that A^k and
    mu^k stay in the double range; |tr - sum| / max(1, |sum|) is formed at the scale 2^-ke."""
    e = math.frexp(max(1.0, float(np.max(np.abs(case.mat.predicted)))))[1]
    scaled, mu = case.mat.entries * math.ldexp(1.0, -e), case.mat.predicted * math.ldexp(1.0, -e)
    target, power = complex(np.sum(mu**k)), np.linalg.matrix_power(scaled, k)  # (A @ A) @ A
    floor = math.ldexp(1.0, max(-k * e, -1074))  # 2^-ke, or the least double above it
    return rel_residual(complex(np.trace(power)) - target, target, floor)


def trace_closed(case: Case) -> float:
    closed = trace_closed_form(case.params)
    return rel_residual(complex(np.trace(case.mat.entries)) - closed, closed)


def determinant(case: Case) -> float:
    """det = mu_1 ... mu_N, compared in log space: q^(-N^2) may leave the double range. The
    logs are complex (real mu may be negative); a singular matrix has log(sign) = -inf and
    gives ratio 0, and a ratio beyond the double range gives an inf residual."""
    entries, predicted = case.mat.entries, case.mat.predicted
    sign, logabsdet = np.linalg.slogdet(entries)
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(complex(sign)) + logabsdet - np.sum(np.log(predicted.astype(complex)))
        return abs(np.exp(log_ratio) - 1)


def diophantine(case: Case) -> Optional[float]:
    """The spectrum against its closed form in rationals, where q and the product are."""
    p = case.params
    qfrac, prodfrac = as_rational(p.q), as_rational(p.product)
    if qfrac is not None and prodfrac is not None:
        exact = spectrum_closed_form(qfrac, prodfrac, p.shift, p.N)
        exact = np.array([float(f) for f in exact], dtype=complex)
        return match_spectra(case.spectrum, exact).max_rel_gap


def isospectral(case: Case) -> Optional[float]:
    worst = None
    for t in ISOSPECTRAL_T_VALUES:
        try:
            swept = Case(FAMILIES[case.params.family].isospectral(case.params, t), polish=False)
        except (QZerosError, ValueError):
            # this scaling lands outside the admissible parameter set, or its matrix leaves the
            # double range; isospectrality is only claimed within it
            continue
        gap = match_spectra(swept.spectrum, case.spectrum).max_rel_gap
        worst = gap if worst is None else max(worst, gap)
    return worst


def flow_jacobian(case: Case) -> float:
    family, params, entries = FAMILIES[case.params.family], case.params, case.mat.entries
    jac = fd_jacobian(lambda y: family.velocity(params, y), family.position(case.zs))
    denom = np.maximum(np.abs(entries), 1e-3 * float(np.max(np.abs(entries))))
    return float(np.max(np.abs(jac - entries) / denom))


#: The rows: name and anchor templates over the family's ANCHORS and the matrix label, the
#: tolerance name, whether a sweep runs the check, and the check.
CHECKS = (
    ("{identity}-residuals", "{identity}", "identity_residual", True, identity),
    ("{spectrum}-spectrum", "{spectrum}", "spectrum_match", True, spectrum),
    ("matrix-{label}-entry", "{spectrum}", "spectrum_match", False, entry),
    ("{corollary}.3-trace-k1", "{corollary}.3", "spectrum_match", True, partial(trace, 1)),
    ("{corollary}.3-trace-k2", "{corollary}.3", "spectrum_match", False, partial(trace, 2)),
    ("{corollary}.3-trace-k3", "{corollary}.3", "spectrum_match", False, partial(trace, 3)),
    ("{corollary}.3-trace-closed-form", "{corollary}.3", "spectrum_match", False, trace_closed),
    ("{corollary}.3-det", "{corollary}.3", "spectrum_match", True, determinant),
    ("{corollary}.1-diophantine", "{corollary}.1", "diophantine", False, diophantine),
    ("{corollary}.2-isospectral", "{corollary}.2", "spectrum_match", False, isospectral),
    ("flow-jacobian", "{flow}", "fd_jacobian", False, flow_jacobian),
)
