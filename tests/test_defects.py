"""A catalogue of defects planted in M or L, and the checks of run_verify that catch each.

Each defect alters the instance's own matrix only: the isospectral re-solves, which run on
other parameters, build theirs untouched. The spectral checks (the spectrum, the traces,
the determinant, isospectrality) claim spectral facts only, so a similarity transform of
the matrix passes them by design; only flow-jacobian compares it with the flow entry by
entry. A doubled small entry can escape every check.
"""

import dataclasses
import re

import numpy as np
import pytest

from qzeros import awspec, racahspec
from qzeros.cli import run_verify
from qzeros.sweeps import SplitMix64
from qzeros.zeroflow import FAMILIES

BUILDERS = {"aw": (awspec, "build_matrix_M"), "racah": (racahspec, "build_matrix_L")}
CELLS = [(family, q, n) for family in BUILDERS for q in (0.3, 0.6) for n in (4, 10)]
SPECTRAL = {"spectrum", "trace-k2", "trace-k3", "det", "isospectral"}


def _similarity(entries: np.ndarray) -> np.ndarray:
    """D M D^-1 for a seeded diagonal D in [1/e, e]."""
    d = np.exp(np.random.default_rng(0).uniform(-1.0, 1.0, len(entries)))
    return entries * d[:, None] / d[None, :]


def _doubled_corner(entries: np.ndarray) -> np.ndarray:
    out = entries.copy()
    out[0, -1] *= 2.0
    return out


DEFECTS = {
    "none": lambda entries: entries,
    "transposed": lambda entries: entries.T.copy(),
    "similarity": _similarity,
    "reversed": lambda entries: entries[::-1, ::-1].copy(),
    "doubled-corner": _doubled_corner,
}


def expected(defect: str, n: int) -> set:
    if defect == "none":
        return set()
    if defect == "doubled-corner":  # at N = 10 the corner entry is too small to show
        return SPECTRAL | {"flow-jacobian"} if n == 4 else set()
    return {"flow-jacobian"}


def failing_checks(monkeypatch, params, defect) -> set:
    """The failing checks of run_verify on params, their reference prefixes stripped, with
    the defect applied to the matrix built for params itself."""
    module, name = BUILDERS[params.family]
    build = getattr(module, name)

    def planted(p, zs, *args):
        mat = build(p, zs, *args)
        if p != params:  # an isospectral re-solve
            return mat
        return dataclasses.replace(mat, entries=DEFECTS[defect](mat.entries))

    monkeypatch.setattr(module, name, planted)
    report = run_verify(params)
    return {re.sub(r"^(prop|cor)[\d.]+-", "", c.name) for c in report.checks if not c.passed}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("family, q, n", CELLS)
def test_defect_fails_exactly_its_checks(monkeypatch, family, q, n, defect):
    params = FAMILIES[family].draw(SplitMix64(0), complex(q), n)
    assert failing_checks(monkeypatch, params, defect) == expected(defect, n)
