"""The three workloads: their `qz` invocations and the check of each output.

Every parameter set comes from ``sweeps.SplitMix64(seed)``. A grid cell of
``verify-grid`` or ``flow-window`` takes the first admissible draw of a fresh
stream for its (family, q, N), so a cell's instance depends only on the seed
and the cell; ``qz sweep`` draws its own sets from ``--seed``.

An invocation fails when it exits nonzero, raises anything, or its output
fails the check below. Each check also returns the invocation's verdict
vector (one boolean per check it could read) so that two versions of the
program can be compared for "same verdicts".
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

GRID_FAMILIES = ("aw", "racah")
GRID_Q = (0.3, 0.6)
VERIFY_N = (4, 10, 16, 24)
FLOW_N = (8, 16)
SWEEP_N = 6
SWEEP_COUNT = 25
#: --t-end is this many inverse spectral norms of the instance's matrix.
FLOW_WINDOW_NORMS = 4.0
#: --t-end for a cell whose matrix cannot be built at set-up (no norm to scale by).
_UNREACHABLE_T_END = 1e-9

VERIFY_FIELDS = {"family", "params", "N", "checks", "pass", "seed", "elapsed_ms"}
SWEEP_HEADER = ["name", "residual", "tolerance", "pass", "refs"]
#: Checks per parameter set in a sweep report.
SWEEP_CHECKS_PER_SET = 4


@dataclass
class Invocation:
    """One `qz` call and the check its output must pass."""

    label: str
    argv: list
    check: Callable[["Outcome"], tuple]
    output_path: Optional[str] = None


@dataclass
class Outcome:
    """What one invocation produced."""

    code: Optional[int]
    output: bytes


def _literal(value: complex) -> str:
    return repr(complex(value))


def _param_argv(params) -> list:
    from qzeros.polyform import AWParams

    if isinstance(params, AWParams):
        names = (("-a", params.a), ("-b", params.b), ("-c", params.c), ("-d", params.d))
    else:
        names = (
            ("--alpha", params.alpha),
            ("--beta", params.beta),
            ("--gamma", params.gamma),
            ("--delta", params.delta),
        )
    out = []
    for flag, value in names:
        out += [flag, _literal(value)]
    return out


def _cell_params(seed: int, family: str, q: float, n: int):
    from qzeros.sweeps import SplitMix64, draw_aw_params, draw_racah_params

    draw = draw_aw_params if family == "aw" else draw_racah_params
    return draw(SplitMix64(seed), complex(q), n)


# --- verify-grid ------------------------------------------------------------


def _check_verify(outcome: Outcome) -> tuple:
    """Exact field set, pass == all(checks), exit 0 on pass and 2 on fail."""
    if outcome.code == 3 and not outcome.output:
        return False, [], "exit 3 (typed numerical failure)"
    try:
        report = json.loads(outcome.output)
    except ValueError:
        return False, [], f"exit {outcome.code}, report is not JSON"
    verdicts = [bool(c.get("pass")) for c in report.get("checks", [])]
    if set(report) != VERIFY_FIELDS:
        return False, verdicts, f"report fields {sorted(report)}"
    if report["pass"] != all(verdicts):
        return False, verdicts, "report pass disagrees with its checks"
    expected = 0 if report["pass"] else 2
    if outcome.code != expected:
        return False, verdicts, f"exit {outcome.code}, report implies {expected}"
    return report["pass"], verdicts, "" if report["pass"] else "exit 2 (check failed)"


def verify_grid(seed: int, workdir: str) -> list:
    out = []
    for family in GRID_FAMILIES:
        for q in GRID_Q:
            for n in VERIFY_N:
                params = _cell_params(seed, family, q, n)
                path = os.path.join(workdir, f"verify-{family}-{q}-{n}.json")
                argv = ["verify", "--family", family, *_param_argv(params)]
                argv += ["-q", repr(q), "-N", str(n), "--seed", str(seed), "--output", path]
                out.append(Invocation(f"{family} q={q} N={n}", argv, _check_verify, path))
    return out


# --- sweep-small ------------------------------------------------------------


def _check_sweep(outcome: Outcome) -> tuple:
    """4 x count rows of known shape, exit code consistent with the rows."""
    if outcome.code not in (0, 2):
        return False, [], f"exit {outcome.code}"
    rows = list(csv.reader(io.StringIO(outcome.output.decode("utf-8"))))
    if not rows or rows[0] != SWEEP_HEADER:
        return False, [], "missing or wrong CSV header"
    body = rows[1:]
    verdicts = [r[3] == "true" for r in body if len(r) == len(SWEEP_HEADER)]
    if len(verdicts) != len(body) or any(r[3] not in ("true", "false") for r in body):
        return False, verdicts, "malformed rows"
    if len(body) != SWEEP_CHECKS_PER_SET * SWEEP_COUNT:
        return False, verdicts, f"{len(body)} rows, expected {SWEEP_CHECKS_PER_SET * SWEEP_COUNT}"
    expected = 0 if all(verdicts) else 2
    if outcome.code != expected:
        return False, verdicts, f"exit {outcome.code}, rows imply {expected}"
    return all(verdicts), verdicts, "" if all(verdicts) else "exit 2 (check failed)"


def sweep_small(seed: int, workdir: str) -> list:
    out = []
    for family in GRID_FAMILIES:
        for q in GRID_Q:
            argv = ["sweep", "--family", family, "-q", repr(q), "-N", str(SWEEP_N)]
            argv += ["--count", str(SWEEP_COUNT), "--format", "csv", "--seed", str(seed)]
            out.append(Invocation(f"{family} q={q}", argv, _check_sweep))
    return out


# --- flow-window ------------------------------------------------------------


@dataclass
class _FlowReference:
    """The linearization the exported flow must follow: eps * expm(M t) @ direction."""

    base: np.ndarray
    matrix: np.ndarray
    direction: np.ndarray
    epsilon: float
    tolerance: float

    def __call__(self, outcome: Outcome) -> tuple:
        from scipy.linalg import expm

        if outcome.code != 0:
            return False, [], f"exit {outcome.code}"
        rows = list(csv.reader(io.StringIO(outcome.output.decode("utf-8"))))
        n = len(self.base)
        header = ["step", "t"] + [f"{p}_{k}" for k in range(n) for p in ("re", "im")]
        if len(rows) < 2 or rows[0] != header:
            return False, [], "missing or wrong CSV header"
        last = [float(v) for v in rows[-1][1:]]
        t_final, values = last[0], np.array(last[1:])
        actual = values[0::2] + 1j * values[1::2] - self.base
        predicted = self.epsilon * (expm(self.matrix * t_final) @ self.direction)
        gap = float(np.max(np.abs(actual - predicted))) / float(np.max(np.abs(predicted)))
        ok = gap <= self.tolerance
        return ok, [ok], "" if ok else f"linearization gap {gap:.1e}"


def flow_window(seed: int, workdir: str) -> list:
    from qzeros import awspec, racahspec, zeroflow
    from qzeros.cli import FLOW_DEFAULT_EPSILON
    from qzeros.errors import QZerosError
    from qzeros.numlin import compute_zero_set
    from qzeros.sweeps import SplitMix64, unit_direction

    out = []
    for family in GRID_FAMILIES:
        for q in GRID_Q:
            for n in FLOW_N:
                params = _cell_params(seed, family, q, n)
                try:
                    zs = compute_zero_set(params)
                    if family == "aw":
                        matrix, base = awspec.build_matrix_M(params, zs).entries, zs.xbar
                    else:
                        matrix, base = racahspec.build_matrix_L(params, zs).entries, zs.zbar
                except QZerosError as exc:
                    # nothing to check the flow against: the invocation counts as failed
                    reason = f"no reference: {type(exc).__name__}"
                    t_end, reference = _UNREACHABLE_T_END, lambda outcome, r=reason: (False, [], r)
                else:
                    t_end = FLOW_WINDOW_NORMS / float(np.linalg.norm(matrix, 2))
                    reference = _FlowReference(
                        base=np.asarray(base, dtype=complex),
                        matrix=matrix,
                        direction=np.asarray(unit_direction(SplitMix64(seed), n)),
                        epsilon=FLOW_DEFAULT_EPSILON,
                        tolerance=zeroflow.LINEARIZATION_TOL,
                    )
                argv = ["flow", "--family", family, *_param_argv(params)]
                argv += ["-q", repr(q), "-N", str(n), "--seed", str(seed)]
                argv += ["--t-end", repr(t_end), "--format", "csv"]
                out.append(Invocation(f"{family} q={q} N={n}", argv, reference))
    return out


WORKLOADS = {
    "verify-grid": verify_grid,
    "sweep-small": sweep_small,
    "flow-window": flow_window,
}
