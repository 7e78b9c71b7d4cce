"""Exception hierarchy shared by every module, and the structure-function guard."""

from __future__ import annotations

import numpy as np

#: Structure-function denominators below this magnitude are rejected.
GUARD_EPS = 1e-10


class QZerosError(Exception):
    """Base class for all failures raised by this package."""


class DegenerateDenominator(QZerosError):
    """A q-Pochhammer factor in a denominator vanished.

    Signals a parameter choice outside the admissible set (e.g. one of the
    lower 4phi3 parameters equals a negative power of q).
    """


class ZeroArgument(QZerosError):
    """z = 0 passed where the x <-> z change of variables divides by z."""


class DegenerateConfiguration(QZerosError):
    """Two polished zeros (nearly) coincide.

    The spectral matrices divide by pairwise zero differences, so
    near-collisions are rejected rather than regularized.
    """


class SingularConfiguration(QZerosError):
    """A structure-function guard was violated.

    Carries the name of the violated guard and the offending magnitude.
    """

    def __init__(self, guard: str, magnitude: float | None = None):
        self.guard = guard
        self.magnitude = magnitude
        detail = f"guard violated: {guard}"
        if magnitude is not None:
            detail += f" (|.| = {magnitude:.3e})"
        super().__init__(detail)


def first_failure(*bad) -> tuple[int, int]:
    """(element, mask) of the first True among boolean masks of one shape, not all False.

    The element is the first in row-major order at which any mask is True,
    the mask the first True there: the failure that a loop running each
    element's checks in turn meets first.
    """
    hit = np.logical_or.reduce(bad) if len(bad) > 1 else np.asarray(bad[0])
    k = int(np.flatnonzero(hit)[0])
    return k, next(j for j, mask in enumerate(bad) if np.asarray(mask).flat[k])


def clear(*magnitudes) -> bool:
    """guard's passing test, one min over the magnitudes stacked (a NaN fails it)."""
    stacked = np.asarray(magnitudes[0] if len(magnitudes) == 1 else magnitudes)
    return stacked.min(initial=np.inf) > GUARD_EPS


def guard(*checks) -> None:
    """Raise SingularConfiguration unless every magnitude exceeds GUARD_EPS.

    Each check is a (magnitude, name) pair; the magnitudes are scalars or
    arrays of one shape. The first failure in the order of first_failure is
    named, with its magnitude. NaN fails.
    """
    if clear(*(m for m, _ in checks)):
        return
    mags = [np.asarray(m) for m, _ in checks]
    k, j = first_failure(*(~(m > GUARD_EPS) for m in mags))
    raise SingularConfiguration(checks[j][1], float(mags[j].flat[k]))


class BranchDegenerate(QZerosError):
    """The square-root discriminant z^2 - 4*gamma*delta*q is (numerically) zero.

    The two q-shifted images z^(+) and z^(-) collide and the shift
    derivatives blow up.
    """


class NoConvergence(QZerosError):
    """A numerical kernel cannot reach its target accuracy: an iteration stalled, or the
    working precision cannot resolve the three-term recurrence."""


class LengthMismatch(QZerosError):
    """Spectrum lists of different lengths cannot be matched."""


class SingularTrajectory(QZerosError):
    """Flow integration hit a guard (position collision or step underflow).

    The samples accepted before the failure are attached as ``trajectory``.
    """

    def __init__(self, message: str, trajectory=None):
        self.trajectory = trajectory if trajectory is not None else []
        super().__init__(message)
