"""Deterministic random parameter generation for sweeps.

The generator is part of the external contract so that independent
implementations can reproduce identical parameter sets from the same seed:

* splitmix64 core: state advances by 0x9E3779B97F4A7C15 (mod 2^64); each
  output mixes z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31.
* uniform doubles in [0, 1) take the top 53 bits: (z >> 11) * 2^-53.
* a complex parameter consumes two uniforms u1, u2 in that order and is
  modulus * exp(2*pi*i*phase) with modulus = 0.2 + 2.8*u1, phase = u2.
* an Askey-Wilson draw consumes a, b, c, d in that order; a q-Racah draw
  consumes alpha, beta, gamma, delta. Draws that violate the family
  invariants are discarded and redrawn from the same stream.
"""

from __future__ import annotations

import cmath

from .errors import QZerosError
from .polyform import AWParams, RacahParams

MODULUS_MIN = 0.2
MODULUS_MAX = 3.0
#: Draws tried before a sweep gives up on a base q and degree N.
MAX_DRAW_ATTEMPTS = 100

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The splitmix64 pseudo-random stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def next_param(self) -> complex:
        modulus = MODULUS_MIN + (MODULUS_MAX - MODULUS_MIN) * self.next_float()
        phase = self.next_float()
        return modulus * cmath.exp(2j * cmath.pi * phase)


def _draw(params_type, title: str, stream: SplitMix64, q: complex, N: int):
    """The first admissible parameter set of params_type that the stream yields."""
    for _ in range(MAX_DRAW_ATTEMPTS):
        values = [stream.next_param() for _ in range(4)]
        try:
            return params_type(*values, q=q, N=N)
        except (QZerosError, ValueError):
            continue
    raise QZerosError(f"no admissible {title} draw within {MAX_DRAW_ATTEMPTS} attempts")


def draw_aw_params(stream: SplitMix64, q: complex, N: int) -> AWParams:
    """Draw a valid Askey-Wilson parameter set (a, b, c, d) from the stream."""
    return _draw(AWParams, "Askey-Wilson", stream, q, N)


def draw_racah_params(stream: SplitMix64, q: complex, N: int) -> RacahParams:
    """Draw a valid q-Racah parameter set (alpha, beta, gamma, delta) from the stream."""
    return _draw(RacahParams, "q-Racah", stream, q, N)


def unit_direction(stream: SplitMix64, n: int) -> list[complex]:
    """A deterministic unit vector of n complex entries from the stream."""
    raw = [
        (0.5 + stream.next_float()) * cmath.exp(2j * cmath.pi * stream.next_float())
        for _ in range(n)
    ]
    total = sum(abs(v) ** 2 for v in raw) ** 0.5
    return [v / total for v in raw]
