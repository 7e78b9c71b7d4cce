"""The q-Pochhammer product, the one q-series primitive the pipeline uses.

(c;q)_n is accumulated iteratively, never through logarithms, so an exactly
vanishing factor yields an exact zero, and powers of q are grown by
repeated multiplication instead of exponentials to keep complex-branch
behavior trivial. The parameter checks of ``polyform`` test each factor
instead: near q = 1 the product underflows to 0 with no factor 0. The q-series
sums, the modified q-Pochhammer symbol, the terminating 4phi3 and the
q^(-N^2) determinant product live in ``tests/qseries_oracle.py``.
"""

from __future__ import annotations

#: Alias used throughout the package for dimensionless complex scalars.
ComplexScalar = complex


def qpochhammer(c: ComplexScalar, q: ComplexScalar, n: int) -> ComplexScalar:
    """(c;q)_n = prod_{k=0}^{n-1} (1 - c q^k); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"q-Pochhammer order must be nonnegative, got {n}")
    out = 1.0 + 0.0j
    cqk = complex(c)
    for _ in range(n):
        out *= 1.0 - cqk
        cqk *= q
    return out
