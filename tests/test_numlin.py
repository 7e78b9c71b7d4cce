import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from monomial_oracle import monomial_coefficients
from qzeros import awspec, polyform, racahspec
from qzeros.cli import run_verify
from qzeros.errors import DegenerateConfiguration, LengthMismatch
from qzeros.numlin import (
    _min_sum_assignment,
    christoffel_darboux_eigenvalues,
    compute_zero_set,
    eigenvalues,
    find_polynomial_zeros,
    match_spectra,
)
from qzeros.polyform import AWParams, RacahParams, Recurrence, recurrence_coefficients
from qzeros.sweeps import SplitMix64, draw_aw_params, draw_racah_params
from qzeros.zeroflow import FAMILIES


#: The seed-0 draw of every gate cell: both families, q in {0.3, 0.6}, N in {16, 20, 24}.
GATE_CELLS = [(f, q, n) for f in ("aw", "racah") for q in (0.3, 0.6) for n in (16, 20, 24)]


def product_recurrence(roots):
    """c = 0 decouples the recurrence: P_N(x) = prod (x - root)."""
    return Recurrence(b=tuple(complex(r) for r in roots), c=(0j,) * len(roots))


def zeros_of(rec):
    zeros, _ = find_polynomial_zeros(rec)
    return np.array([complex(z) for z in zeros])


class TestFindPolynomialZeros:
    def test_quadratic(self):
        # P_2 = (x - 3/2)^2 - 1/4 = (x-1)(x-2)
        rec = Recurrence(b=(1.5 + 0j, 1.5 + 0j), c=(0j, 0.25 + 0j))
        assert zeros_of(rec) == pytest.approx([1.0, 2.0])

    def test_aw_linear_anchor(self):
        p = AWParams(a=2, b=3, c=4, d=5, q=0.5, N=1)
        assert zeros_of(recurrence_coefficients(p)) == pytest.approx([10 / 17])

    def test_racah_linear_anchor(self):
        p = RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=1)
        assert zeros_of(recurrence_coefficients(p)) == pytest.approx([7.0])

    def test_near_degenerate_rejected(self):
        # zeros 1, 1+1e-12, 5: the first two are closer than 1e-8 * spread
        with pytest.raises(DegenerateConfiguration):
            find_polynomial_zeros(product_recurrence([1.0, 1 + 1e-12, 5.0]))

    def test_ordering_is_deterministic(self):
        rec = product_recurrence([2.0 + 1.0j, -1.0, 2.0 - 1.0j, 0.5])
        first = zeros_of(rec)
        second = zeros_of(rec)
        assert np.array_equal(first, second)
        assert list(first) == sorted(first, key=lambda z: (z.real, z.imag))

    def test_companion_and_polished_agree(self):
        # two independent routes to the same multiset: the Jacobi matrix of the
        # recurrence, and companion-matrix roots of the monomial expansion
        for seed in (1, 2, 3):
            p = draw_aw_params(SplitMix64(seed), 0.5, 8)
            polished = zeros_of(recurrence_coefficients(p, hp=True))
            seeds = np.roots(monomial_coefficients(p).coeffs[::-1])
            match = match_spectra(np.sort_complex(seeds), np.sort_complex(polished))
            assert match.max_rel_gap <= 1e-7


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([2.0 + 0j, 3.0]))
        assert sorted(vals.real) == pytest.approx([2.0, 3.0])

    def test_swap(self):
        vals = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert sorted(vals.real) == pytest.approx([-1.0, 1.0])

    def test_one_by_one(self):
        assert eigenvalues(np.array([[-119.0 + 0j]])) == pytest.approx([-119.0])

    def test_companion_matches_zero_finder(self):
        p = RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1 - 0.2j, q=0.6, N=3)
        zeros = zeros_of(recurrence_coefficients(p))
        coeffs = monomial_coefficients(p).coeffs
        monic = coeffs / coeffs[-1]
        comp = np.zeros((3, 3), dtype=complex)
        comp[1:, :-1] = np.eye(2)
        comp[:, -1] = -monic[:-1]
        match = match_spectra(eigenvalues(comp), zeros)
        assert match.max_rel_gap <= 1e-7

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def cd_basis(p, zs):
    """S_n = sqrt(P_{N-1}(t_n) / P_N'(t_n)) at the zeros t_n in the recurrence's variable."""
    rec = recurrence_coefficients(p)
    t = zs.zbar if zs.xbar is None else zs.xbar
    below = Recurrence(rec.b[:-1], rec.c[:-1]).value(t)
    return np.sqrt(below / np.array([rec.value_and_derivative(v)[1] for v in t]))


class TestChristoffelDarbouxBasis:
    # the verify-grid cells, all at q = 0.6, that failed the spectrum or isospectral check
    # with eigenvalues of M and L themselves
    CELLS = [("aw", 24, seed) for seed in (2, 7, 22, 23, 38)]
    CELLS += [("racah", 24, seed) for seed in (11, 15, 25, 26, 28)] + [("racah", 16, 29)]

    @pytest.mark.parametrize("family, n, seed", CELLS)
    def test_ill_conditioned_grid_cells_pass(self, family, n, seed):
        p = FAMILIES[family].draw(SplitMix64(seed), 0.6 + 0j, n)
        assert run_verify(p, seed=seed).passed

    @pytest.mark.parametrize("family", ["aw", "racah"])
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.5 + 0.2j, -0.4])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_similar_matrix_is_symmetric(self, family, q, n):
        fam = FAMILIES[family]
        p = fam.draw(SplitMix64(1), complex(q), n)
        zs = compute_zero_set(p)
        s = cd_basis(p, zs)
        a = fam.build_matrix(p, zs).entries * s / s[:, None]
        assert np.linalg.norm(a - a.T) <= 1e-12 * np.linalg.norm(a)

    def test_same_spectrum_as_the_raw_basis(self):
        p = draw_racah_params(SplitMix64(4), 0.5, 6)
        zs = compute_zero_set(p)
        entries = racahspec.build_matrix_L(p, zs).entries
        match = match_spectra(christoffel_darboux_eigenvalues(entries), eigenvalues(entries))
        assert match.max_rel_gap <= 1e-12

    @pytest.mark.parametrize("bad", ["zero", "nan"])
    def test_degenerate_basis_solves_the_raw_matrix(self, bad):
        # a one-sided zero couples no pair, so S = 1; a ratio that underflows gives S_1 = 0,
        # and a NaN in the scaled matrix
        entries = np.array([[1.0, 2.0], [0.0, 3.0]] if bad == "zero" else [[1, 1e300], [1e-300, 1]])
        vals = christoffel_darboux_eigenvalues(entries.astype(complex))
        assert np.array_equal(vals, eigenvalues(entries.astype(complex)))

    def test_symmetrizes_a_q_string_swept_cell(self):
        # the t = 0.5 re-solve of the Askey-Wilson seed-7 q = 0.6 N = 24 cell: its zeros hold
        # a q-string, where P_{N-1}(t_n) in double loses every digit; read off M, S still works
        fam = FAMILIES["aw"]
        p = fam.isospectral(fam.draw(SplitMix64(7), 0.6 + 0j, 24), 0.5)
        m = fam.build_matrix(p, compute_zero_set(p, polish=False))
        gap = lambda values: match_spectra(values, m.predicted).max_rel_gap
        assert gap(eigenvalues(m.entries)) > 1e-6
        assert gap(christoffel_darboux_eigenvalues(m.entries)) <= 1e-9


class TestMatchSpectra:
    def test_identical(self):
        vals = np.array([1.0 + 1j, 2.0, -3.0])
        match = match_spectra(vals, vals)
        assert match.max_abs_gap == 0.0

    def test_permuted(self):
        vals = np.array([1.0 + 1j, 2.0, -3.0])
        match = match_spectra(vals, vals[::-1])
        assert match.max_abs_gap == 0.0

    def test_half_gap(self):
        match = match_spectra(np.array([1.0, 2.0]), np.array([1.0, 2.5]))
        assert match.max_abs_gap == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            match_spectra(np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty(self):
        match = match_spectra(np.array([]), np.array([]))
        assert match.pairing.shape == (0,) and match.max_abs_gap == match.max_rel_gap == 0.0


def square_costs(elements):
    return st.integers(0, 30).flatmap(lambda n: hnp.arrays(float, (n, n), elements=elements))


#: (size, seed) of a numpy-drawn cost matrix.
SIZE_AND_SEED = (st.integers(0, 30), st.integers(0, 2**32 - 1))


class TestMinSumAssignment:
    """The pairing is scipy's linear_sum_assignment's, ties included, not only its total cost."""

    @staticmethod
    def same_as_scipy(cost):
        rows, cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, np.arange(len(cost)))
        assert np.array_equal(_min_sum_assignment(cost), cols)

    @settings(max_examples=100, deadline=None)
    @given(square_costs(st.floats(0.0, 1.0)))
    def test_uniform(self, cost):
        self.same_as_scipy(cost)

    @settings(max_examples=100, deadline=None)
    @given(square_costs(st.sampled_from([0.0, 1.0, 2.0])))
    def test_integer_ties(self, cost):
        self.same_as_scipy(cost)

    @settings(max_examples=100, deadline=None)
    @given(*SIZE_AND_SEED)
    def test_clustered_complex(self, n, seed):
        # |z_i - w_j| with repeated w and each z on a w or 1e-9 off it: the spectra's near-ties
        rng = np.random.default_rng(seed)
        centres = rng.normal(size=n // 3 + 1) + 1j * rng.normal(size=n // 3 + 1)
        w, z = rng.choice(centres, n), rng.choice(centres, n)
        z += 1e-9 * rng.integers(0, 2, n) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        self.same_as_scipy(np.abs(z[:, None] - w[None, :]))

    @settings(max_examples=100, deadline=None)
    @given(*SIZE_AND_SEED, st.sampled_from([0.0, 1e-12, 1e-3]))
    def test_near_identity(self, n, seed, scale):
        noise = np.random.default_rng(seed).normal(size=(n, n))
        self.same_as_scipy(np.abs(np.eye(n) + scale * noise))

    @pytest.mark.parametrize("entry", [np.nan, -np.inf])
    def test_invalid_entry_raises(self, entry):
        cost = np.ones((3, 3))
        cost[1, 2] = entry
        for solve in (linear_sum_assignment, _min_sum_assignment):
            with pytest.raises(ValueError, match="invalid numeric entries"):
                solve(cost)

    def test_row_without_a_finite_cost_raises(self):
        cost = np.ones((3, 3))
        cost[1] = np.inf
        for solve in (linear_sum_assignment, _min_sum_assignment):
            with pytest.raises(ValueError, match="infeasible"):
                solve(cost)


class TestComputeZeroSet:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            compute_zero_set(AWParams(a=2, b=3, c=4, d=5, q=0.5, N=0))

    def test_aw_fields(self):
        zs = compute_zero_set(AWParams(a=2, b=3, c=4, d=5, q=0.5, N=1))
        assert zs.params.family == "aw"
        assert zs.xbar == pytest.approx([10 / 17])
        assert zs.zbar == pytest.approx([(10 + 1j * np.sqrt(189)) / 17])
        assert zs.min_separation == np.inf
        assert np.all(zs.residuals <= 1e-10)

    def test_racah_fields(self):
        zs = compute_zero_set(RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=1))
        assert zs.params.family == "racah"
        assert zs.xbar is None
        assert zs.zbar == pytest.approx([7.0])

    def test_residual_bound_across_degrees(self):
        stream = SplitMix64(21)
        for n in (2, 5, 9):
            zs = compute_zero_set(draw_racah_params(stream, 0.4, n))
            assert np.all(zs.residuals <= 1e-10)
            assert zs.min_separation > 0


class TestRecurrenceZeroGate:
    """Correct zeros up to N = 24 at the fixed working precision, by measurement."""

    @pytest.mark.parametrize("family,q,n", GATE_CELLS)
    def test_identity_residual_and_doubled_precision(self, family, q, n, monkeypatch):
        draw = draw_aw_params if family == "aw" else draw_racah_params
        p = draw(SplitMix64(0), q, n)
        zs = compute_zero_set(p)
        residuals = (awspec.prop21_residuals if family == "aw" else racahspec.prop23_residuals)(
            p, zs
        )
        assert residuals.max() <= 1e-8

        monkeypatch.setattr(polyform, "WORKING_DPS", 2 * polyform.WORKING_DPS)
        doubled = compute_zero_set(p)
        assert doubled.recurrence_hp.dps == 2 * zs.recurrence_hp.dps
        with mpmath.workdps(doubled.recurrence_hp.dps):
            gaps = [abs(a - b) / max(1, abs(b)) for a, b in zip(zs.zeros_hp, doubled.zeros_hp)]
        assert max(gaps) <= 1e-30


#: Both families on seeded draws, q real, complex and negative, N up to 24.
PRECISION_CELLS = [
    (family, seed, q, n)
    for family in ("aw", "racah")
    for seed in (0, 1)
    for q in (0.3, 0.6, 0.5 + 0.2j, -0.4)
    for n in (1, 3, 10, 24)
]


class TestIdentityResidualPrecision:
    """The identity residuals run at working precision end to end.

    Measured at most 1.2e-27 on seeds 0-5, these q and N in {1, 2, 3, 4, 6,
    10, 16, 24}. Forming one product in double instead (alpha*q in B, or q*z
    in an Askey-Wilson argument) left every cell of that grid at 9.9e-19 or
    above.
    """

    @pytest.mark.parametrize("family,seed,q,n", PRECISION_CELLS)
    def test_residuals_far_below_double_rounding(self, family, seed, q, n):
        draw = draw_aw_params if family == "aw" else draw_racah_params
        p = draw(SplitMix64(seed), complex(q), n)
        residuals = (awspec.prop21_residuals if family == "aw" else racahspec.prop23_residuals)(
            p, compute_zero_set(p)
        )
        assert residuals.max() <= 1e-20
