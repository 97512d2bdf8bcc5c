"""Separability classification and logarithmic negativity."""

import math

import numpy as np
import pytest
from hypothesis import assume, given

from gce.core import PurityPoint, StandardForm, invariants, symplectic_spectrum
from gce.entangle import (
    RegionLabel,
    analytic_delta_slope,
    classify,
    coexistence_threshold,
    delta_monotonicity_check,
    is_separable,
    log_negativity,
    ppt_smallest_eigenvalue,
    region_code,
    separable_threshold,
)
from gce.errors import (
    MalformedInputError,
    OutOfRegionError,
    UnphysicalStateError,
)
from gce.param import delta_bounds, purity_point

from .helpers import physical_standard_forms, purity_quads, purity_triples

GMEMS_NMIN = 0.23623738417402668
GLEMS_NMIN = 0.24065730468333946


class TestPptSmallestEigenvalue:
    def test_pure_state(self):
        assert ppt_smallest_eigenvalue(PurityPoint(1.0, 1.0, 1.0, 0.5)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_most_entangled_delta(self):
        p = PurityPoint(0.5, 0.5, 0.6, 5.0 / 6.0)
        assert ppt_smallest_eigenvalue(p) == pytest.approx(GMEMS_NMIN, abs=1e-12)

    def test_least_entangled_delta(self):
        p = PurityPoint(0.5, 0.5, 0.6, 17.0 / 18.0)
        assert ppt_smallest_eigenvalue(p) == pytest.approx(GLEMS_NMIN, abs=1e-12)

    def test_requires_delta(self):
        with pytest.raises(MalformedInputError, match="no delta"):
            ppt_smallest_eigenvalue(PurityPoint(0.5, 0.5, 0.6))

    def test_rejects_delta_outside_bounds(self):
        with pytest.raises(OutOfRegionError, match="lies outside"):
            ppt_smallest_eigenvalue(PurityPoint(0.5, 0.5, 0.6, 2.0))

    def test_delta_inside_the_tolerance_band_above_delta_max(self):
        # The radicand turns slightly negative past delta_max; the range
        # check accepts the delta, so the eigenvalue must not raise.
        delta_max = delta_bounds(0.5, 0.5, 0.3)[1]
        at_edge = ppt_smallest_eigenvalue(PurityPoint(0.5, 0.5, 0.3, delta_max))
        inside_band = ppt_smallest_eigenvalue(PurityPoint(0.5, 0.5, 0.3, delta_max + 5e-10))
        assert inside_band == pytest.approx(at_edge, abs=1e-4)

    def test_tolerance_band_reaching_nonpositive_delta_tilde(self):
        # tol = 0.6 >= 1/(2 mu) admits delta = 1.05, where delta_tilde = -0.05
        # and no real spectrum exists: a GceError, not a math domain error.
        with pytest.raises(OutOfRegionError, match="delta_tilde"):
            ppt_smallest_eigenvalue(PurityPoint(1.0, 1.0, 1.0, 1.05), tol=0.6)

    @given(physical_standard_forms())
    def test_matches_matrix_spectrum(self, sf):
        p = purity_point(sf)
        via_purities = ppt_smallest_eigenvalue(p)
        via_matrix = symplectic_spectrum(invariants(sf), transposed=True).n_minus
        # nearly coincident partial-transpose roots cost half the digits in
        # both paths, so the razor-edge agreement is only ~1e-8
        assert via_purities == pytest.approx(via_matrix, abs=1e-7)

    @given(purity_quads())
    def test_increasing_in_delta(self, quad):
        mu1, mu2, mu, delta = quad
        lo, hi = delta_bounds(mu1, mu2, mu)
        n_lo = ppt_smallest_eigenvalue(PurityPoint(mu1, mu2, mu, lo))
        n_mid = ppt_smallest_eigenvalue(PurityPoint(mu1, mu2, mu, delta))
        n_hi = ppt_smallest_eigenvalue(PurityPoint(mu1, mu2, mu, hi))
        assert n_lo <= n_mid + 1e-12
        assert n_mid <= n_hi + 1e-12


class TestLogNegativity:
    def test_known_values(self):
        assert log_negativity(0.25) == pytest.approx(math.log(2.0), abs=1e-12)
        assert log_negativity(GMEMS_NMIN) == pytest.approx(0.7497709337957678, abs=1e-12)
        assert log_negativity(GLEMS_NMIN) == pytest.approx(0.7312341491618387, abs=1e-12)

    def test_clamps_to_zero_on_separable_input(self):
        assert log_negativity(0.5) == 0.0
        assert log_negativity(0.7) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf"), "x"])
    def test_rejects_nonpositive_or_non_finite(self, bad):
        with pytest.raises(MalformedInputError):
            log_negativity(bad)


class TestIsSeparable:
    def test_purity_point_paths(self):
        assert is_separable(PurityPoint(1.0, 1.0, 1.0, 0.5))
        assert not is_separable(PurityPoint(0.5, 0.5, 0.6, 5.0 / 6.0))

    def test_matrix_paths(self):
        assert is_separable(np.eye(4) * 0.5)
        assert is_separable(np.diag([1.0, 1.0, 1.0, 1.0]))
        r = 1.0
        tmsv = StandardForm(
            0.5 * math.cosh(2 * r),
            0.5 * math.cosh(2 * r),
            0.5 * math.sinh(2 * r),
            -0.5 * math.sinh(2 * r),
        )
        assert not is_separable(tmsv)

    def test_rejects_unphysical_matrix(self):
        with pytest.raises(UnphysicalStateError):
            is_separable(np.eye(4) * 0.2)

    def test_requires_delta_on_purity_point(self):
        with pytest.raises(MalformedInputError, match="no delta"):
            is_separable(PurityPoint(0.5, 0.5, 0.6))

    @given(physical_standard_forms())
    def test_purity_and_matrix_paths_agree(self, sf):
        n = symplectic_spectrum(invariants(sf), transposed=True).n_minus
        assume(abs(n - 0.5) > 1e-6)
        assert is_separable(sf) == is_separable(purity_point(sf))


class TestThresholds:
    def test_symmetric_half_purities(self):
        assert separable_threshold(0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert coexistence_threshold(0.5, 0.5) == pytest.approx(
            0.25 / math.sqrt(0.4375), abs=1e-15
        )
        assert coexistence_threshold(0.5, 0.5) == pytest.approx(
            0.3779644730092272, abs=1e-15
        )

    def test_pure_marginals_close_the_gap(self):
        assert separable_threshold(1.0, 1.0) == pytest.approx(1.0)
        assert coexistence_threshold(1.0, 1.0) == pytest.approx(1.0)

    @given(purity_triples())
    def test_ordering(self, triple):
        mu1, mu2, _ = triple
        t_sep = separable_threshold(mu1, mu2)
        t_coex = coexistence_threshold(mu1, mu2)
        assert mu1 * mu2 <= t_sep + 1e-12
        assert t_sep <= t_coex + 1e-12

    def test_vectorized(self):
        m1 = np.array([0.5, 1.0])
        m2 = np.array([0.5, 1.0])
        assert np.allclose(separable_threshold(m1, m2), [1.0 / 3.0, 1.0])
        assert np.allclose(
            coexistence_threshold(m1, m2), [0.3779644730092272, 1.0]
        )


class TestClassify:
    @pytest.mark.parametrize(
        "mu, label",
        [
            (0.3, RegionLabel.SEPARABLE),
            (1.0 / 3.0, RegionLabel.SEPARABLE),
            (0.35, RegionLabel.COEXISTENCE),
            (0.3779644730092272, RegionLabel.COEXISTENCE),
            (0.38, RegionLabel.ENTANGLED),
            (0.6, RegionLabel.ENTANGLED),
        ],
    )
    def test_symmetric_half_purities(self, mu, label):
        assert classify(0.5, 0.5, mu) is label

    def test_boundaries_flip_just_above(self):
        assert classify(0.5, 0.5, 1.0 / 3.0 + 1e-6) is RegionLabel.COEXISTENCE
        assert classify(0.5, 0.5, 0.3779644730092272 + 1e-6) is RegionLabel.ENTANGLED

    def test_labels_render_as_plain_strings(self):
        assert str(RegionLabel.SEPARABLE) == "separable"
        assert f"{RegionLabel.ENTANGLED}" == "entangled"

    def test_validates_input(self):
        with pytest.raises(OutOfRegionError):
            classify(0.5, 0.5, 0.2)
        with pytest.raises(MalformedInputError):
            classify(1.5, 0.5, 0.5)

    @given(purity_triples())
    def test_matches_vectorized_codes(self, triple):
        mu1, mu2, mu = triple
        label = classify(mu1, mu2, mu)
        code = int(region_code(np.array([mu1]), np.array([mu2]), np.array([mu]))[0])
        assert (RegionLabel.SEPARABLE, RegionLabel.COEXISTENCE,
                RegionLabel.ENTANGLED)[code] is label


class TestDeltaSlope:
    def test_finite_difference_matches_analytic(self):
        p = PurityPoint(0.5, 0.5, 0.6, 0.89)
        check = delta_monotonicity_check(p, 1e-5)
        assert check.analytic > 0.0
        assert check.finite_difference > 0.0
        assert check.finite_difference == pytest.approx(check.analytic, abs=1e-9)

    @given(purity_quads(mu_min=0.35))
    def test_positive_on_interior_points(self, quad):
        mu1, mu2, mu, delta = quad
        lo, hi = delta_bounds(mu1, mu2, mu)
        width = hi - lo
        assume(width > 1e-3)
        h = 1e-6 * width
        margin = max(10.0 * h, 0.05 * width)
        assume(lo + margin < delta < hi - margin)
        check = delta_monotonicity_check(PurityPoint(mu1, mu2, mu, delta), h)
        assert check.analytic > 0.0
        assert check.finite_difference > 0.0
        assert check.finite_difference == pytest.approx(
            check.analytic, rel=1e-4, abs=1e-10
        )

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(OutOfRegionError, match="degenerate"):
            analytic_delta_slope(PurityPoint(1.0, 1.0, 1.0, 0.5))

    def test_step_validation(self):
        p = PurityPoint(0.5, 0.5, 0.6, 0.89)
        with pytest.raises(MalformedInputError, match="step must be positive"):
            delta_monotonicity_check(p, 0.0)
        with pytest.raises(MalformedInputError, match="step must be positive"):
            delta_monotonicity_check(p, -1e-5)
        with pytest.raises(OutOfRegionError, match="exits the valid delta range"):
            delta_monotonicity_check(p, 0.2)

    def test_requires_delta(self):
        with pytest.raises(MalformedInputError, match="no delta"):
            analytic_delta_slope(PurityPoint(0.5, 0.5, 0.6))
