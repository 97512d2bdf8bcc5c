"""Purity-only entanglement bounds and the midpoint estimator."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gce.core import PurityPoint, default_tolerance, invariants, symplectic_spectrum
from gce.entangle import (
    RegionLabel,
    coexistence_threshold,
    log_negativity,
    separable_threshold,
)
from gce.errors import MalformedInputError, OutOfRegionError
from gce.estimator import (
    en_max,
    en_min,
    entanglement_report,
    estimate,
    estimate_arrays,
    relative_error,
)
from gce.extremal import glems, gmems
from gce.param import purity_point

from .helpers import physical_standard_forms, purity_triples, unit_floats

EN_MAX_ANCHOR = 0.7497709337957678
EN_MIN_ANCHOR = 0.7312341491618387


def exact_log_negativity(sf):
    return log_negativity(
        symplectic_spectrum(invariants(sf), transposed=True).n_minus
    )


class TestBounds:
    def test_anchor_values(self):
        assert en_max(0.5, 0.5, 0.6) == pytest.approx(EN_MAX_ANCHOR, abs=1e-12)
        assert en_min(0.5, 0.5, 0.6) == pytest.approx(EN_MIN_ANCHOR, abs=1e-12)

    def test_exact_zero_at_thresholds(self):
        t_sep = separable_threshold(0.5, 0.5)
        t_coex = coexistence_threshold(0.5, 0.5)
        hi = en_max(0.5, 0.5, t_sep)
        lo = en_min(0.5, 0.5, t_coex)
        assert hi == 0.0 and math.copysign(1.0, hi) == 1.0
        assert lo == 0.0 and math.copysign(1.0, lo) == 1.0

    def test_exact_zero_below_thresholds(self):
        assert en_max(0.5, 0.5, 0.3) == 0.0
        assert en_min(0.5, 0.5, 0.35) == 0.0

    def test_positive_above_thresholds(self):
        assert en_max(0.5, 0.5, separable_threshold(0.5, 0.5) + 1e-8) > 0.0
        assert en_min(0.5, 0.5, coexistence_threshold(0.5, 0.5) + 1e-8) > 0.0

    def test_array_input_matches_scalars(self):
        mu1 = np.array([0.5, 0.5, 0.8])
        mu2 = np.array([0.5, 0.5, 0.4])
        mu = np.array([0.3, 0.6, 0.4])
        hi = en_max(mu1, mu2, mu)
        lo = en_min(mu1, mu2, mu)
        assert isinstance(hi, np.ndarray)
        for i in range(3):
            assert hi[i] == en_max(float(mu1[i]), float(mu2[i]), float(mu[i]))
            assert lo[i] == en_min(float(mu1[i]), float(mu2[i]), float(mu[i]))

    def test_validation(self):
        with pytest.raises(OutOfRegionError):
            en_max(0.5, 0.5, 0.2)
        with pytest.raises(MalformedInputError):
            en_min(1.5, 0.5, 0.5)

    def test_array_rejects_purities_below_the_floor(self):
        # mu1*mu2 underflows to 0 here; the triple must be rejected, not
        # compared against nan and accepted.
        with pytest.raises(MalformedInputError, match="purity floor"):
            en_max(np.array([0.5, 1e-200]), np.array([0.5, 1e-200]),
                   np.array([0.6, 1e-300]))

    @given(purity_triples())
    def test_matches_extremal_constructions(self, triple):
        mu1, mu2, mu = triple
        assert en_max(mu1, mu2, mu) == pytest.approx(
            exact_log_negativity(gmems(mu1, mu2, mu)), abs=1e-9
        )
        assert en_min(mu1, mu2, mu) == pytest.approx(
            exact_log_negativity(glems(mu1, mu2, mu)), abs=1e-9
        )

    @given(purity_triples())
    def test_ordering(self, triple):
        mu1, mu2, mu = triple
        hi = en_max(mu1, mu2, mu)
        lo = en_min(mu1, mu2, mu)
        assert hi >= 0.0
        assert lo >= 0.0
        assert hi >= lo - 1e-12

    @given(physical_standard_forms())
    def test_bounds_contain_exact_value(self, sf):
        # 1e-7 slack: splitting nearly equal partial-transpose roots leaves
        # ~1e-8 noise in the exact value near the pure-state boundary
        p = purity_point(sf)
        exact = exact_log_negativity(sf)
        assert en_min(p.mu1, p.mu2, p.mu) - 1e-7 <= exact
        assert exact <= en_max(p.mu1, p.mu2, p.mu) + 1e-7


class TestRelativeError:
    def test_formula(self):
        assert relative_error(3.0, 1.0) == pytest.approx(0.5)
        assert relative_error(1.0, 1.0) == 0.0
        assert relative_error(1.0, 0.0) == 1.0

    def test_zero_when_both_bounds_vanish(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_vectorized(self):
        out = relative_error(np.array([3.0, 0.0]), np.array([1.0, 0.0]))
        assert out.tolist() == [0.5, 0.0]


class TestEstimate:
    def test_anchor_point(self):
        result = estimate(0.5, 0.5, 0.6)
        assert result.en_max == pytest.approx(EN_MAX_ANCHOR, abs=1e-12)
        assert result.en_min == pytest.approx(EN_MIN_ANCHOR, abs=1e-12)
        assert result.en_avg == pytest.approx(0.7405025414788032, abs=1e-12)
        assert result.rel_err == pytest.approx(0.012516354499547428, abs=1e-12)
        assert result.region is RegionLabel.ENTANGLED

    def test_separable_region(self):
        result = estimate(0.5, 0.5, 0.3)
        assert result.en_max == 0.0
        assert result.en_min == 0.0
        assert result.rel_err == 0.0
        assert result.region is RegionLabel.SEPARABLE

    def test_coexistence_region_has_unit_relative_error(self):
        result = estimate(0.5, 0.5, 0.35)
        assert result.en_max > 0.0
        assert result.en_min == 0.0
        assert result.rel_err == 1.0
        assert result.region is RegionLabel.COEXISTENCE

    def test_pure_global_state_pins_the_bounds(self):
        result = estimate(0.7, 0.7, 1.0)
        assert result.en_max == pytest.approx(result.en_min, abs=1e-9)
        assert result.rel_err == pytest.approx(0.0, abs=1e-9)

    @given(purity_triples())
    def test_coherence(self, triple):
        result = estimate(*triple)
        assert 0.0 <= result.en_min <= result.en_avg <= result.en_max
        assert 0.0 <= result.rel_err <= 1.0
        if result.region is RegionLabel.SEPARABLE:
            assert result.en_min == 0.0
        if result.region is RegionLabel.ENTANGLED:
            t_coex = coexistence_threshold(triple[0], triple[1])
            if triple[2] > t_coex + 1e-6:
                assert result.en_min > 0.0


@st.composite
def wide_triples(draw):
    """Valid triples beyond the default strategy: log-uniform asymmetric
    marginals down to 1e-6, near-pure marginals, global purities inside the
    tolerance collar of a region threshold, and global purities on the upper
    strip edge, where en_min rounds above en_max in about one case in ten."""
    kind = draw(st.sampled_from(("asymmetric", "near-pure", "collar", "upper edge")))
    if kind == "near-pure":
        mu1, mu2 = (1.0 - 10.0 ** draw(st.floats(-12.0, -1.0)) for _ in range(2))
    else:
        mu1, mu2 = (10.0 ** draw(st.floats(-6.0, 0.0)) for _ in range(2))
    if draw(st.booleans()):
        mu2 = mu1
    lower = mu1 * mu2
    upper = lower / (lower + abs(mu1 - mu2))
    if kind == "collar":
        threshold = draw(st.sampled_from((separable_threshold, coexistence_threshold)))
        step = draw(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)))
        mu = min(max(threshold(mu1, mu2) + step * default_tolerance(), lower), upper)
    elif kind == "upper edge":
        mu = upper
    else:
        mu = lower + draw(unit_floats) * (upper - lower)
    return mu1, mu2, mu


class TestEstimateArrays:
    @given(st.lists(wide_triples(), min_size=1, max_size=16))
    def test_matches_scalar_estimate_exactly(self, triples):
        mu1, mu2, mu = (np.array(column) for column in zip(*triples))
        region, lo, hi, avg, rel = estimate_arrays(mu1, mu2, mu, default_tolerance())
        labels = list(RegionLabel)
        for i, triple in enumerate(triples):
            r = estimate(*triple)
            assert labels[region[i]] is r.region
            assert (lo[i], hi[i], avg[i], rel[i]) == (r.en_min, r.en_max, r.en_avg, r.rel_err)

    def test_region_clamp(self):
        t_sep = separable_threshold(0.5, 0.5)
        t_coex = coexistence_threshold(0.5, 0.5)
        mu = np.array([t_sep + 0.5e-9, t_coex + 0.5e-9, 0.6])
        region, lo, hi, _, _ = estimate_arrays(np.full(3, 0.5), np.full(3, 0.5), mu, 1e-9)
        assert region.tolist() == [0, 1, 2]
        assert hi[0] == 0.0 and en_max(0.5, 0.5, mu[0]) > 0.0
        assert lo[1] == 0.0 and en_min(0.5, 0.5, mu[1]) > 0.0
        assert 0.0 < lo[2] < hi[2]


class TestEntanglementReport:
    def test_with_delta(self):
        report = entanglement_report(PurityPoint(0.5, 0.5, 0.6, 5.0 / 6.0))
        assert report.region is RegionLabel.ENTANGLED
        assert report.n_tilde_minus == pytest.approx(0.23623738417402668, abs=1e-12)
        assert report.log_negativity == pytest.approx(EN_MAX_ANCHOR, abs=1e-12)
        assert report.en_max == pytest.approx(EN_MAX_ANCHOR, abs=1e-12)

    def test_without_delta(self):
        report = entanglement_report(PurityPoint(0.5, 0.5, 0.6))
        assert report.n_tilde_minus is None
        assert report.log_negativity is None
        assert report.en_max == pytest.approx(EN_MAX_ANCHOR, abs=1e-12)
        assert report.en_min == pytest.approx(EN_MIN_ANCHOR, abs=1e-12)

    def test_rejects_delta_outside_bounds(self):
        with pytest.raises(OutOfRegionError):
            entanglement_report(PurityPoint(0.5, 0.5, 0.6, 3.0))

    @given(physical_standard_forms())
    def test_containment(self, sf):
        report = entanglement_report(purity_point(sf))
        assert report.en_min - 1e-7 <= report.log_negativity
        assert report.log_negativity <= report.en_max + 1e-7
