"""Purity parametrization: constraints, delta bounds, and inversion."""

import json
import math

import numpy as np
import pytest
from hypothesis import given

from gce.core import (
    PURITY_FLOOR,
    PurityPoint,
    StandardForm,
    default_tolerance,
    invariants,
    symplectic_spectrum,
)
from gce.errors import InactiveBranchError, MalformedInputError, OutOfRegionError
from gce.estimator import estimate
from gce.extremal import glems, glems_closed_form, gmems
from gce.param import (
    check_purity_constraints,
    delta_bounds,
    inversion_arrays,
    purity_arrays,
    purity_from_json,
    purity_masks,
    purity_point,
    purity_to_json,
    require_valid_purities,
    standard_form_from_purities,
)

from .helpers import physical_standard_forms, purity_quads, purity_triples


class TestCheckPurityConstraints:
    @pytest.mark.parametrize(
        "triple",
        [(1.0, 1.0, 1.0), (0.5, 0.5, 0.25), (0.5, 0.5, 1.0), (0.8, 0.4, 0.4)],
    )
    def test_accepts_valid_triples(self, triple):
        diag = check_purity_constraints(*triple)
        assert diag
        assert diag.reason == "purities are consistent"

    def test_rejects_product_lower_bound(self):
        diag = check_purity_constraints(0.5, 0.5, 0.2)
        assert not diag
        assert "mu >= mu1*mu2" in diag.reason

    def test_rejects_upper_bound(self):
        # max attainable global purity for (0.8, 0.4) is 4/9 < 0.6
        diag = check_purity_constraints(0.8, 0.4, 0.6)
        assert not diag
        assert "mu <=" in diag.reason

    def test_rejects_out_of_domain(self):
        assert "outside (0, 1]" in check_purity_constraints(1.2, 0.5, 0.5).reason
        assert "outside (0, 1]" in check_purity_constraints(0.5, 0.0, 0.2).reason
        assert not check_purity_constraints(float("nan"), 0.5, 0.2)

    def test_boundary_is_closed_with_tolerance(self):
        assert check_purity_constraints(0.5, 0.5, 0.25 - 1e-12)
        assert not check_purity_constraints(0.5, 0.5, 0.25 - 1e-6)

    def test_rejects_purities_below_the_floor(self):
        diag = check_purity_constraints(1e-200, 1e-200, 1e-300)
        assert not diag
        assert "purity floor" in diag.reason


NAN, INF = float("nan"), float("inf")


class TestPurityMasks:
    TRIPLES = [
        ((0.5, 0.5, 0.3), True, True),
        ((0.5, 0.5, 0.25 - 5e-10), True, True),
        ((0.5, 0.5, 0.2), True, False),
        ((0.8, 0.4, 0.6), True, False),
        ((1.5, 0.5, 0.5), False, False),
        ((0.0, 0.0, 0.0), False, False),
        ((-2.0, 2.0, 0.5), False, False),
        ((NAN, 0.5, 0.5), False, False),
        ((INF, INF, 0.5), False, False),
        ((1e200, 1e200, 1.0), False, False),
        ((1e-200, 1e-200, 1e-300), False, False),
        ((1e-6, 1e-6, 1e-80), False, False),
    ]

    def test_floats_and_arrays_agree_without_warnings(self):
        triples = [t for t, _, _ in self.TRIPLES]
        in_domain, accepted = purity_masks(*(np.array(c) for c in zip(*triples)), 1e-9)
        assert in_domain.tolist() == [d for _, d, _ in self.TRIPLES]
        assert accepted.tolist() == [a for _, _, a in self.TRIPLES]
        for i, triple in enumerate(triples):
            assert purity_masks(*triple, 1e-9) == (in_domain[i], accepted[i])

    @pytest.mark.parametrize("triple", [
        (PURITY_FLOOR, PURITY_FLOOR, PURITY_FLOOR),
        (PURITY_FLOOR, 1.0, PURITY_FLOOR),
        (PURITY_FLOOR, PURITY_FLOOR, 1.0),
    ])
    def test_triples_at_the_floor_give_finite_results(self, triple):
        assert purity_masks(*triple, 1e-9) == (True, True)
        result = estimate(*triple)
        numbers = [result.en_min, result.en_max, *delta_bounds(*triple),
                   *gmems(*triple).as_tuple(), *glems(*triple).as_tuple()]
        try:
            numbers += glems_closed_form(*triple).as_tuple()
        except InactiveBranchError:
            pass
        assert all(math.isfinite(x) for x in numbers)


class TestRequireValidPurities:
    def test_scalar_domain_error(self):
        with pytest.raises(MalformedInputError, match="outside"):
            require_valid_purities(1.5, 0.5, 0.5)

    def test_scalar_constraint_error(self):
        with pytest.raises(OutOfRegionError, match="mu >= mu1\\*mu2"):
            require_valid_purities(0.5, 0.5, 0.2)

    def test_scalar_purity_floor(self):
        with pytest.raises(MalformedInputError, match="purity floor 1e-30"):
            require_valid_purities(1e-200, 1e-200, 1e-300)
        with pytest.raises(MalformedInputError, match="purity floor"):
            PurityPoint(1e-200, 1e-200, 1e-300)

    def test_scalar_non_numeric(self):
        with pytest.raises(MalformedInputError, match="not numeric"):
            require_valid_purities("x", 0.5, 0.5)

    def test_array_counts_offenders(self):
        mu1 = np.array([0.5, 0.5, 0.5])
        mu2 = np.array([0.5, 0.5, 0.5])
        mu = np.array([0.3, 0.1, 0.2])
        with pytest.raises(OutOfRegionError, match="2 purity triples"):
            require_valid_purities(mu1, mu2, mu)

    def test_array_domain_counts(self):
        with pytest.raises(MalformedInputError, match="1 purity triple"):
            require_valid_purities(
                np.array([0.5, 2.0]), np.array([0.5, 0.5]), np.array([0.3, 0.3])
            )

    def test_scalar_triple_comes_back_as_python_floats(self):
        values = require_valid_purities(0.5, 0.5, 0.3)
        assert values == (0.5, 0.5, 0.3)
        assert [type(v) for v in values] == [float, float, float]

    def test_passes_silently(self):
        require_valid_purities(0.5, 0.5, 0.3)
        require_valid_purities(np.array([0.5, 1.0]), np.array([0.5, 1.0]),
                               np.array([0.3, 1.0]))


class TestDeltaBounds:
    @pytest.mark.parametrize(
        "triple, expected",
        [
            ((0.5, 0.5, 0.25), (2.0, 2.0)),
            ((1.0, 1.0, 1.0), (0.5, 0.5)),
            ((0.5, 0.5, 0.6), (5.0 / 6.0, 17.0 / 18.0)),
        ],
    )
    def test_known_values(self, triple, expected):
        lo, hi = delta_bounds(*triple)
        assert lo == pytest.approx(expected[0], abs=1e-12)
        assert hi == pytest.approx(expected[1], abs=1e-12)

    def test_symmetric_mid_purity(self):
        lo, hi = delta_bounds(0.5, 0.5, 0.6)
        assert lo == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert hi == pytest.approx(0.5 / 0.6 + 1.0 / 9.0, abs=1e-12)
        assert hi == pytest.approx(0.9444444444444444, abs=1e-12)

    def test_pure_state_pins_delta(self):
        lo, hi = delta_bounds(1.0, 1.0, 1.0)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(0.5)

    @given(purity_triples())
    def test_ordering(self, triple):
        lo, hi = delta_bounds(*triple)
        assert lo <= hi + 1e-12

    @given(purity_triples())
    def test_array_matches_scalar(self, triple):
        mu1, mu2, mu = triple
        lo_s, hi_s = delta_bounds(mu1, mu2, mu)
        lo_a, hi_a = delta_bounds(np.array([mu1]), np.array([mu2]), np.array([mu]))
        assert lo_a[0] == pytest.approx(lo_s, rel=1e-14, abs=1e-14)
        assert hi_a[0] == pytest.approx(hi_s, rel=1e-14, abs=1e-14)

    def test_rejects_invalid_triple(self):
        with pytest.raises(OutOfRegionError):
            delta_bounds(0.5, 0.5, 0.2)


class TestPurityPoint:
    def test_thermal_product_example(self):
        p = purity_point((1.0, 1.0, 0.0, 0.0))
        assert p.mu1 == pytest.approx(0.5)
        assert p.mu2 == pytest.approx(0.5)
        assert p.mu == pytest.approx(0.25)
        assert p.delta == pytest.approx(2.0)

    def test_accepts_standard_form(self):
        sf = StandardForm(1.0, 1.0, 0.7, -0.7)
        p = purity_point(sf)
        inv = invariants(sf)
        assert p.mu == pytest.approx(1.0 / (4.0 * math.sqrt(inv.det_sigma)), rel=1e-12)
        assert p.delta == pytest.approx(inv.delta, rel=1e-12)

    @pytest.mark.parametrize("mu1, mu2", [(0.5, 0.4), (0.8, 0.4), (0.3, 0.9)])
    def test_construction_accepts_the_strip_within_eight_tolerances(self, mu1, mu2):
        tol = 8.0 * default_tolerance()
        lower = mu1 * mu2
        upper = lower / (lower + abs(mu1 - mu2))
        for mu in (lower - tol + 1e-12, lower, upper, upper + tol - 1e-12):
            PurityPoint(mu1, mu2, mu)
        for mu, rule in ((lower - tol - 1e-12, "mu >= mu1\\*mu2"),
                         (upper + tol + 1e-12, "mu <= mu1\\*mu2/")):
            with pytest.raises(OutOfRegionError, match=rule):
                PurityPoint(mu1, mu2, mu)
        PurityPoint(1.0 + tol - 1e-12, 1.0, 1.0)
        with pytest.raises(MalformedInputError, match="outside"):
            PurityPoint(1.0 + tol + 1e-12, 1.0, 1.0)

    def test_rejects_unphysical_entries(self):
        from gce.errors import UnphysicalStateError

        with pytest.raises(UnphysicalStateError):
            purity_point((1.0, 1.0, 0.99, 0.99))

    @given(physical_standard_forms())
    def test_matches_purity_arrays(self, sf):
        p = purity_point(sf)
        mu1, mu2, mu, delta = purity_arrays(sf.a, sf.b, sf.c_plus, sf.c_minus)
        assert p.mu1 == pytest.approx(float(mu1), rel=1e-12)
        assert p.mu2 == pytest.approx(float(mu2), rel=1e-12)
        assert p.mu == pytest.approx(float(mu), rel=1e-12)
        assert p.delta == pytest.approx(float(delta), rel=1e-12)


class TestStandardFormFromPurities:
    def test_thermal_product_example(self):
        from gce.core import PurityPoint

        sf = standard_form_from_purities(PurityPoint(0.5, 0.5, 0.25, 2.0))
        assert sf.a == pytest.approx(1.0, abs=1e-12)
        assert sf.b == pytest.approx(1.0, abs=1e-12)
        assert sf.c_plus == pytest.approx(0.0, abs=1e-9)
        assert sf.c_minus == pytest.approx(0.0, abs=1e-9)

    def test_requires_delta(self):
        from gce.core import PurityPoint

        with pytest.raises(MalformedInputError, match="delta is required"):
            standard_form_from_purities(PurityPoint(0.5, 0.5, 0.3))

    def test_rejects_delta_outside_bounds(self):
        from gce.core import PurityPoint

        lo, hi = delta_bounds(0.5, 0.5, 0.6)
        with pytest.raises(OutOfRegionError, match="below delta_min"):
            standard_form_from_purities(PurityPoint(0.5, 0.5, 0.6, lo - 1e-6))
        with pytest.raises(OutOfRegionError, match="above delta_max"):
            standard_form_from_purities(PurityPoint(0.5, 0.5, 0.6, hi + 1e-6))

    def test_boundary_deltas_snap_inside(self):
        from gce.core import PurityPoint

        lo, hi = delta_bounds(0.5, 0.5, 0.6)
        for delta in (lo - 1e-10, hi + 1e-10):
            sf = standard_form_from_purities(PurityPoint(0.5, 0.5, 0.6, delta))
            assert sf.a == pytest.approx(1.0, abs=1e-9)

    @given(purity_quads())
    def test_round_trip_through_standard_form(self, quad):
        mu1, mu2, mu, delta = quad
        from gce.core import PurityPoint

        sf = standard_form_from_purities(PurityPoint(mu1, mu2, mu, delta))
        back = purity_point(sf)
        assert back.mu1 == pytest.approx(mu1, abs=1e-9)
        assert back.mu2 == pytest.approx(mu2, abs=1e-9)
        assert back.mu == pytest.approx(mu, abs=1e-9)
        assert back.delta == pytest.approx(delta, abs=1e-9)

    @given(physical_standard_forms())
    def test_reconstruction_matches_source_invariants(self, sf):
        p = purity_point(sf)
        rebuilt = standard_form_from_purities(p)
        src = symplectic_spectrum(invariants(sf))
        dst = symplectic_spectrum(invariants(rebuilt))
        # products and sums of the roots are stable; the split itself loses
        # half the digits where the roots nearly coincide
        assert dst.n_minus * dst.n_plus == pytest.approx(
            src.n_minus * src.n_plus, rel=1e-9
        )
        assert dst.n_minus**2 + dst.n_plus**2 == pytest.approx(
            src.n_minus**2 + src.n_plus**2, rel=1e-9
        )
        assert dst.n_minus == pytest.approx(src.n_minus, abs=1e-7)
        assert dst.n_plus == pytest.approx(src.n_plus, abs=1e-7)


class TestInversionArrays:
    def test_vectorized_matches_scalar_construction(self):
        from gce.core import PurityPoint

        mu1 = np.array([0.5, 0.7, 0.9])
        mu2 = np.array([0.5, 0.4, 0.8])
        mu = np.array([0.6, 0.4, 0.85])
        lo, hi = delta_bounds(mu1, mu2, mu)
        delta = 0.5 * (lo + hi)
        a, b, c_plus, c_minus = inversion_arrays(mu1, mu2, mu, delta)
        for i in range(3):
            sf = standard_form_from_purities(
                PurityPoint(mu1[i], mu2[i], mu[i], delta[i])
            )
            assert a[i] == pytest.approx(sf.a, abs=1e-12)
            assert b[i] == pytest.approx(sf.b, abs=1e-12)
            assert c_plus[i] == pytest.approx(sf.c_plus, abs=1e-12)
            assert c_minus[i] == pytest.approx(sf.c_minus, abs=1e-12)


class TestPurityJson:
    def test_round_trip_with_delta(self):
        from gce.core import PurityPoint

        p = PurityPoint(0.5, 0.5, 0.6, 0.9)
        back = purity_from_json(purity_to_json(p))
        assert (back.mu1, back.mu2, back.mu, back.delta) == (0.5, 0.5, 0.6, 0.9)

    def test_round_trip_without_delta(self):
        from gce.core import PurityPoint

        p = PurityPoint(0.5, 0.5, 0.6)
        payload = json.loads(purity_to_json(p))
        assert payload["delta"] is None
        assert purity_from_json(purity_to_json(p)).delta is None

    @pytest.mark.parametrize(
        "text",
        ["nope", "[]", '{"mu1": 0.5, "mu2": 0.5}', '{"mu1": 0.5, "mu2": 0.5, "mu": "x"}'],
    )
    def test_rejects_bad_payloads(self, text):
        with pytest.raises(MalformedInputError):
            purity_from_json(text)
