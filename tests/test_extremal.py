"""Extremal state constructions at fixed purities."""

import math

import pytest
from hypothesis import example, given

from gce.core import invariants, is_physical, symplectic_spectrum
from gce.entangle import (
    is_separable,
    log_negativity,
    separable_threshold,
    coexistence_threshold,
)
from gce.errors import (
    InactiveBranchError,
    MalformedInputError,
    OutOfRegionError,
)
from gce.extremal import (
    SqueezedThermalParams,
    glems,
    glems_closed_form,
    gmemms,
    gmems,
    gmems_squeezing,
    squeezed_thermal,
)
from gce.param import delta_bounds, purity_point

from .helpers import purity_triples


def ppt_n_minus(sf):
    return symplectic_spectrum(invariants(sf), transposed=True).n_minus


def max_entry_gap(sf1, sf2):
    return max(
        abs(sf1.a - sf2.a),
        abs(sf1.b - sf2.b),
        abs(sf1.c_plus - sf2.c_plus),
        abs(sf1.c_minus - sf2.c_minus),
    )


class TestGmems:
    def test_symmetric_example(self):
        sf = gmems(0.5, 0.5, 0.6)
        assert sf.a == pytest.approx(1.0, abs=1e-15)
        assert sf.b == pytest.approx(1.0, abs=1e-15)
        assert sf.c_plus == pytest.approx(0.7637626158259733, abs=1e-12)
        assert sf.c_minus == pytest.approx(-sf.c_plus, abs=1e-15)

    def test_pure_limit_log_negativity(self):
        sf = gmems(0.5, 0.5, 1.0)
        assert log_negativity(ppt_n_minus(sf)) == pytest.approx(
            -math.log(2.0 - math.sqrt(3.0)), abs=1e-12
        )

    def test_zero_entanglement_at_separable_threshold(self):
        mu = separable_threshold(0.5, 0.5)
        assert log_negativity(ppt_n_minus(gmems(0.5, 0.5, mu))) == 0.0

    def test_rejects_invalid_purities(self):
        with pytest.raises(OutOfRegionError):
            gmems(0.5, 0.5, 0.2)
        with pytest.raises(MalformedInputError):
            gmems(0.5, 0.5, "x")

    @given(purity_triples())
    def test_realizes_purities_at_delta_min(self, triple):
        mu1, mu2, mu = triple
        p = purity_point(gmems(mu1, mu2, mu))
        lo, _ = delta_bounds(mu1, mu2, mu)
        assert p.mu1 == pytest.approx(mu1, rel=1e-9)
        assert p.mu2 == pytest.approx(mu2, rel=1e-9)
        assert p.mu == pytest.approx(mu, rel=1e-9)
        assert p.delta == pytest.approx(lo, rel=1e-9, abs=1e-9)

    @given(purity_triples())
    def test_is_physical(self, triple):
        assert is_physical(gmems(*triple))


class TestGlems:
    def test_symmetric_example(self):
        sf = glems(0.5, 0.5, 0.6)
        p = purity_point(sf)
        assert p.delta == pytest.approx(17.0 / 18.0, abs=1e-12)
        spectrum = symplectic_spectrum(invariants(sf))
        assert spectrum.n_minus == pytest.approx(0.5, abs=1e-12)
        assert log_negativity(ppt_n_minus(sf)) == pytest.approx(
            0.7312341491618387, abs=1e-12
        )

    def test_purity_branch_has_equal_correlations(self):
        # below the separable threshold the purity constraint bounds delta,
        # and the construction degenerates to c_plus = c_minus
        sf = glems(0.5, 0.5, 0.3)
        assert sf.c_plus == pytest.approx(sf.c_minus, abs=1e-15)
        assert purity_point(sf).delta == pytest.approx(
            delta_bounds(0.5, 0.5, 0.3)[1], abs=1e-12
        )

    @given(purity_triples())
    def test_realizes_purities_at_delta_max(self, triple):
        mu1, mu2, mu = triple
        p = purity_point(glems(mu1, mu2, mu))
        _, hi = delta_bounds(mu1, mu2, mu)
        assert p.mu1 == pytest.approx(mu1, rel=1e-9)
        assert p.mu2 == pytest.approx(mu2, rel=1e-9)
        assert p.mu == pytest.approx(mu, rel=1e-9)
        assert p.delta == pytest.approx(hi, rel=1e-9, abs=1e-9)

    @given(purity_triples())
    def test_saturates_vacuum_eigenvalue_when_entanglement_is_possible(self, triple):
        mu1, mu2, mu = triple
        if mu < separable_threshold(mu1, mu2) + 1e-6:
            return
        spectrum = symplectic_spectrum(invariants(glems(mu1, mu2, mu)))
        assert spectrum.n_minus == pytest.approx(0.5, abs=1e-7)

    @given(purity_triples())
    def test_never_more_entangled_than_gmems(self, triple):
        mu1, mu2, mu = triple
        assert ppt_n_minus(glems(mu1, mu2, mu)) >= ppt_n_minus(
            gmems(mu1, mu2, mu)
        ) - 1e-12


class TestGlemsClosedForm:
    def test_matches_generic_construction(self):
        assert max_entry_gap(
            glems_closed_form(0.5, 0.5, 0.6), glems(0.5, 0.5, 0.6)
        ) < 1e-12

    def test_active_at_separable_threshold(self):
        mu = separable_threshold(0.5, 0.5)
        assert max_entry_gap(
            glems_closed_form(0.5, 0.5, mu), glems(0.5, 0.5, mu)
        ) < 1e-9

    def test_inactive_below_threshold(self):
        with pytest.raises(InactiveBranchError, match="uncertainty branch"):
            glems_closed_form(0.5, 0.5, 0.26)

    @given(purity_triples())
    def test_agrees_wherever_active(self, triple):
        mu1, mu2, mu = triple
        if mu < separable_threshold(mu1, mu2) + 1e-9:
            return
        # 1e-6 instead of 1e-9: both formulas carry square roots whose
        # radicands vanish on interior loci, and just outside the snap
        # windows the root amplifies eps-level noise to ~1e-7. An algebra
        # defect would disagree at O(1).
        assert max_entry_gap(
            glems_closed_form(mu1, mu2, mu), glems(mu1, mu2, mu)
        ) < 1e-6


class TestGmemms:
    def test_symmetric_marginals_give_pure_squeezed_state(self):
        sf = gmemms(0.5, 0.5)
        assert sf.a == pytest.approx(1.0, abs=1e-12)
        assert sf.c_plus == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        assert purity_point(sf).mu == pytest.approx(1.0, abs=1e-9)

    def test_asymmetric_marginals(self):
        sf = gmemms(0.8, 0.4)
        assert sf.a == pytest.approx(0.625, abs=1e-12)
        assert sf.b == pytest.approx(1.25, abs=1e-12)
        assert max_entry_gap(sf, gmems(0.8, 0.4, 4.0 / 9.0)) < 1e-12

    def test_extremes_coincide_at_collapsed_point(self):
        assert max_entry_gap(
            gmems(0.8, 0.4, 4.0 / 9.0), glems(0.8, 0.4, 4.0 / 9.0)
        ) <= 1e-9

    def test_rejects_bad_marginals(self):
        with pytest.raises(MalformedInputError):
            gmemms(0.0, 0.5)
        with pytest.raises(MalformedInputError):
            gmemms(1.2, 0.5)
        # mu1*mu2 underflows to 0 here; this used to end in ZeroDivisionError.
        with pytest.raises(MalformedInputError, match="purity floor"):
            gmemms(1e-200, 1e-200)

    @given(purity_triples())
    # A near-pure and a small marginal: the collapsed-point tripwire fired
    # here at gap 6.0e-5 while it compared against an unscaled 1e-6.
    @example((0.9999999999979902, 0.00013838126685389066, 0.00013838126685389066))
    def test_marginal_purities_round_trip(self, triple):
        mu1, mu2, _ = triple
        p = purity_point(gmemms(mu1, mu2))
        assert p.mu1 == pytest.approx(mu1, rel=1e-9)
        assert p.mu2 == pytest.approx(mu2, rel=1e-9)
        assert p.mu == pytest.approx(mu1 * mu2 / (mu1 * mu2 + abs(mu1 - mu2)),
                                     rel=1e-9)


class TestSqueezedThermal:
    def test_known_entries(self):
        sf = squeezed_thermal(SqueezedThermalParams(0.3, 1.0, 2.0))
        ch2 = math.cosh(0.3) ** 2
        sh2 = math.sinh(0.3) ** 2
        assert sf.a == pytest.approx(ch2 + 2.0 * sh2, abs=1e-12)
        assert sf.a == pytest.approx(1.2781978273634014, abs=1e-12)
        assert sf.b == pytest.approx(2.0 * ch2 + sh2, abs=1e-12)
        assert sf.c_plus == pytest.approx(1.5 * math.sinh(0.6), abs=1e-12)

    def test_squeezing_preserves_thermal_spectrum(self):
        sf = squeezed_thermal(SqueezedThermalParams(0.3, 1.0, 2.0))
        spectrum = symplectic_spectrum(invariants(sf))
        assert spectrum.n_minus == pytest.approx(1.0, abs=1e-9)
        assert spectrum.n_plus == pytest.approx(2.0, abs=1e-9)
        assert invariants(sf).det_sigma == pytest.approx(4.0, rel=1e-12)

    def test_zero_squeezing_is_thermal_product(self):
        sf = squeezed_thermal(SqueezedThermalParams(0.0, 0.7, 1.5))
        assert (sf.a, sf.b, sf.c_plus, sf.c_minus) == (0.7, 1.5, 0.0, 0.0)

    def test_pure_squeezed_vacuum_log_negativity(self):
        sf = squeezed_thermal((1.0, 0.5, 0.5))
        assert log_negativity(ppt_n_minus(sf)) == pytest.approx(2.0, abs=1e-9)
        assert purity_point(sf).mu == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "params",
        [(-0.1, 1.0, 2.0), (0.3, 0.3, 2.0), (0.3, 2.0, 1.0), ("x", 1.0, 2.0),
         (float("nan"), 1.0, 2.0), (0.3, float("inf"), 2.0), (0.3, 1.0, "x")],
    )
    def test_rejects_bad_parameters(self, params):
        with pytest.raises(MalformedInputError):
            SqueezedThermalParams(*params)


class TestGmemsSqueezing:
    def test_round_trip(self):
        sf = gmems(0.5, 0.5, 0.6)
        back = squeezed_thermal(gmems_squeezing(0.5, 0.5, 0.6))
        assert max_entry_gap(sf, back) < 1e-12

    def test_round_trip_with_mixed_marginals(self):
        back = squeezed_thermal(gmems_squeezing(0.8, 0.4, 0.35))
        assert max_entry_gap(gmems(0.8, 0.4, 0.35), back) < 1e-12

    def test_swapped_marginals_give_mirrored_state(self):
        back = squeezed_thermal(gmems_squeezing(0.4, 0.8, 0.35))
        assert max_entry_gap(gmems(0.8, 0.4, 0.35), back) < 1e-12

    def test_squeezing_formula(self):
        params = gmems_squeezing(0.5, 0.5, 0.6)
        sf = gmems(0.5, 0.5, 0.6)
        assert math.tanh(2.0 * params.r) == pytest.approx(
            2.0 * sf.c_plus / (sf.a + sf.b), abs=1e-12
        )

    @given(purity_triples())
    # Near-symmetric marginals: the symplectic root split these came from
    # raised on the first ("radicand -0.0532827") and was 1.9e-9 off on the
    # second.
    @example((1.64029e-4, 1.64029e-4, 0.98206))
    @example((0.2576638325801887, 0.25766382343644045, 0.06753983862232112))
    def test_round_trip_property(self, triple):
        mu1, mu2, mu = triple
        back = squeezed_thermal(gmems_squeezing(mu1, mu2, mu))
        target = gmems(max(mu1, mu2), min(mu1, mu2), mu)
        assert max_entry_gap(target, back) < 1e-9


class TestRegionCoherence:
    @given(purity_triples())
    def test_region_matches_extremal_separability(self, triple):
        mu1, mu2, mu = triple
        t_sep = separable_threshold(mu1, mu2)
        t_coex = coexistence_threshold(mu1, mu2)
        if mu < t_sep - 1e-6:
            assert is_separable(gmems(mu1, mu2, mu))
            assert is_separable(glems(mu1, mu2, mu))
        elif t_sep + 1e-6 < mu < t_coex - 1e-6:
            assert not is_separable(gmems(mu1, mu2, mu))
            assert is_separable(glems(mu1, mu2, mu))
        elif mu > t_coex + 1e-6:
            assert not is_separable(gmems(mu1, mu2, mu))
            assert not is_separable(glems(mu1, mu2, mu))
