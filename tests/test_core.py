"""Covariance-matrix layer: invariants, spectra, physicality, conversions."""

import json
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from gce.core import (
    CovarianceMatrix,
    StandardForm,
    default_tolerance,
    det4,
    from_json,
    from_standard_form,
    invariants,
    is_physical,
    purities,
    resolve_tolerance,
    symplectic_spectrum,
    to_json,
    to_standard_form,
)
from gce.errors import (
    ConfigurationError,
    MalformedInputError,
    UnphysicalStateError,
)
from gce.estimator import estimate

from .helpers import local_symplectic, physical_standard_forms, transform

VACUUM = np.eye(4) * 0.5


def thermal(n1: float, n2: float) -> np.ndarray:
    return np.diag([n1, n1, n2, n2])


class TestDet4:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_numpy_determinant(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4))
        assert det4(m) == pytest.approx(np.linalg.det(m), rel=1e-9, abs=1e-12)

    def test_broadcasts_over_stacks(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(10, 4, 4))
        expected = np.linalg.det(stack)
        assert np.allclose(det4(stack), expected, rtol=1e-9, atol=1e-12)


class TestCovarianceMatrix:
    def test_accepts_vacuum(self):
        cm = CovarianceMatrix(VACUUM)
        assert cm.entries.shape == (4, 4)
        assert not cm.entries.flags.writeable

    def test_rejects_wrong_shape(self):
        with pytest.raises(MalformedInputError, match="4x4"):
            CovarianceMatrix(np.eye(3))

    def test_rejects_non_numeric(self):
        with pytest.raises(MalformedInputError):
            CovarianceMatrix([["x"] * 4] * 4)

    def test_rejects_non_finite(self):
        bad = VACUUM.copy()
        bad[0, 0] = np.nan
        with pytest.raises(MalformedInputError, match="finite"):
            CovarianceMatrix(bad)

    def test_rejects_asymmetric(self):
        bad = VACUUM.copy()
        bad[0, 1] = 0.1
        with pytest.raises(MalformedInputError, match="symmetric"):
            CovarianceMatrix(bad)


class TestStandardForm:
    def test_matrix_layout(self):
        sf = StandardForm(1.0, 2.0, 0.5, -0.25)
        m = sf.matrix()
        assert m[0, 0] == m[1, 1] == 1.0
        assert m[2, 2] == m[3, 3] == 2.0
        assert m[0, 2] == m[2, 0] == 0.5
        assert m[1, 3] == m[3, 1] == -0.25

    def test_rejects_sub_vacuum_diagonal(self):
        with pytest.raises(MalformedInputError, match="a, b >= 1/2"):
            StandardForm(0.4, 1.0, 0.0, 0.0)

    def test_rejects_wrong_orientation(self):
        with pytest.raises(MalformedInputError, match=r"c_plus >= \|c_minus\|"):
            StandardForm(1.0, 1.0, 0.2, 0.5)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ((1.0, 1.0, 0.5, 0.2), (0.5, 0.2)),
            ((1.0, 1.0, 0.2, 0.5), (0.5, 0.2)),
            ((1.0, 1.0, -0.5, 0.2), (0.5, -0.2)),
            ((1.0, 1.0, 0.2, -0.5), (0.5, -0.2)),
            ((1.0, 1.0, -0.2, -0.5), (0.5, 0.2)),
        ],
    )
    def test_canonical_orientation(self, raw, expected):
        sf = StandardForm.canonical(*raw)
        assert (sf.c_plus, sf.c_minus) == pytest.approx(expected)

    def test_canonical_preserves_invariants(self):
        raw = np.diag([1.2, 1.2, 1.7, 1.7])
        raw[0, 2] = raw[2, 0] = 0.3
        raw[1, 3] = raw[3, 1] = -0.9
        base = invariants(raw)
        canon = invariants(StandardForm.canonical(1.2, 1.7, 0.3, -0.9))
        assert canon.det_gamma == pytest.approx(base.det_gamma, abs=1e-15)
        assert canon.delta == pytest.approx(base.delta, abs=1e-15)
        assert canon.det_sigma == pytest.approx(base.det_sigma, abs=1e-15)


class TestInvariants:
    def test_vacuum(self):
        inv = invariants(VACUUM)
        assert inv.det_alpha == inv.det_beta == pytest.approx(0.25)
        assert inv.det_gamma == 0.0
        assert inv.det_sigma == pytest.approx(0.0625)
        assert inv.delta == pytest.approx(0.5)
        assert inv.delta_tilde == pytest.approx(0.5)

    @given(physical_standard_forms())
    def test_standard_form_blocks(self, sf):
        inv = invariants(sf)
        assert inv.det_alpha == pytest.approx(sf.a**2, rel=1e-12)
        assert inv.det_beta == pytest.approx(sf.b**2, rel=1e-12)
        assert inv.det_gamma == pytest.approx(sf.c_plus * sf.c_minus, abs=1e-12)
        assert inv.delta == pytest.approx(
            sf.a**2 + sf.b**2 + 2 * sf.c_plus * sf.c_minus, rel=1e-12
        )

    def test_partial_transpose_flips_det_gamma(self):
        inv = invariants(StandardForm(1.0, 1.0, 0.7, -0.7))
        assert inv.delta_tilde == pytest.approx(inv.delta + 4 * 0.49)


class TestSymplecticSpectrum:
    def test_vacuum_spectrum(self):
        spec = symplectic_spectrum(invariants(VACUUM))
        assert spec.n_minus == pytest.approx(0.5, abs=1e-12)
        assert spec.n_plus == pytest.approx(0.5, abs=1e-12)
        assert not spec.transposed

    def test_thermal_spectrum_is_sorted(self):
        spec = symplectic_spectrum(invariants(thermal(2.0, 0.7)))
        assert spec.n_minus == pytest.approx(0.7, abs=1e-12)
        assert spec.n_plus == pytest.approx(2.0, abs=1e-12)

    @given(physical_standard_forms())
    def test_spectrum_products_match_invariants(self, sf):
        inv = invariants(sf)
        spec = symplectic_spectrum(inv)
        assert spec.n_minus * spec.n_plus == pytest.approx(
            math.sqrt(inv.det_sigma), rel=1e-9
        )
        assert spec.n_minus**2 + spec.n_plus**2 == pytest.approx(inv.delta, rel=1e-9)

    def test_rejects_nonpositive_det_sigma(self):
        inv = invariants(VACUUM)
        bad = type(inv)(
            det_alpha=inv.det_alpha,
            det_beta=inv.det_beta,
            det_gamma=inv.det_gamma,
            det_sigma=-1.0,
            delta=inv.delta,
        )
        with pytest.raises(UnphysicalStateError, match="det_sigma"):
            symplectic_spectrum(bad)

    def test_rejects_inconsistent_radicand(self):
        inv = invariants(VACUUM)
        bad = type(inv)(
            det_alpha=inv.det_alpha,
            det_beta=inv.det_beta,
            det_gamma=inv.det_gamma,
            det_sigma=1.0,
            delta=0.5,
        )
        with pytest.raises(UnphysicalStateError, match="radicand"):
            symplectic_spectrum(bad)


class TestIsPhysical:
    def test_vacuum_is_physical(self):
        diag = is_physical(VACUUM)
        assert diag
        assert diag.reason == "physical"

    def test_rejects_sub_vacuum_thermal(self):
        diag = is_physical(np.eye(4) * 0.1)
        assert not diag
        assert "n_minus" in diag.reason

    def test_rejects_sub_vacuum_spectrum_that_passes_seralian_inequality(self):
        # delta <= 1/4 + 4 det_sigma holds here (0.25 <= 0.3076) yet both
        # symplectic eigenvalues sit below 1/2, so the state is unphysical.
        m = thermal(0.3, 0.4)
        inv = invariants(m)
        assert inv.delta <= 0.25 + 4.0 * inv.det_sigma
        diag = is_physical(m)
        assert not diag
        assert "n_minus" in diag.reason

    def test_rejects_indefinite_matrix(self):
        m = VACUUM.copy()
        m[0, 0] = -1.0
        assert "positive definite" in is_physical(m).reason

    def test_rejects_asymmetric(self):
        m = VACUUM.copy()
        m[0, 1] = 0.3
        assert is_physical(m).reason == "not symmetric"

    def test_rejects_wrong_shape_and_nan(self):
        assert not is_physical(np.eye(3))
        bad = VACUUM.copy()
        bad[2, 2] = np.inf
        assert not is_physical(bad)
        assert not is_physical("nonsense")

    def test_tolerance_slack_at_boundary(self):
        m = np.eye(4) * (0.5 - 1e-10)
        assert is_physical(m)
        assert not is_physical(m, tol=1e-12)

    @given(physical_standard_forms())
    def test_accepts_sampled_states(self, sf):
        assert is_physical(sf)


class TestPurities:
    def test_vacuum(self):
        p = purities(VACUUM)
        assert p.mu1 == p.mu2 == p.mu == pytest.approx(1.0)
        assert p.delta == pytest.approx(0.5)

    def test_thermal_product(self):
        p = purities(thermal(1.0, 1.0))
        assert p.mu1 == p.mu2 == pytest.approx(0.5)
        assert p.mu == pytest.approx(0.25)
        assert p.delta == pytest.approx(2.0)

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError, match="n_minus"):
            purities(np.eye(4) * 0.2)

    @given(physical_standard_forms())
    def test_global_purity_from_det(self, sf):
        p = purities(sf)
        inv = invariants(sf)
        assert p.mu == pytest.approx(1.0 / (4.0 * math.sqrt(inv.det_sigma)), rel=1e-12)


class TestStandardFormRoundTrip:
    @given(physical_standard_forms())
    def test_round_trip(self, sf):
        back = to_standard_form(from_standard_form(sf))
        assert back.a == pytest.approx(sf.a, abs=1e-10)
        assert back.b == pytest.approx(sf.b, abs=1e-10)
        assert back.c_plus == pytest.approx(sf.c_plus, abs=1e-10)
        assert back.c_minus == pytest.approx(sf.c_minus, abs=1e-10)

    @pytest.mark.parametrize("c", [0.0, 1e-12, 1e-8, 1e-5])
    def test_round_trip_with_tiny_correlations(self, c):
        sf = StandardForm(1.3, 2.1, c, -0.5 * c)
        back = to_standard_form(from_standard_form(sf))
        assert back.c_plus == pytest.approx(c, abs=1e-10)
        assert back.c_minus == pytest.approx(-0.5 * c, abs=1e-10)

    def test_recovers_canonical_form_after_local_rotation(self):
        sf = StandardForm(1.0, 1.0, 0.7637626158259733, -0.7637626158259733)
        rotated = transform(sf.matrix(), local_symplectic(math.pi / 4, 0.0, 0.0, 0.0))
        back = to_standard_form(CovarianceMatrix(rotated))
        assert back.a == pytest.approx(sf.a, abs=1e-10)
        assert back.b == pytest.approx(sf.b, abs=1e-10)
        assert back.c_plus == pytest.approx(sf.c_plus, abs=1e-10)
        assert back.c_minus == pytest.approx(sf.c_minus, abs=1e-10)

    def test_from_standard_form_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError):
            from_standard_form(StandardForm(1.0, 1.0, 0.99, 0.99))

    def test_to_standard_form_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError):
            to_standard_form(np.eye(4) * 0.3)


def _reference_standard_form(m: np.ndarray) -> tuple:
    """(a, b, c_plus, c_minus) at 50 digits, from the block determinants.

    c_plus^2 and c_minus^2 are the roots of t^2 - s t + (det gamma)^2 with
    ab s = (ab)^2 + (det gamma)^2 - det sigma, and c_plus c_minus = det gamma.
    """
    with mpmath.workdps(50):
        r = [[mpmath.mpf(x) for x in row] for row in m.tolist()]

        def minor(i, j):
            return r[i][j] * r[i + 1][j + 1] - r[i + 1][j] * r[i][j + 1]

        det_gamma = minor(0, 2)
        a, b = mpmath.sqrt(minor(0, 0)), mpmath.sqrt(minor(2, 2))
        s = ((a * b) ** 2 + det_gamma ** 2 - mpmath.det(mpmath.matrix(r))) / (a * b)
        c_plus = mpmath.sqrt((s + mpmath.sqrt(max(s * s - 4 * det_gamma ** 2, 0))) / 2)
        c_minus = det_gamma / c_plus if c_plus else mpmath.mpf(0)
        return a, b, c_plus, c_minus


def _reference_inputs() -> list:
    """The stored golden matrices plus 300 seeded states outside standard form.

    Each seeded state is a thermal state with spectra 1/2 + 10^U(-9, 0.5),
    correlated by a beam splitter and a two-mode squeezer whose parameters
    are 10^U(-13, 0) times a uniform draw, then locally squeezed (|s| <= 1)
    and rotated.
    """
    stored = sorted((pathlib.Path(__file__).parent / "data" / "analyze").glob("*.json"))
    out = [from_json(path.read_text()).entries for path in stored]
    rng = np.random.default_rng(24)
    for _ in range(300):
        n1, n2 = 0.5 + 10.0 ** rng.uniform(-9.0, 0.5, 2)
        scale = 10.0 ** rng.uniform(-13.0, 0.0)
        r, theta = scale * rng.uniform(0.0, 1.0), scale * rng.uniform(-1.0, 1.0)
        c, s = math.cos(theta), math.sin(theta)
        mixer = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
        ch, sh = math.cosh(r), math.sinh(r)
        squeezer = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
        local = local_symplectic(rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0),
                                 rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0))
        m = transform(np.diag([n1, n1, n2, n2]), mixer @ squeezer @ local)
        out.append(0.5 * (m + m.T))
    return out


class TestStandardFormReference:
    inputs = _reference_inputs()

    def test_matches_50_digit_reference(self):
        eps = np.finfo(float).eps
        for m in self.inputs:
            got = to_standard_form(m).as_tuple()
            bound = 4.0 * eps * float(np.max(np.abs(m)))
            for x, ref in zip(got, _reference_standard_form(m)):
                assert abs(x - ref) <= bound, (m.tolist(), got)

    def test_marginals_agree_with_purities(self):
        for m in self.inputs:
            p, sf = purities(m), to_standard_form(m)
            assert (p.mu1, p.mu2) == (0.5 / sf.a, 0.5 / sf.b)


class TestJson:
    def test_round_trip(self):
        sf = StandardForm(1.5, 2.0, 0.8, -0.3)
        cm = from_standard_form(sf)
        back = from_json(to_json(cm))
        assert np.array_equal(back.entries, cm.entries)

    def test_payload_shape(self):
        payload = json.loads(to_json(CovarianceMatrix(VACUUM)))
        assert payload["convention"] == "vacuum=1/2"
        assert payload["matrix"] == [[0.5 if i == j else 0.0 for j in range(4)]
                                     for i in range(4)]

    @pytest.mark.parametrize(
        "text, pattern",
        [
            ("not json", "invalid JSON"),
            ("[1, 2]", "object"),
            ('{"matrix": [[1]]}', "convention"),
            ('{"convention": "vacuum=1"}', "convention"),
            ('{"convention": "vacuum=1/2"}', "missing"),
            ('{"convention": "vacuum=1/2", "matrix": "zz"}', "is not numeric|4x4"),
        ],
    )
    def test_rejects_bad_payloads(self, text, pattern):
        with pytest.raises(MalformedInputError, match=pattern):
            from_json(text)


class TestTolerance:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("GCE_TOLERANCE", raising=False)
        assert default_tolerance() == 1e-9

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GCE_TOLERANCE", "1e-6")
        assert default_tolerance() == 1e-6

    @pytest.mark.parametrize("value", ["abc", "-1e-9", "0", "inf", "nan"])
    def test_rejects_bad_env(self, monkeypatch, value):
        monkeypatch.setenv("GCE_TOLERANCE", value)
        with pytest.raises(ConfigurationError, match="GCE_TOLERANCE"):
            default_tolerance()

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf, "abc"])
    def test_rejects_bad_explicit_tol(self, value):
        # the error names tol, not a purity that lies inside (0, 1]
        with pytest.raises(ConfigurationError, match="^tol "):
            resolve_tolerance(value)
        with pytest.raises(ConfigurationError, match="^tol "):
            estimate(0.5, 0.5, 0.3, tol=value)

    def test_explicit_tol_comes_back_as_float(self):
        assert resolve_tolerance("1e-6") == 1e-6 and type(resolve_tolerance(1)) is float
