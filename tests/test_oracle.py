"""Seeded Monte Carlo audit: sampling, determinism, and violation counting."""

import json

import numpy as np
import pytest

import gce.oracle as oracle
from gce.core import is_physical
from gce.errors import ConfigurationError
from gce.oracle import (
    SampleConfig,
    crosscheck_closed_forms,
    random_standard_form,
    sample_standard_forms,
    validate_bounds,
)

SMALL = SampleConfig(seed=42, count=2000)


class TestSampleConfig:
    def test_defaults(self):
        cfg = SampleConfig()
        assert cfg.seed == 12345
        assert cfg.count == 100_000
        assert cfg.a_max == 5.0
        assert cfg.tolerance is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"count": 0},
            {"count": -5},
            {"count": 2.5},
            {"a_max": 0.5},
            {"a_max": float("inf")},
            {"tolerance": 0.0},
            {"tolerance": -1e-9},
            {"tolerance": "x"},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            SampleConfig(**kwargs)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        b1 = sample_standard_forms(SMALL)
        b2 = sample_standard_forms(SMALL)
        assert np.array_equal(b1.a, b2.a)
        assert np.array_equal(b1.b, b2.b)
        assert np.array_equal(b1.c_plus, b2.c_plus)
        assert np.array_equal(b1.c_minus, b2.c_minus)
        assert b1.trials == b2.trials

    def test_seed_changes_the_stream(self):
        b1 = sample_standard_forms(SampleConfig(seed=1, count=100))
        b2 = sample_standard_forms(SampleConfig(seed=2, count=100))
        assert not np.array_equal(b1.a, b2.a)

    def test_batch_shape_and_rate(self):
        batch = sample_standard_forms(SMALL)
        assert len(batch) == SMALL.count
        assert batch.accepted >= SMALL.count
        assert batch.trials >= batch.accepted
        assert 0.0 < batch.acceptance_rate < 1.0

    def test_acceptance_rate_is_stable_across_seeds(self):
        rates = [
            sample_standard_forms(SampleConfig(seed=s, count=5000)).acceptance_rate
            for s in (1, 2, 3)
        ]
        assert max(rates) <= 1.2 * min(rates)

    def test_all_samples_are_canonical_and_physical(self):
        batch = sample_standard_forms(SampleConfig(seed=7, count=500))
        assert np.all(batch.a >= 0.5)
        assert np.all(batch.b >= 0.5)
        assert np.all(batch.c_plus >= np.abs(batch.c_minus))
        for sf in random_standard_form(SampleConfig(seed=7, count=200)):
            assert is_physical(sf)

    def test_generator_matches_batch(self):
        cfg = SampleConfig(seed=11, count=50)
        batch = sample_standard_forms(cfg)
        forms = list(random_standard_form(cfg))
        assert len(forms) == 50
        assert forms[0].a == batch.a[0]
        assert forms[-1].c_minus == batch.c_minus[-1]


class TestValidateBounds:
    def test_clean_report(self):
        report = validate_bounds(SMALL)
        assert report["total_violations"] == 0
        assert set(report["checks"]) == {
            "no_lptp",
            "delta_lower",
            "delta_upper",
            "containment_lower",
            "containment_upper",
            "region_separable",
            "region_entangled",
        }
        for entry in report["checks"].values():
            assert entry["violations"] == 0
        assert report["checks"]["region_separable"]["samples"] > 0
        assert report["checks"]["region_entangled"]["samples"] > 0

    def test_report_is_json_ready_and_deterministic(self):
        r1 = validate_bounds(SMALL)
        r2 = validate_bounds(SMALL)
        assert r1 == r2
        assert json.loads(json.dumps(r1)) == r1

    def test_worst_margins_clear_tolerance(self):
        report = validate_bounds(SMALL)
        tol = report["tolerance"]
        for entry in report["checks"].values():
            if entry["worst_margin"] is not None:
                assert entry["worst_margin"] >= -tol

    def test_detects_injected_bound_violation(self, monkeypatch):
        true_core = oracle._en_max_core
        monkeypatch.setattr(
            oracle, "_en_max_core", lambda m1, m2, m: true_core(m1, m2, m) - 1e-6
        )
        report = validate_bounds(SMALL)
        assert report["checks"]["containment_upper"]["violations"] > 0
        assert report["total_violations"] > 0


class TestCrosscheckClosedForms:
    def test_clean_report(self):
        report = crosscheck_closed_forms(SMALL)
        assert report["total_violations"] == 0
        assert report["max_deviation_en_max"] < 1e-9
        assert report["max_deviation_en_min"] < 1e-9
        assert report["max_deviation_squeezing"] < 1e-9

    def test_deterministic(self):
        assert crosscheck_closed_forms(SMALL) == crosscheck_closed_forms(SMALL)

    def test_detects_injected_deviation(self, monkeypatch):
        true_core = oracle._en_min_core
        monkeypatch.setattr(
            oracle, "_en_min_core", lambda m1, m2, m: true_core(m1, m2, m) + 1e-6
        )
        report = crosscheck_closed_forms(SMALL)
        assert report["violations"]["en_min"] > 0
