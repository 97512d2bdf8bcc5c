"""Seeded Monte Carlo verification of the analytic claims.

Samples random physical standard forms, maps them to purities, and checks
every closed-form statement against the spectrum pipeline: the purity
constraints, the seralian bounds, the bracketing of E_N by the purity-only
bounds, the region classifier and the squeezed-thermal identification.
Reports are plain dicts ready for JSON serialization and are bit-identical
across runs for a fixed seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import StandardForm, _as_float, _checked_tolerance, resolve_tolerance
from .entangle import _coexistence_threshold, _separable_threshold
from .errors import ConfigurationError
from .estimator import _en_max_core, _en_min_core
from .extremal import _glems_arrays, _gmems_arrays, _squeezing_arrays
from .param import _delta_branches, _delta_min, purity_arrays

__all__ = [
    "SampleConfig",
    "SampleBatch",
    "sample_standard_forms",
    "random_standard_form",
    "validate_bounds",
    "crosscheck_closed_forms",
]

_BATCH = 1 << 14
_MAX_DEAD_TRIALS = 1_000_000


@dataclass(frozen=True)
class SampleConfig:
    """Configuration of the seeded rejection sampler.

    a_max bounds the diagonal standard-form entries (marginal purity down to
    1/(2 a_max)); tolerance None means the package default.
    """

    seed: int = 12345
    count: int = 100_000
    a_max: float = 5.0
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed!r}")
        if not isinstance(self.count, (int, np.integer)) or isinstance(self.count, bool):
            raise ConfigurationError(f"count must be an integer, got {self.count!r}")
        if self.count <= 0:
            raise ConfigurationError(f"count must be positive, got {self.count!r}")
        a_max = _as_float("a_max", self.a_max, ConfigurationError)
        if a_max <= 0.5:
            raise ConfigurationError(f"a_max must exceed 1/2, got {self.a_max!r}")
        object.__setattr__(self, "a_max", a_max)
        if self.tolerance is not None:
            object.__setattr__(self, "tolerance", _checked_tolerance("tolerance", self.tolerance))


@dataclass(frozen=True)
class SampleBatch:
    """Accepted standard-form entries in canonical orientation, column-wise."""

    a: np.ndarray
    b: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    trials: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials

    def __len__(self) -> int:
        return self.a.shape[0]


def _draw_batch(rng: np.random.Generator, a_max: float, size: int):
    """One rejection-sampling batch; returns canonical accepted columns."""
    a = rng.uniform(0.5, a_max, size)
    b = rng.uniform(0.5, a_max, size)
    cmax = np.sqrt(a * b)
    c1 = rng.uniform(-cmax, cmax)
    c2 = rng.uniform(-cmax, cmax)
    ab = a * b
    f1 = ab - c1 * c1
    f2 = ab - c2 * c2
    det_sigma = f1 * f2
    delta = a * a + b * b + 2.0 * c1 * c2
    rad = np.maximum(delta * delta - 4.0 * det_sigma, 0.0)
    nmin_sq = 2.0 * det_sigma / (delta + np.sqrt(rad))
    keep = (f1 > 0.0) & (f2 > 0.0) & (delta > 0.0) & (nmin_sq >= 0.25)
    a, b, c1, c2 = a[keep], b[keep], c1[keep], c2[keep]
    swap = np.abs(c2) > np.abs(c1)
    cp = np.where(swap, c2, c1)
    cm = np.where(swap, c1, c2)
    flip = cp < 0.0
    cp = np.where(flip, -cp, cp)
    cm = np.where(flip, -cm, cm)
    return a, b, cp, cm


def sample_standard_forms(cfg: SampleConfig) -> SampleBatch:
    """Draw cfg.count random physical standard forms as arrays.

    a, b are uniform in [1/2, a_max] and the raw correlations uniform in
    [-sqrt(ab), sqrt(ab)]; candidates failing positive definiteness or
    n_minus >= 1/2 are rejected, and survivors are put in the canonical
    orientation c_plus >= |c_minus|. Deterministic for fixed seed.

    Raises:
        ConfigurationError: invalid cfg, or zero acceptances over 10^6 trials.
    """
    rng = np.random.default_rng(cfg.seed)
    parts = []
    trials = 0
    accepted = 0
    while accepted < cfg.count:
        part = _draw_batch(rng, cfg.a_max, _BATCH)
        trials += _BATCH
        accepted += part[0].shape[0]
        parts.append(part)
        if accepted == 0 and trials >= _MAX_DEAD_TRIALS:
            raise ConfigurationError(
                f"no physical samples accepted after {trials} trials"
            )
    a = np.concatenate([p[0] for p in parts])[: cfg.count]
    b = np.concatenate([p[1] for p in parts])[: cfg.count]
    cp = np.concatenate([p[2] for p in parts])[: cfg.count]
    cm = np.concatenate([p[3] for p in parts])[: cfg.count]
    return SampleBatch(a=a, b=b, c_plus=cp, c_minus=cm, trials=trials, accepted=accepted)


def random_standard_form(cfg: SampleConfig) -> Iterator[StandardForm]:
    """Stream of cfg.count random physical standard forms (see sample_standard_forms)."""
    batch = sample_standard_forms(cfg)
    for i in range(len(batch)):
        yield StandardForm(
            float(batch.a[i]),
            float(batch.b[i]),
            float(batch.c_plus[i]),
            float(batch.c_minus[i]),
        )


def _ppt_nmin_from_entries(a, b, cp, cm):
    """Vectorized partial-transpose n_tilde_minus of standard-form entries."""
    ab = a * b
    det_sigma = (ab - cp * cp) * (ab - cm * cm)
    delta_tilde = a * a + b * b - 2.0 * cp * cm
    rad = np.maximum(delta_tilde * delta_tilde - 4.0 * det_sigma, 0.0)
    return np.sqrt(2.0 * det_sigma / (delta_tilde + np.sqrt(rad)))


def _log_negativity_arrays(n_tilde_minus):
    return np.maximum(0.0, -np.log(2.0 * n_tilde_minus))


def validate_bounds(cfg: SampleConfig) -> dict:
    """Monte Carlo audit of the purity constraints and entanglement bounds.

    For each sampled state, checks that mu >= mu1 mu2 (with the worst margin
    reported), that its seralian lies inside `delta_bounds`, that its exact
    E_N lies inside [en_min - tol, en_max + tol], and that states in the
    all-separable and all-entangled regions have the right separability.
    Region consistency is asserted on samples at least tol away from the
    thresholds, where the sharp predicate cannot be blurred by round-off.

    Returns:
        JSON-ready dict: config echo, trials, acceptance_rate, per-check
        {violations, worst_margin, samples} and total_violations.
    """
    return _validate_batch(cfg, sample_standard_forms(cfg))


def _validate_batch(cfg: SampleConfig, batch: SampleBatch) -> dict:
    """`validate_bounds` on states already sampled for cfg."""
    tol = resolve_tolerance(cfg.tolerance)
    a, b, cp, cm = batch.a, batch.b, batch.c_plus, batch.c_minus
    mu1, mu2, mu, delta = purity_arrays(a, b, cp, cm)

    prod = mu1 * mu2
    lptp_margin = mu - prod

    lower_margin = delta - _delta_min(mu1, mu2, mu)
    upper_margin = np.minimum(*_delta_branches(mu1, mu2, mu)) - delta

    n_tilde = _ppt_nmin_from_entries(a, b, cp, cm)
    en = _log_negativity_arrays(n_tilde)
    en_hi = _en_max_core(mu1, mu2, mu)
    en_lo = _en_min_core(mu1, mu2, mu)
    contain_lower = en - en_lo
    contain_upper = en_hi - en

    sep_mask = mu <= _separable_threshold(mu1, mu2) - tol
    ent_mask = mu > _coexistence_threshold(mu1, mu2) + tol
    sep_margin = n_tilde[sep_mask] - 0.5
    ent_margin = 0.5 - n_tilde[ent_mask]

    def _check(margins, mask_count=None):
        violations = int(np.count_nonzero(margins < -tol))
        worst = float(np.min(margins)) if margins.size else None
        entry = {"violations": violations, "worst_margin": worst}
        if mask_count is not None:
            entry["samples"] = mask_count
        return entry

    checks = {
        "no_lptp": _check(lptp_margin),
        "delta_lower": _check(lower_margin),
        "delta_upper": _check(upper_margin),
        "containment_lower": _check(contain_lower),
        "containment_upper": _check(contain_upper),
        "region_separable": _check(sep_margin, int(np.count_nonzero(sep_mask))),
        "region_entangled": _check(ent_margin, int(np.count_nonzero(ent_mask))),
    }
    return {
        "seed": cfg.seed,
        "count": cfg.count,
        "a_max": cfg.a_max,
        "tolerance": tol,
        "trials": batch.trials,
        "acceptance_rate": batch.acceptance_rate,
        "checks": checks,
        "total_violations": int(sum(c["violations"] for c in checks.values())),
    }


def crosscheck_closed_forms(cfg: SampleConfig) -> dict:
    """Dual-path agreement of the closed forms with the spectrum pipeline.

    Over random valid purity triples (purities of sampled states), audits
    the shipped extremal kernels against the oracle's own spectrum code:
      * en_max vs E_N of the maximally entangled construction,
      * en_min vs E_N of the least entangled construction,
      * the squeezed-thermal identification round trip against the
        maximally entangled standard form (marginals ordered so the less
        mixed mode comes first, matching the parametrized family).

    Returns:
        JSON-ready dict with max deviations, per-check violation counts
        against the tolerance, and total_violations.
    """
    return _crosscheck_batch(cfg, sample_standard_forms(cfg))


def _crosscheck_batch(cfg: SampleConfig, batch: SampleBatch) -> dict:
    """`crosscheck_closed_forms` on states already sampled for cfg."""
    tol = resolve_tolerance(cfg.tolerance)
    mu1, mu2, mu, _ = purity_arrays(batch.a, batch.b, batch.c_plus, batch.c_minus)

    en_hi = _en_max_core(mu1, mu2, mu)
    en_gmems = _log_negativity_arrays(_ppt_nmin_from_entries(*_gmems_arrays(mu1, mu2, mu)))
    dev_max = np.abs(en_hi - en_gmems)

    en_lo = _en_min_core(mu1, mu2, mu)
    en_glems = _log_negativity_arrays(_ppt_nmin_from_entries(*_glems_arrays(mu1, mu2, mu)))
    dev_min = np.abs(en_lo - en_glems)

    # Squeezed-thermal identification: the squeezing of the ordered maximally
    # entangled form (a <= b), put back through the squeezed thermal entries.
    a_o, b_o, c_o, _ = _gmems_arrays(np.maximum(mu1, mu2), np.minimum(mu1, mu2), mu)
    r, n_minus, n_plus = _squeezing_arrays(a_o, b_o, c_o, mu)
    ch = np.cosh(r) ** 2
    sh = np.sinh(r) ** 2
    c_back = 0.5 * (n_minus + n_plus) * np.sinh(2.0 * r)
    dev_sq = np.maximum(
        np.maximum(
            np.abs(n_minus * ch + n_plus * sh - a_o),
            np.abs(n_plus * ch + n_minus * sh - b_o),
        ),
        np.abs(c_back - c_o),
    )

    violations = {
        "en_max": int(np.count_nonzero(dev_max > tol)),
        "en_min": int(np.count_nonzero(dev_min > tol)),
        "squeezing": int(np.count_nonzero(dev_sq > tol)),
    }
    return {
        "seed": cfg.seed,
        "count": cfg.count,
        "a_max": cfg.a_max,
        "tolerance": tol,
        "trials": batch.trials,
        "acceptance_rate": batch.acceptance_rate,
        "max_deviation_en_max": float(np.max(dev_max)),
        "max_deviation_en_min": float(np.max(dev_min)),
        "max_deviation_squeezing": float(np.max(dev_sq)),
        "violations": violations,
        "total_violations": int(sum(violations.values())),
    }
