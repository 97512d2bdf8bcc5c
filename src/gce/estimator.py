"""Entanglement bounds from purities alone.

Knowing only (mu1, mu2, mu), the logarithmic negativity of the underlying
state is bracketed by the values attained at the two ends of the allowed
seralian range: en_max at delta_min (the maximally entangled construction)
and en_min at delta_max (the least entangled one). The midpoint en_avg
serves as the purity-only estimate and rel_err quantifies its worst-case
relative deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PurityPoint, resolve_tolerance
from .entangle import (
    EntanglementReport,
    RegionLabel,
    classify,
    log_negativity,
    ppt_smallest_eigenvalue,
    region_code,
)
from .param import require_valid_purities

__all__ = [
    "EstimateResult",
    "en_max",
    "en_min",
    "relative_error",
    "estimate",
    "estimate_arrays",
    "entanglement_report",
]


@dataclass(frozen=True)
class EstimateResult:
    """Purity-only entanglement bounds and their relative spread."""

    en_max: float
    en_min: float
    en_avg: float
    rel_err: float
    region: RegionLabel


def _en_max_core(m1, m2, m):
    """Vectorized upper bound; no validation.

    Logarithmic negativity at delta = delta_min, evaluated through the
    cancellation-free quotient for 4 n_tilde_minus^2.
    """
    prod_sq = 4.0 * m1 * m1 * m2 * m2
    delta_min = 0.5 / m + (m1 - m2) ** 2 / prod_sq
    dtilde = 0.5 / (m1 * m1) + 0.5 / (m2 * m2) - delta_min
    k = 0.25 / (m * m)
    rad = np.maximum(dtilde * dtilde - k, 0.0)
    bracket = 2.0 * k / (dtilde + np.sqrt(rad))
    # + 0.0 turns a negative zero from the clamp into plain 0.0
    return np.maximum(0.0, -0.5 * np.log(bracket)) + 0.0


def _en_min_core(m1, m2, m):
    """Vectorized lower bound; no validation.

    Logarithmic negativity at delta = delta_max. With
    s = 1/mu1^2 + 1/mu2^2 - 1/(2 mu^2) - 1/2 (twice the partial-transpose
    seralian on the uncertainty branch), the bound is
    -ln(s - sqrt(s^2 - 1/mu^2))/2. Where s <= 0 or s^2 < 1/mu^2 the
    uncertainty branch is inactive and the least entangled state is
    separable, so the bound is 0.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    m = np.asarray(m, dtype=float)
    inv_mu_sq = 1.0 / (m * m)
    s = 1.0 / (m1 * m1) + 1.0 / (m2 * m2) - 0.5 * inv_mu_sq - 0.5
    rad = s * s - inv_mu_sq
    active = (s > 0.0) & (rad >= 0.0)
    safe_s = np.where(active, s, 1.0)
    safe_rad = np.where(active, rad, 0.0)
    bracket = np.where(
        active, inv_mu_sq / (safe_s + np.sqrt(safe_rad)), 1.0
    )
    return np.where(active, np.maximum(0.0, -0.5 * np.log(bracket)), 0.0) + 0.0


def en_max(mu1, mu2, mu, tol: float | None = None):
    """Largest logarithmic negativity compatible with the given purities.

    Equals the exact E_N of the maximally entangled construction
    `extremal.gmems` at these purities; clamped at 0. Accepts scalars or
    broadcastable arrays. Unlike `estimate` and `estimate_arrays`, it has no
    region clamp: inside the tolerance collar above the separable threshold
    it can be a rounding-level positive value where they report 0 (2.1e-9
    at (0.5, 0.5, 0.3333333338)).

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    m1, m2, m = require_valid_purities(mu1, mu2, mu, tol)
    out = _en_max_core(m1, m2, m)
    return float(out) if out.ndim == 0 else out


def en_min(mu1, mu2, mu, tol: float | None = None):
    """Smallest logarithmic negativity compatible with the given purities.

    Equals the exact E_N of the least entangled construction
    `extremal.glems` at these purities: positive only in the region where
    every state is entangled, 0 elsewhere. Accepts scalars or broadcastable
    arrays. Unlike `estimate` and `estimate_arrays`, it has no region clamp:
    inside the tolerance collar above the coexistence threshold it can be a
    rounding-level positive value where they report 0.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    m1, m2, m = require_valid_purities(mu1, mu2, mu, tol)
    out = _en_min_core(m1, m2, m)
    return float(out) if out.ndim == 0 else out


def relative_error(upper, lower):
    """Relative half-spread (upper - lower)/(upper + lower), 0 when both vanish."""
    hi = np.asarray(upper, dtype=float)
    lo = np.asarray(lower, dtype=float)
    total = hi + lo
    safe = np.where(total > 0.0, total, 1.0)
    out = np.where(total > 0.0, (hi - lo) / safe, 0.0)
    return float(out) if out.ndim == 0 else out


def estimate(mu1, mu2, mu, tol: float | None = None) -> EstimateResult:
    """Purity-only entanglement estimate for a single triple.

    Returns:
        EstimateResult with en_max >= en_min >= 0, their average en_avg,
        rel_err = (en_max - en_min)/(en_max + en_min) (0 when both bounds
        vanish) and the region label from `classify`.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    t = resolve_tolerance(tol)
    m1, m2, m = require_valid_purities(mu1, mu2, mu, t)
    m1, m2, m = float(m1), float(m2), float(m)
    hi = float(_en_max_core(m1, m2, m))
    lo = min(float(_en_min_core(m1, m2, m)), hi)
    region = classify(m1, m2, m, t)
    # Inside the tolerance collar around the thresholds the label is
    # authoritative: a separable label forces both bounds to exact zero and a
    # coexistence label forces the lower one, so the label and the numbers
    # never disagree by a rounding-level residue.
    if region is RegionLabel.SEPARABLE:
        hi = 0.0
        lo = 0.0
    elif region is RegionLabel.COEXISTENCE:
        lo = 0.0
    return EstimateResult(
        en_max=hi,
        en_min=lo,
        en_avg=0.5 * (hi + lo),
        rel_err=float(relative_error(hi, lo)),
        region=region,
    )


def estimate_arrays(mu1, mu2, mu, tol: float):
    """Columns of `estimate` for arrays of valid purity triples; no validation.

    Returns (region, en_min, en_max, en_avg, rel_err): the region code of
    `entangle.region_code` and the four bounds exactly as `estimate` gives
    them per triple, with en_min <= en_max and the region clamp applied
    (both bounds 0 on a separable code, en_min 0 on a coexistence code).
    Callers validate first, for example with `param.purity_masks`.
    """
    region = region_code(mu1, mu2, mu, tol)
    hi = _en_max_core(mu1, mu2, mu)
    lo = np.minimum(_en_min_core(mu1, mu2, mu), hi)
    hi = np.where(region == 0, 0.0, hi)
    lo = np.where(region == 2, lo, 0.0)
    return region, lo, hi, 0.5 * (hi + lo), relative_error(hi, lo)


def entanglement_report(p: PurityPoint, tol: float | None = None) -> EntanglementReport:
    """Region, purity-only bounds and, when delta is known, the exact E_N.

    Args:
        p: PurityPoint; if it carries a seralian delta, the report includes
            the partial-transpose eigenvalue and the exact log-negativity,
            otherwise those fields are None.
        tol: tolerance; defaults to the package tolerance.

    Raises:
        OutOfRegionError: delta present but outside its valid range.
    """
    t = resolve_tolerance(tol)
    result = estimate(p.mu1, p.mu2, p.mu, t)
    n_tilde = None
    exact = None
    if p.delta is not None:
        n_tilde = ppt_smallest_eigenvalue(p, t)
        exact = log_negativity(n_tilde)
    return EntanglementReport(
        region=result.region,
        n_tilde_minus=n_tilde,
        log_negativity=exact,
        en_max=result.en_max,
        en_min=result.en_min,
        en_avg=result.en_avg,
        rel_err=result.rel_err,
    )
