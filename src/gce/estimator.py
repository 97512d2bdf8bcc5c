"""Entanglement bounds from purities alone.

Knowing only (mu1, mu2, mu), the logarithmic negativity of the underlying
state is bracketed by the values attained at the two ends of the allowed
seralian range: en_max at delta_min (the maximally entangled construction)
and en_min at delta_max (the least entangled one). The midpoint en_avg
serves as the purity-only estimate and rel_err quantifies its worst-case
relative deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PurityPoint, resolve_tolerance
from .entangle import (
    _REGIONS,
    EntanglementReport,
    RegionLabel,
    _ppt_nmin_sq,
    _region_code,
    log_negativity,
    ppt_smallest_eigenvalue,
)
from .param import _delta_min, require_valid_purities

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

    Logarithmic negativity -ln(4 n_tilde_minus^2)/2 at delta = delta_min.
    """
    delta_min = _delta_min(m1, m2, m)
    nmin_sq = _ppt_nmin_sq(m1, m2, m, delta_min)
    # + 0.0 turns a negative zero from the clamp into plain 0.0
    return np.maximum(0.0, -0.5 * np.log(4.0 * nmin_sq)) + 0.0


def _en_min_core(m1, m2, m):
    """Vectorized lower bound; no validation.

    Logarithmic negativity at delta = delta_max. With
    s = 1/mu1^2 + 1/mu2^2 - 1/(2 mu^2) - 1/2 (twice the partial-transpose
    seralian on the uncertainty branch), the bound is
    -ln(s - sqrt(s^2 - 1/mu^2))/2. Where s <= 0 or s^2 < 1/mu^2 the
    uncertainty branch is inactive and the least entangled state is
    separable, so the bound is 0.
    """
    inv_mu_sq = 1.0 / (m * m)
    s = 1.0 / (m1 * m1) + 1.0 / (m2 * m2) - 0.5 * inv_mu_sq - 0.5
    rad = s * s - inv_mu_sq
    active = (s > 0.0) & (rad >= 0.0)
    # Inactive entries divide by 1 and are zeroed by the mask. 1.0 - active,
    # not ~active, because ~True is -2.
    denom = s * active + (1.0 - active) + np.sqrt(rad * active)
    return np.maximum(0.0, -0.5 * np.log(inv_mu_sq / denom)) * active + 0.0


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


def _relative_error(hi, lo):
    """`relative_error` of floats or float arrays; no coercion.

    A nonpositive total divides a plain 0.0 by 1.
    """
    total = hi + lo
    positive = total > 0.0
    return ((hi - lo) * positive + 0.0) / (total * positive + (total <= 0.0))


def relative_error(upper, lower):
    """Relative half-spread (upper - lower)/(upper + lower), 0 when both vanish."""
    out = _relative_error(np.asarray(upper, dtype=float), np.asarray(lower, dtype=float))
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
    # Python floats round as 0-d arrays do, at a fraction of numpy's dispatch cost.
    region, lo, hi, avg, rel = estimate_arrays(*require_valid_purities(mu1, mu2, mu, t), t)
    return EstimateResult(
        en_max=float(hi),
        en_min=float(lo),
        en_avg=float(avg),
        rel_err=float(rel),
        region=_REGIONS[region],
    )


def estimate_arrays(mu1, mu2, mu, tol: float):
    """Columns of `estimate` for arrays of valid purity triples; no validation.

    Returns (region, en_min, en_max, en_avg, rel_err): the region code of
    `entangle.region_code` and the four bounds exactly as `estimate` gives
    them per triple, with en_min <= en_max and the region clamp applied
    (both bounds 0 on a separable code, en_min 0 on a coexistence code).
    Inside the tolerance collar around the thresholds the region is
    authoritative, so the label and the numbers never disagree by a
    rounding-level residue. Callers validate first, for example with
    `param.purity_masks`.
    """
    region = _region_code(mu1, mu2, mu, tol)
    hi = _en_max_core(mu1, mu2, mu)
    lo = np.minimum(_en_min_core(mu1, mu2, mu), hi) * (region == 2)
    hi = hi * (region != 0)
    return region, lo, hi, 0.5 * (hi + lo), _relative_error(hi, lo)


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
