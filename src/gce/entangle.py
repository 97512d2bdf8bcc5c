"""Separability tests and logarithmic negativity.

The partial transpose of a two-mode covariance matrix flips the sign of
det gamma, turning the seralian delta into
delta_tilde = -delta + 1/(2 mu1^2) + 1/(2 mu2^2). The state is separable
iff the smallest symplectic eigenvalue of the partial transpose satisfies
n_tilde_minus >= 1/2, and its entanglement is quantified by
E_N = max{0, -ln(2 n_tilde_minus)}.

At fixed purities, n_tilde_minus^2 is strictly increasing in delta, which
is what makes purity-only entanglement bounds possible: the extremes of
delta give the extremes of E_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    PurityPoint,
    _physical,
    invariants,
    resolve_tolerance,
    symplectic_spectrum,
)
from .errors import MalformedInputError, OutOfRegionError
from .param import _delta_range, require_valid_purities

__all__ = [
    "RegionLabel",
    "EntanglementReport",
    "SlopeCheck",
    "ppt_smallest_eigenvalue",
    "log_negativity",
    "is_separable",
    "separable_threshold",
    "coexistence_threshold",
    "region_code",
    "classify",
    "delta_monotonicity_check",
    "analytic_delta_slope",
]

class RegionLabel(str, Enum):
    """Classification of a purity triple by its entanglement possibilities."""

    SEPARABLE = "separable"
    COEXISTENCE = "coexistence"
    ENTANGLED = "entangled"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EntanglementReport:
    """Classification plus entanglement bounds for one state or purity triple.

    n_tilde_minus and log_negativity are None when only purities are known;
    with a full state they satisfy en_min <= log_negativity <= en_max.
    """

    region: RegionLabel
    n_tilde_minus: float | None
    log_negativity: float | None
    en_max: float
    en_min: float
    en_avg: float
    rel_err: float


@dataclass(frozen=True)
class SlopeCheck:
    """Finite-difference and analytic values of d(n_tilde_minus^2)/d(delta)."""

    finite_difference: float
    analytic: float


def _ppt_nmin_sq(mu1, mu2, mu, delta):
    """n_tilde_minus^2 of floats or float arrays; no validation, radicand clamped at zero.

    Evaluates k / (2 (delta_tilde + sqrt(delta_tilde^2 - k))) with
    k = 1/(4 mu^2), the cancellation-free form of the small root.
    """
    delta_tilde = 0.5 / (mu1 * mu1) + 0.5 / (mu2 * mu2) - delta
    k = 0.25 / (mu * mu)
    rad = np.maximum(delta_tilde * delta_tilde - k, 0.0)
    return 0.5 * k / (delta_tilde + np.sqrt(rad))


def ppt_smallest_eigenvalue(p: PurityPoint, tol: float | None = None) -> float:
    """Smallest symplectic eigenvalue of the partially transposed state.

    Args:
        p: PurityPoint carrying a seralian delta inside `delta_bounds`.
        tol: boundary tolerance; defaults to the package tolerance.

    Returns:
        n_tilde_minus > 0 solving
        2 n^2 = delta_tilde - sqrt(delta_tilde^2 - 1/(4 mu^2)). The radicand
        is clamped at 0: it vanishes at delta_max on the uncertainty branch,
        and a delta inside the tolerance band above delta_max turns it
        slightly negative. The range check keeps delta_tilde >= 1/(2 mu) - tol.

    Raises:
        MalformedInputError: p carries no delta.
        OutOfRegionError: delta outside the valid range for these purities,
            or delta_tilde <= 0, which a tol >= 1/(2 mu) lets through.
    """
    delta = _delta_range(p, resolve_tolerance(tol))[0]
    delta_tilde = 0.5 / (p.mu1 * p.mu1) + 0.5 / (p.mu2 * p.mu2) - delta
    if delta_tilde <= 0.0:
        raise OutOfRegionError(f"delta = {delta:.12g} gives delta_tilde = {delta_tilde:.12g} <= 0")
    return math.sqrt(_ppt_nmin_sq(p.mu1, p.mu2, p.mu, delta))


def log_negativity(n_tilde_minus: float) -> float:
    """Logarithmic negativity E_N = max{0, -ln(2 n)} from the PPT eigenvalue.

    Natural logarithm; rescale by 1/ln 2 for base-2 output.

    Raises:
        MalformedInputError: nonpositive or non-finite input.
    """
    try:
        n = float(n_tilde_minus)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(
            f"n_tilde_minus must be a real number, got {n_tilde_minus!r}"
        ) from exc
    if not math.isfinite(n) or n <= 0.0:
        raise MalformedInputError(f"n_tilde_minus must be positive, got {n!r}")
    return max(0.0, -math.log(2.0 * n))


def is_separable(state, tol: float | None = None) -> bool:
    """Separability of a purity point with delta, or of a covariance matrix.

    True iff the smallest partial-transpose symplectic eigenvalue satisfies
    n_tilde_minus >= 1/2 - tol.

    Raises:
        MalformedInputError: purity point without delta, or malformed matrix.
        UnphysicalStateError: matrix input that fails `is_physical`.
        OutOfRegionError: purity point with delta outside its valid range.
    """
    t = resolve_tolerance(tol)
    if isinstance(state, PurityPoint):
        n = ppt_smallest_eigenvalue(state, t)
    else:
        cm = _physical(state, t)
        n = symplectic_spectrum(invariants(cm), transposed=True).n_minus
    return n >= 0.5 - t


def _separable_threshold(m1, m2):
    """`separable_threshold` of floats or float arrays; no coercion."""
    return m1 * m2 / (m1 + m2 - m1 * m2)


def _coexistence_threshold(m1, m2):
    """`coexistence_threshold` of floats or float arrays; no coercion."""
    return m1 * m2 / np.sqrt(m1 * m1 + m2 * m2 - m1 * m1 * m2 * m2)


def separable_threshold(mu1, mu2):
    """Largest global purity at which no state with these marginals is entangled."""
    out = _separable_threshold(np.asarray(mu1, dtype=float), np.asarray(mu2, dtype=float))
    return float(out) if out.ndim == 0 else out


def coexistence_threshold(mu1, mu2):
    """Largest global purity at which separable states with these marginals exist."""
    out = _coexistence_threshold(np.asarray(mu1, dtype=float), np.asarray(mu2, dtype=float))
    return float(out) if out.ndim == 0 else out


def _region_code(m1, m2, m, t):
    """`region_code` of floats (an integer) or float arrays; no coercion. A nan purity gives 2."""
    return (1 - (m <= _separable_threshold(m1, m2) + t)) * (
        2 - (m <= _coexistence_threshold(m1, m2) + t))


def region_code(mu1, mu2, mu, tol: float | None = None):
    """Vectorized region index: 0 separable, 1 coexistence, 2 entangled.

    Boundaries are closed on the lower region within `tol`. No constraint
    validation; intended for trusted bulk data. Scalars give an int, arrays
    an int array of their broadcast shape.
    """
    code = _region_code(np.asarray(mu1, dtype=float), np.asarray(mu2, dtype=float),
                        np.asarray(mu, dtype=float), resolve_tolerance(tol))
    return int(code) if code.ndim == 0 else code


_REGIONS = (RegionLabel.SEPARABLE, RegionLabel.COEXISTENCE, RegionLabel.ENTANGLED)


def classify(mu1, mu2, mu, tol: float | None = None) -> RegionLabel:
    """Entanglement region of a purity triple.

    separable: mu <= mu1 mu2 / (mu1 + mu2 - mu1 mu2); every state with these
    purities is separable. entangled: mu > mu1 mu2 / sqrt(mu1^2 + mu2^2 -
    mu1^2 mu2^2); every such state is entangled. coexistence: in between;
    both kinds of states exist. Boundaries are closed on the lower region
    within `tol`.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    t = resolve_tolerance(tol)
    return _REGIONS[_region_code(*require_valid_purities(mu1, mu2, mu, t), t)]


def _slope(p: PurityPoint, delta: float) -> float:
    """`analytic_delta_slope` at a delta already checked against its range."""
    delta_tilde = -delta + 0.5 / (p.mu1 * p.mu1) + 0.5 / (p.mu2 * p.mu2)
    k = 0.25 / (p.mu * p.mu)
    rad = delta_tilde * delta_tilde - k
    if rad <= 0.0:
        raise OutOfRegionError(
            "partial-transpose spectrum is degenerate; the slope diverges"
        )
    return 0.5 * (delta_tilde / math.sqrt(rad) - 1.0)


def analytic_delta_slope(p: PurityPoint, tol: float | None = None) -> float:
    """Closed-form d(n_tilde_minus^2)/d(delta) at a purity point with delta.

    Equals (delta_tilde / sqrt(delta_tilde^2 - 1/(4 mu^2)) - 1) / 2, which
    is strictly positive wherever the partial-transpose spectrum is
    non-degenerate: smaller delta always means more entanglement.

    Raises:
        MalformedInputError: p carries no delta.
        OutOfRegionError: delta outside bounds, or a degenerate
            partial-transpose spectrum (the slope diverges there).
    """
    return _slope(p, _delta_range(p, resolve_tolerance(tol))[0])


def delta_monotonicity_check(p: PurityPoint, h: float, tol: float | None = None) -> SlopeCheck:
    """Check that n_tilde_minus^2 increases with delta at fixed purities.

    Compares the central finite difference of n_tilde_minus^2 over
    [delta - h, delta + h] with the analytic slope. Both are positive for
    every interior purity point, and they agree to O(h^2).

    Args:
        p: PurityPoint with delta; delta and delta +- h must stay inside
            `delta_bounds`.
        h: positive finite-difference step.
        tol: boundary tolerance; defaults to the package tolerance.

    Returns:
        SlopeCheck(finite_difference, analytic).

    Raises:
        MalformedInputError: missing delta or nonpositive step.
        OutOfRegionError: the step exits the valid delta range, or the
            spectrum is degenerate at the evaluation point.
    """
    t = resolve_tolerance(tol)
    try:
        step = float(h)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"step must be a real number, got {h!r}") from exc
    if not math.isfinite(step) or step <= 0.0:
        raise MalformedInputError(f"step must be positive, got {step!r}")
    delta, delta_min, delta_max = _delta_range(p, t)
    if delta - step < delta_min - t or delta + step > delta_max + t:
        raise OutOfRegionError("finite-difference step exits the valid delta range")
    analytic = _slope(p, delta)
    f_plus = float(_ppt_nmin_sq(p.mu1, p.mu2, p.mu, delta + step))
    f_minus = float(_ppt_nmin_sq(p.mu1, p.mu2, p.mu, delta - step))
    return SlopeCheck(
        finite_difference=(f_plus - f_minus) / (2.0 * step),
        analytic=analytic,
    )
