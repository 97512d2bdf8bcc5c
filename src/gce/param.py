"""Purity parametrization of two-mode standard forms.

A standard form (a, b, c_plus, c_minus) is equivalent to the quadruple
(mu1, mu2, mu, delta): the marginal purities mu_i = 1/(2 a), 1/(2 b), the
global purity mu = 1/(4 sqrt(det sigma)) and the seralian
delta = a^2 + b^2 + 2 c_plus c_minus. This module converts in both
directions and exposes the existence bounds on delta at fixed purities.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import (
    PURITY_FLOOR,
    Diagnostic,
    PurityPoint,
    StandardForm,
    _physical,
    _purity_error,
    purity_masks,
    resolve_tolerance,
)
from .errors import MalformedInputError, OutOfRegionError

__all__ = [
    "PurityPoint",
    "purity_point",
    "standard_form_from_purities",
    "delta_bounds",
    "purity_masks",
    "check_purity_constraints",
    "require_valid_purities",
    "inversion_arrays",
    "purity_arrays",
    "purity_to_json",
    "purity_from_json",
]


def check_purity_constraints(mu1, mu2, mu, tol: float | None = None) -> Diagnostic:
    """Diagnostic for the two existence constraints on a purity triple.

    A triple (mu1, mu2, mu) belongs to a physical two-mode Gaussian state iff
    mu1*mu2 <= mu <= mu1*mu2 / (mu1*mu2 + |mu1 - mu2|), both up to `tol`.
    Domain failures (non-numeric or non-finite values, purities outside
    (0, 1] or below PURITY_FLOOR) are reported as failing diagnostics rather
    than raised.
    """
    try:
        require_valid_purities(mu1, mu2, mu, tol)
    except (MalformedInputError, OutOfRegionError) as exc:
        return Diagnostic(False, str(exc))
    return Diagnostic(True, "purities are consistent")


def require_valid_purities(mu1, mu2, mu, tol: float | None = None):
    """Validate purities and return them as Python floats or float arrays.

    Three scalars come back as three Python floats, anything else as
    broadcast float arrays. The verdict is `purity_masks`.

    Raises:
        MalformedInputError: non-numeric or non-finite entries, or purities
            outside (0, 1] or below PURITY_FLOOR.
        OutOfRegionError: violation of the existence constraints.
    """
    t = resolve_tolerance(tol)
    try:
        m1 = np.asarray(mu1, dtype=float)
        m2 = np.asarray(mu2, dtype=float)
        m = np.asarray(mu, dtype=float)
        # Three scalars need no broadcasting, which costs more than the checks.
        if m1.ndim or m2.ndim or m.ndim:
            m1, m2, m = np.broadcast_arrays(m1, m2, m)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"purities are not numeric: {exc}") from exc
    if m.ndim == 0:
        values = float(m1), float(m2), float(m)
        if not purity_masks(*values, t)[1]:
            raise _purity_error(*values, t)
        return values
    in_domain, accepted = purity_masks(m1, m2, m, t)
    if not np.all(in_domain):
        raise MalformedInputError(
            f"{int(np.count_nonzero(~in_domain))} purity triples lie outside (0, 1] "
            f"or below the purity floor {PURITY_FLOOR:g}"
        )
    if not np.all(accepted):
        raise OutOfRegionError(
            f"{int(np.count_nonzero(~accepted))} purity triples violate the "
            f"existence constraints"
        )
    return m1, m2, m


def purity_arrays(a, b, c_plus, c_minus):
    """Vectorized purities (mu1, mu2, mu, delta) of standard-form entries.

    No validation; intended for trusted bulk data.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cp = np.asarray(c_plus, dtype=float)
    cm = np.asarray(c_minus, dtype=float)
    ab = a * b
    det_sigma = (ab - cp * cp) * (ab - cm * cm)
    mu1 = 0.5 / a
    mu2 = 0.5 / b
    mu = 0.25 / np.sqrt(det_sigma)
    delta = a * a + b * b + 2.0 * cp * cm
    return mu1, mu2, mu, delta


def purity_point(sf: StandardForm, tol: float | None = None) -> PurityPoint:
    """Purities and seralian of a physical standard form.

    Args:
        sf: StandardForm or any 4-sequence (a, b, c_plus, c_minus).
        tol: physicality tolerance; defaults to the package tolerance.

    Returns:
        PurityPoint(mu1, mu2, mu, delta) with mu1 = 1/(2a), mu2 = 1/(2b),
        mu = 1/(4 sqrt((ab - c_plus^2)(ab - c_minus^2))) and
        delta = a^2 + b^2 + 2 c_plus c_minus.

    Raises:
        UnphysicalStateError: if the standard form is not physical.
    """
    if not isinstance(sf, StandardForm):
        sf = StandardForm(*sf)
    _physical(sf, tol)
    mu1, mu2, mu, delta = purity_arrays(sf.a, sf.b, sf.c_plus, sf.c_minus)
    return PurityPoint(mu1=float(mu1), mu2=float(mu2), mu=float(mu), delta=float(delta))


def _delta_min(m1, m2, m):
    """Lower seralian bound delta_min (see `delta_bounds`); no validation."""
    # Squares are products: on a Python float ** 2 calls libm pow, which can
    # differ by an ulp from the x * x numpy evaluates for arrays.
    gap = m1 - m2
    return 0.5 / m + gap * gap / (4.0 * m1 * m1 * m2 * m2)


def _delta_branches(m1, m2, m):
    """The upper seralian bounds (delta_b, delta_h) of `delta_bounds`; no validation."""
    total = m1 + m2
    delta_b = total * total / (4.0 * m1 * m1 * m2 * m2) - 0.5 / m
    delta_h = 0.25 * (1.0 + 1.0 / (m * m))
    return delta_b, delta_h


def delta_bounds(mu1, mu2, mu, tol: float | None = None):
    """Range of the seralian compatible with the given purities.

    For fixed (mu1, mu2, mu) the seralian of a physical state sweeps the
    closed interval [delta_min, delta_max] with

        delta_min = 1/(2 mu) + (mu1 - mu2)^2 / (4 mu1^2 mu2^2)
        delta_max = min(delta_b, delta_h)
        delta_b   = (mu1 + mu2)^2 / (4 mu1^2 mu2^2) - 1/(2 mu)
        delta_h   = (1 + 1/mu^2) / 4.

    The delta_b branch saturates the purity constraint from above; the
    delta_h branch saturates n_minus = 1/2 and is the active minimum exactly
    when mu >= mu1 mu2 / (mu1 + mu2 - mu1 mu2). Accepts scalars or
    broadcastable arrays and returns a pair shaped accordingly.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    m1, m2, m = require_valid_purities(mu1, mu2, mu, tol)
    # min keeps a scalar result a Python float, as np.minimum would not.
    upper = min if isinstance(m, float) else np.minimum
    return _delta_min(m1, m2, m), upper(*_delta_branches(m1, m2, m))


def _delta_range(p: PurityPoint, tol: float):
    """(delta, delta_min, delta_max) of a point whose delta lies in its range.

    The range is [delta_min - tol, delta_max + tol] from `delta_bounds`,
    compared absolutely.

    Raises:
        MalformedInputError: p carries no delta, or purities are malformed.
        OutOfRegionError: purity constraints violated, or delta outside the range.
    """
    if p.delta is None:
        raise MalformedInputError("delta is required: the purity point carries no delta")
    delta_min, delta_max = delta_bounds(p.mu1, p.mu2, p.mu, tol)
    if not delta_min - tol <= p.delta <= delta_max + tol:
        side = "below delta_min" if p.delta < delta_min - tol else "above delta_max"
        raise OutOfRegionError(f"delta = {p.delta:.12g} lies outside "
                               f"[{delta_min:.12g}, {delta_max:.12g}], {side}")
    return p.delta, delta_min, delta_max


def _correlations(m1, m2, m, t1, u1):
    """(c_plus, c_minus) of `inversion_arrays` from its differences t1, u1 >= 0."""
    sqrt = math.sqrt if isinstance(m, float) else np.sqrt
    prod = m1 * m2
    inv_mu = 1.0 / m
    half_sum = 0.5 * sqrt(prod * t1 * (t1 + inv_mu))
    half_diff = 0.5 * sqrt(prod * u1 * (u1 + inv_mu))
    return half_sum + half_diff, half_sum - half_diff


def inversion_arrays(mu1, mu2, mu, delta):
    """Vectorized standard form (a, b, c_plus, c_minus) from purities and seralian.

    Uses the factored radicands

        (c_plus + c_minus)^2 = mu1 mu2 t1 (t1 + 1/mu),  t1 = delta - delta_min
        (c_plus - c_minus)^2 = mu1 mu2 u1 (u1 + 1/mu),  u1 = delta_b - delta

    with both differences clamped at zero, so values of delta within
    round-off of the boundary stay real. Nothing is snapped: a state's own
    distance to a bound is information, unlike the difference of two bounds
    that `extremal.glems` snaps. No validation; intended for trusted bulk data.
    """
    m1 = np.asarray(mu1, dtype=float)
    m2 = np.asarray(mu2, dtype=float)
    m = np.asarray(mu, dtype=float)
    d = np.asarray(delta, dtype=float)
    t1 = np.maximum(d - _delta_min(m1, m2, m), 0.0)
    u1 = np.maximum(_delta_branches(m1, m2, m)[0] - d, 0.0)
    return (0.5 / m1, 0.5 / m2, *_correlations(m1, m2, m, t1, u1))


def standard_form_from_purities(p: PurityPoint, tol: float | None = None) -> StandardForm:
    """Standard form realizing a purity point with a prescribed seralian.

    Inverts `purity_point`: the result has marginal purities p.mu1, p.mu2,
    global purity p.mu and seralian p.delta, in the canonical orientation
    c_plus >= |c_minus|.

    Raises:
        MalformedInputError: p carries no delta, or purities are malformed.
        OutOfRegionError: purity constraints violated, or delta outside
            [delta_min - tol, delta_max + tol] (absolute comparison).
    """
    delta = _delta_range(p, resolve_tolerance(tol))[0]
    a, b, c_plus, c_minus = inversion_arrays(p.mu1, p.mu2, p.mu, delta)
    return StandardForm(float(a), float(b), float(c_plus), float(c_minus))


def purity_to_json(p: PurityPoint) -> str:
    """Serialize a PurityPoint as JSON; delta is null when absent."""
    return json.dumps({
        "mu1": p.mu1,
        "mu2": p.mu2,
        "mu": p.mu,
        "delta": p.delta,
    })


def purity_from_json(text: str) -> PurityPoint:
    """Parse a PurityPoint serialized by `purity_to_json`.

    Raises:
        MalformedInputError: invalid JSON or missing purity fields.
        OutOfRegionError: purity constraints violated.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedInputError("JSON payload must be an object")
    missing = [name for name in ("mu1", "mu2", "mu") if name not in payload]
    if missing:
        raise MalformedInputError(f"JSON payload is missing {', '.join(missing)}")
    return PurityPoint(
        mu1=payload["mu1"],
        mu2=payload["mu2"],
        mu=payload["mu"],
        delta=payload.get("delta"),
    )
