"""Extremal two-mode Gaussian states at fixed purities.

At fixed (mu1, mu2, mu) the entanglement of a state is a decreasing
function of its seralian delta, so the endpoints of the allowed delta range
realize the extremes:

  * gmems: maximally entangled mixed states, at delta = delta_min; they are
    nonsymmetric squeezed thermal states.
  * glems: least entangled mixed states, at delta = delta_max; where the
    uncertainty branch is active they saturate n_minus = 1/2.
  * gmemms: maximally entangled states for fixed marginals alone, the
    mu -> upper-bound limit of gmems where the delta range collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    StandardForm,
    _as_float,
    _purity_error,
    default_tolerance,
    invariants,
    resolve_tolerance,
    symplectic_spectrum,
)
from .errors import GceError, InactiveBranchError, MalformedInputError
from .param import delta_bounds, purity_masks, require_valid_purities

__all__ = [
    "SqueezedThermalParams",
    "gmems",
    "glems",
    "glems_closed_form",
    "gmemms",
    "squeezed_thermal",
    "gmems_squeezing",
]


@dataclass(frozen=True)
class SqueezedThermalParams:
    """Two-mode squeezing r applied to a thermal state with spectrum {n_minus, n_plus}.

    The thermal covariance matrix is diag{n_minus, n_minus, n_plus, n_plus},
    so n_plus >= n_minus >= 1/2; r >= 0.
    """

    r: float
    n_minus: float
    n_plus: float

    def __post_init__(self) -> None:
        tol = default_tolerance()
        for name in ("r", "n_minus", "n_plus"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError) as exc:
                raise MalformedInputError(
                    f"{name} must be a real number, got {value!r}"
                ) from exc
            if not math.isfinite(value):
                raise MalformedInputError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.r < 0.0:
            raise MalformedInputError(f"squeezing must satisfy r >= 0, got {self.r!r}")
        if self.n_minus < 0.5 - tol:
            raise MalformedInputError(
                f"thermal eigenvalues must satisfy n >= 1/2, got n_minus = {self.n_minus!r}"
            )
        if self.n_plus < self.n_minus - tol * max(1.0, self.n_minus):
            raise MalformedInputError(
                f"ordering requires n_plus >= n_minus, got "
                f"n_plus = {self.n_plus!r}, n_minus = {self.n_minus!r}"
            )


def gmems(mu1, mu2, mu, tol: float | None = None) -> StandardForm:
    """Maximally entangled state at the given purities (delta = delta_min).

    Standard form (1/(2 mu1), 1/(2 mu2), c, -c) with
    c = sqrt(1/(mu1 mu2) - 1/mu) / 2; the radicand vanishes on the
    product-state boundary mu = mu1 mu2 and is snapped to zero inside its
    float noise window so boundary triples construct cleanly.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    m1, m2, m = require_valid_purities(mu1, mu2, mu, tol)
    m1, m2, m = float(m1), float(m2), float(m)
    rad = 1.0 / (m1 * m2) - 1.0 / m
    # Same hazard as in glems: a square root amplifies the ~eps*scale float
    # noise of a vanishing radicand into ~1e-8 spurious correlations.
    snap = 32.0 * np.finfo(float).eps * max(1.0, 1.0 / (m1 * m2), 1.0 / m)
    c = 0.5 * math.sqrt(rad) if rad >= snap else 0.0
    return StandardForm(0.5 / m1, 0.5 / m2, c, -c + 0.0)


def glems(mu1, mu2, mu, tol: float | None = None) -> StandardForm:
    """Least entangled state at the given purities (delta = delta_max).

    Constructed by the generic purity inversion at the upper delta bound.
    Where the uncertainty branch is the active bound (exactly when the
    purities admit entangled states) the result saturates n_minus = 1/2; the
    closed-form variant `glems_closed_form` applies only there.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    m1, m2, m = require_valid_purities(mu1, mu2, mu, tol)
    m1, m2, m = float(m1), float(m2), float(m)
    delta_min, delta_max = delta_bounds(m1, m2, m, tol)
    prod_sq = 4.0 * m1 * m1 * m2 * m2
    delta_b = (m1 + m2) ** 2 / prod_sq - 0.5 / m
    # Differences of the bounds sit under square roots, which would amplify
    # their float noise (~eps * scale) into ~1e-8 correlations where the
    # delta range collapses; snap anything inside the noise window to zero.
    snap = 32.0 * np.finfo(float).eps * max(1.0, abs(delta_min), abs(delta_b))
    t1 = delta_max - delta_min
    t1 = 0.0 if t1 < snap else t1
    u1 = delta_b - delta_max
    u1 = 0.0 if u1 < snap else u1
    half_sum = 0.5 * math.sqrt(m1 * m2 * t1 * (t1 + 1.0 / m))
    half_diff = 0.5 * math.sqrt(m1 * m2 * u1 * (u1 + 1.0 / m))
    return StandardForm(
        0.5 / m1, 0.5 / m2, half_sum + half_diff, half_sum - half_diff
    )


def glems_closed_form(mu1, mu2, mu, tol: float | None = None) -> StandardForm:
    """Least entangled state via the explicit purity-only correlations.

    Valid only where the uncertainty branch is the active upper bound,
    (1 + 1/mu^2)/4 <= (mu1 + mu2)^2/(4 mu1^2 mu2^2) - 1/(2 mu); there it
    agrees with `glems`. Outside that regime the second radicand turns
    negative and the formula does not describe a state.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
        InactiveBranchError: uncertainty branch not active at these purities.
    """
    t = resolve_tolerance(tol)
    m1, m2, m = require_valid_purities(mu1, mu2, mu, t)
    m1, m2, m = float(m1), float(m2), float(m)
    prod = m1 * m2
    prod_sq = prod * prod
    delta_h = 0.25 * (1.0 + 1.0 / (m * m))
    delta_b = (m1 + m2) ** 2 / (4.0 * prod_sq) - 0.5 / m
    if delta_h > delta_b + t:
        raise InactiveBranchError(
            "closed form requires the uncertainty branch to bound delta; "
            "use the generic construction at delta_max instead"
        )
    # Both radicands vanish on interior loci (the first where the delta range
    # collapses onto the uncertainty bound, the second where the bounded and
    # uncertainty branches cross), so snap their float noise windows to zero
    # exactly as the generic construction does for its delta differences.
    eps = np.finfo(float).eps
    x = 1.0 + 1.0 / (m * m) - (m1 - m2) ** 2 / prod_sq
    rad1 = prod * (x * x - 4.0 / (m * m))
    snap1 = 32.0 * eps * prod * max(1.0, x * x, 4.0 / (m * m))
    first = 0.125 * math.sqrt(rad1) if rad1 >= snap1 else 0.0
    lump = ((1.0 + m * m) * prod_sq - m * m * (m1 + m2) ** 2) ** 2 / (
        m * m * prod_sq * prod
    )
    inner = lump - 4.0 * prod
    snap2 = 32.0 * eps * max(1.0, lump, 4.0 * prod)
    second = math.sqrt(inner) / (8.0 * m) if inner >= snap2 else 0.0
    return StandardForm(0.5 / m1, 0.5 / m2, first + second, first - second)


def gmemms(mu1, mu2, tol: float | None = None) -> StandardForm:
    """Maximally entangled state for fixed marginal purities alone.

    Sets the global purity to its upper bound
    mu = mu1 mu2 / (mu1 mu2 + |mu1 - mu2|), where the delta range collapses
    to a point and the maximal and minimal constructions coincide; for
    mu1 = mu2 this is a pure two-mode squeezed state.

    Raises:
        MalformedInputError: marginals outside (0, 1] or below PURITY_FLOOR.
        GceError: internal consistency check failed (the two constructions
            disagree at the collapsed point).
    """
    t = resolve_tolerance(tol)
    m1, m2 = _as_float("mu1", mu1), _as_float("mu2", mu2)
    if not purity_masks(m1, m2, 1.0, t)[0]:
        raise _purity_error(m1, m2, 1.0, t)
    prod = m1 * m2
    m = prod / (prod + abs(m1 - m2))
    most = gmems(m1, m2, m, t)
    least = glems(m1, m2, m, t)
    gap = max(
        abs(most.a - least.a),
        abs(most.b - least.b),
        abs(most.c_plus - least.c_plus),
        abs(most.c_minus - least.c_minus),
    )
    # Tripwire against formula defects, which would disagree at O(1). Sized
    # above the worst root-splitting noise (~1e-7, reached when one marginal
    # sits within ~1e-14 of pure and the collapsed correlation itself is of
    # noise scale), so it never fires on conditioning artifacts.
    if gap > 1e-6:
        raise GceError(
            f"extremal constructions disagree at the collapsed point (gap {gap:.3g})"
        )
    return most


def squeezed_thermal(params: SqueezedThermalParams) -> StandardForm:
    """Standard form of a two-mode squeezed thermal state.

    (a, b, c, -c) with a = n- cosh^2 r + n+ sinh^2 r,
    b = n+ cosh^2 r + n- sinh^2 r and c = (n- + n+) sinh(2r)/2. Mode 1
    carries the smaller thermal eigenvalue, so a <= b; swapping the modes
    gives the mirrored state.
    """
    if not isinstance(params, SqueezedThermalParams):
        params = SqueezedThermalParams(*params)
    ch = math.cosh(params.r) ** 2
    sh = math.sinh(params.r) ** 2
    c = 0.5 * (params.n_minus + params.n_plus) * math.sinh(2.0 * params.r)
    return StandardForm(
        params.n_minus * ch + params.n_plus * sh,
        params.n_plus * ch + params.n_minus * sh,
        c,
        -c + 0.0,
    )


def gmems_squeezing(mu1, mu2, mu, tol: float | None = None) -> SqueezedThermalParams:
    """Squeezed-thermal parameters of the maximally entangled construction.

    The thermal eigenvalues are the symplectic spectrum of
    gmems(mu1, mu2, mu), which two-mode squeezing preserves, and the
    squeezing follows from tanh(2r) = 2 c / (a + b). `squeezed_thermal` of
    the result reproduces the gmems standard form when mu1 >= mu2, and its
    mode-swapped mirror otherwise (the parametrized family always puts the
    less mixed mode first).

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    sf = gmems(mu1, mu2, mu, tol)
    spectrum = symplectic_spectrum(invariants(sf))
    # Splitting nearly equal symplectic roots loses half the digits near the
    # pure-state boundary; physical thermal eigenvalues never sit below 1/2.
    n_minus = max(spectrum.n_minus, 0.5)
    ratio = 2.0 * sf.c_plus / (sf.a + sf.b)
    return SqueezedThermalParams(
        r=0.5 * math.atanh(ratio),
        n_minus=n_minus,
        n_plus=max(spectrum.n_plus, n_minus),
    )
