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

from .core import StandardForm, _as_float, _purity_error, default_tolerance, resolve_tolerance
from .errors import GceError, InactiveBranchError, MalformedInputError
from .param import _correlations, _delta_branches, _delta_min, purity_masks, require_valid_purities

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
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
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


_SNAP = 32.0 * float(np.finfo(float).eps)  # a Python float keeps scalar snaps off numpy


def _snapped(x, scale):
    """x, or 0.0 where it lies below 32 eps * scale; floats or float arrays.

    x is a difference of terms of size `scale` that vanishes on some locus
    and goes under a square root, which would amplify its ~eps * scale
    float noise into ~1e-8 spurious correlations.
    """
    # + 0.0 turns the -0.0 of a masked negative x into plain 0.0
    return x * (x >= _SNAP * scale) + 0.0


def _gmems_arrays(m1, m2, m):
    """Entries (a, b, c_plus, c_minus) of `gmems` for valid floats or float arrays."""
    # The builtins keep a scalar a Python float, as the ufuncs would not.
    greater, sqrt = (max, math.sqrt) if isinstance(m, float) else (np.maximum, np.sqrt)
    inv_prod = 1.0 / (m1 * m2)
    inv_mu = 1.0 / m
    c = 0.5 * sqrt(_snapped(inv_prod - inv_mu, greater(greater(1.0, inv_prod), inv_mu)))
    return 0.5 / m1, 0.5 / m2, c, -c + 0.0


def _glems_arrays(m1, m2, m):
    """Entries (a, b, c_plus, c_minus) of `glems` for valid floats or float arrays."""
    lesser, greater = (min, max) if isinstance(m, float) else (np.minimum, np.maximum)
    delta_min = _delta_min(m1, m2, m)
    delta_b, delta_h = _delta_branches(m1, m2, m)
    delta_max = lesser(delta_b, delta_h)
    scale = greater(greater(1.0, abs(delta_min)), abs(delta_b))
    t1 = _snapped(delta_max - delta_min, scale)
    u1 = _snapped(delta_b - delta_max, scale)
    return (0.5 / m1, 0.5 / m2, *_correlations(m1, m2, m, t1, u1))


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
    return StandardForm(*_gmems_arrays(*require_valid_purities(mu1, mu2, mu, tol)))


def glems(mu1, mu2, mu, tol: float | None = None) -> StandardForm:
    """Least entangled state at the given purities (delta = delta_max).

    The purity inversion at the upper delta bound, with the bound
    differences snapped to zero inside their float noise window. Where the
    uncertainty branch is the active bound (exactly when the purities admit
    entangled states) the result saturates n_minus = 1/2; the closed-form
    variant `glems_closed_form` applies only there.

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    return StandardForm(*_glems_arrays(*require_valid_purities(mu1, mu2, mu, tol)))


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
    delta_b, delta_h = _delta_branches(m1, m2, m)
    if delta_h > delta_b + t:
        raise InactiveBranchError(
            "closed form requires the uncertainty branch to bound delta; "
            "use the generic construction at delta_max instead"
        )
    # Both radicands vanish on interior loci (the first where the delta range
    # collapses onto the uncertainty bound, the second where the bounded and
    # uncertainty branches cross), so their float noise is snapped to zero.
    prod = m1 * m2
    prod_sq = prod * prod
    x = 1.0 + 1.0 / (m * m) - (m1 - m2) ** 2 / prod_sq
    rad1 = prod * (x * x - 4.0 / (m * m))
    first = 0.125 * math.sqrt(_snapped(rad1, prod * max(1.0, x * x, 4.0 / (m * m))))
    lump = ((1.0 + m * m) * prod_sq - m * m * (m1 + m2) ** 2) ** 2 / (
        m * m * prod_sq * prod
    )
    second = math.sqrt(_snapped(lump - 4.0 * prod, max(1.0, lump, 4.0 * prod))) / (8.0 * m)
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
    most = _gmems_arrays(m1, m2, m)
    gap = max(abs(x - y) for x, y in zip(most, _glems_arrays(m1, m2, m)))
    # Tripwire against formula defects, which would disagree at the scale of
    # the entries. The glems side splits bounds of size ~1/mu_i^2; scaled by
    # the entries, its noise stayed below 5e-8 on near-pure and small marginals.
    if gap > 1e-6 * max(1.0, most[0], most[1]):
        raise GceError(
            f"extremal constructions disagree at the collapsed point (gap {gap:.3g})"
        )
    return StandardForm(*most)


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


def _squeezing_arrays(a, b, c, m):
    """(r, n_minus, n_plus) of the squeezed thermal state (a, b, c, -c) of purity m.

    From n_plus - n_minus = |b - a| and n_plus n_minus = 1/(4 m), with no
    split of nearly equal roots. Floats or float arrays; no validation.
    """
    lesser = min if isinstance(m, float) else np.minimum
    gap = abs(b - a)
    n_plus = 0.5 * (np.sqrt(gap * gap + 1.0 / m) + gap)
    # At a = b the roots coincide, and rounding must not put n_minus above n_plus.
    n_minus = lesser(0.25 / (m * n_plus), n_plus)
    return 0.5 * np.arcsinh(2.0 * c / (n_minus + n_plus)), n_minus, n_plus


def gmems_squeezing(mu1, mu2, mu, tol: float | None = None) -> SqueezedThermalParams:
    """Squeezed-thermal parameters of the maximally entangled construction.

    Closed form, so it never raises on a valid triple: the thermal
    eigenvalues n_plus, n_minus = (sqrt((b - a)^2 + 1/mu) +- |b - a|)/2 of
    gmems(mu1, mu2, mu), which two-mode squeezing preserves, and the
    squeezing sinh(2r) = 2c / (n_minus + n_plus), which keeps its digits
    where tanh(2r) = 2c / (a + b) nears 1. `squeezed_thermal` of the
    result reproduces the gmems standard form when mu1 >= mu2, and its
    mode-swapped mirror otherwise (the parametrized family always puts the
    less mixed mode first).

    Raises:
        MalformedInputError: purities outside (0, 1].
        OutOfRegionError: purity constraints violated.
    """
    m1, m2, m = require_valid_purities(mu1, mu2, mu, tol)
    a, b, c, _ = _gmems_arrays(m1, m2, m)
    return SqueezedThermalParams(*_squeezing_arrays(a, b, c, m))
