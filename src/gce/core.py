"""Covariance matrices of two-mode Gaussian states.

Conventions used throughout: quadrature ordering (x1, p1, x2, p2) and
dimensionless units in which the vacuum covariance matrix is I/2. A state
is physical iff its smallest symplectic eigenvalue satisfies n_minus >= 1/2,
and its purity is mu = 1 / (4 sqrt(det sigma)).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigurationError,
    GceError,
    MalformedInputError,
    OutOfRegionError,
    UnphysicalStateError,
)

__all__ = [
    "OMEGA",
    "JSON_CONVENTION",
    "Diagnostic",
    "CovarianceMatrix",
    "StandardForm",
    "Invariants",
    "SymplecticSpectrum",
    "PurityPoint",
    "PURITY_FLOOR",
    "default_tolerance",
    "resolve_tolerance",
    "as_covariance_matrix",
    "det4",
    "invariants",
    "symplectic_spectrum",
    "is_physical",
    "purities",
    "to_standard_form",
    "from_standard_form",
    "to_json",
    "from_json",
]

#: Symplectic form of two modes in (x1, p1, x2, p2) ordering.
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
OMEGA.setflags(write=False)

#: Convention tag carried by the JSON serialization of covariance matrices.
JSON_CONVENTION = "vacuum=1/2"

# Relative clamp window for radicands that sit on an exact zero set.
_RADICAND_SLACK = 1e-12

#: Smallest accepted purity. The closed forms multiply up to eight purities
#: (glems_closed_form divides by mu^2 mu1^3 mu2^3); above 1e-30 every such
#: product stays a normal float, while near 1e-162 even mu1*mu2 underflows to 0.
PURITY_FLOOR = 1e-30


def default_tolerance() -> float:
    """Default numerical tolerance (1e-9), overridable via GCE_TOLERANCE."""
    raw = os.environ.get("GCE_TOLERANCE")
    if raw is None:
        return 1e-9
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"GCE_TOLERANCE is not a number: {raw!r}") from exc
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigurationError(
            f"GCE_TOLERANCE must be a positive finite number, got {raw!r}"
        )
    return value


def resolve_tolerance(tol: float | None) -> float:
    """Return `tol` as a float, or the default tolerance when None."""
    return default_tolerance() if tol is None else float(tol)


def _as_float(name: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise MalformedInputError(f"{name} must be finite, got {out!r}")
    return out


def _purity_error(mu1: float, mu2: float, mu: float, tol: float) -> GceError | None:
    """The error naming the first rule a scalar purity triple breaks, or None."""
    for name, value in (("mu1", mu1), ("mu2", mu2), ("mu", mu)):
        if not 0.0 < value <= 1.0 + tol:
            return MalformedInputError(f"{name} = {value!r} lies outside (0, 1]")
        if value < PURITY_FLOOR:
            return MalformedInputError(
                f"{name} = {value!r} lies below the purity floor {PURITY_FLOOR:g}"
            )
    lower = mu1 * mu2
    upper = lower / (lower + abs(mu1 - mu2))
    if mu < lower - tol:
        return OutOfRegionError(f"mu = {mu:.12g} violates mu >= mu1*mu2 = {lower:.12g}")
    if mu > upper + tol:
        return OutOfRegionError(
            f"mu = {mu:.12g} violates "
            f"mu <= mu1*mu2/(mu1*mu2 + |mu1 - mu2|) = {upper:.12g}"
        )
    return None


@dataclass(frozen=True)
class Diagnostic:
    """Outcome of a validity check; `reason` names the first failed test."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Real symmetric 4x4 second-moment matrix in (x1, p1, x2, p2) ordering.

    Construction validates shape, finiteness and symmetry only; physicality
    (n_minus >= 1/2) is checked separately by `is_physical`.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        try:
            m = np.asarray(self.entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise MalformedInputError(f"covariance entries are not numeric: {exc}") from exc
        if m.shape != (4, 4):
            raise MalformedInputError(f"covariance matrix must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise MalformedInputError("covariance matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > default_tolerance() * scale:
            raise MalformedInputError("covariance matrix must be symmetric")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class StandardForm:
    """Standard-form quadruple (a, b, c_plus, c_minus).

    The induced covariance matrix has 2x2 blocks diag{a, a}, diag{b, b} on
    the diagonal and diag{c_plus, c_minus} off the diagonal. The canonical
    orientation fixes c_plus >= |c_minus|; use `StandardForm.canonical` to
    build one from correlations in an arbitrary gauge.
    """

    a: float
    b: float
    c_plus: float
    c_minus: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c_plus", "c_minus"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        tol = default_tolerance()
        if self.a < 0.5 - tol or self.b < 0.5 - tol:
            raise MalformedInputError(
                f"diagonal entries must satisfy a, b >= 1/2, got a = {self.a!r}, b = {self.b!r}"
            )
        if self.c_plus < abs(self.c_minus) - tol * max(1.0, abs(self.c_minus)):
            raise MalformedInputError(
                f"orientation requires c_plus >= |c_minus|, got "
                f"c_plus = {self.c_plus!r}, c_minus = {self.c_minus!r}"
            )

    @staticmethod
    def canonical(a: float, b: float, c1: float, c2: float) -> "StandardForm":
        """Build a StandardForm from raw correlations (c1, c2).

        Local pi/2 and pi rotations allow swapping the pair and flipping both
        signs at once; this picks the representative with c_plus >= |c_minus|.
        All symplectic invariants are unchanged.
        """
        u, v = float(c1), float(c2)
        if abs(v) > abs(u):
            u, v = v, u
        if u < 0.0:
            u, v = -u, -v
        return StandardForm(float(a), float(b), u, v)

    def matrix(self) -> np.ndarray:
        """Raw 4x4 embedding; no physicality check."""
        a, b, cp, cm = self.a, self.b, self.c_plus, self.c_minus
        return np.array([
            [a, 0.0, cp, 0.0],
            [0.0, a, 0.0, cm],
            [cp, 0.0, b, 0.0],
            [0.0, cm, 0.0, b],
        ])

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c_plus, self.c_minus)


@dataclass(frozen=True)
class Invariants:
    """Local and global Sp(4, R) invariants of a covariance matrix."""

    det_alpha: float
    det_beta: float
    det_gamma: float
    det_sigma: float
    delta: float

    @property
    def delta_tilde(self) -> float:
        """Seralian of the partial transpose (sign of det_gamma flipped)."""
        return self.delta - 4.0 * self.det_gamma


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalue pair; `transposed` marks a partial-transpose spectrum."""

    n_minus: float
    n_plus: float
    transposed: bool = False


@dataclass(frozen=True)
class PurityPoint:
    """Marginal purities (mu1, mu2), global purity mu, and optional seralian delta.

    Construction enforces the two existence constraints
    mu1*mu2 <= mu <= mu1*mu2 / (mu1*mu2 + |mu1 - mu2|); no two-mode Gaussian
    state has purities outside that strip. Purities below PURITY_FLOOR are
    rejected as malformed. The checks run at eight times the
    base tolerance so that states admitted by the physicality slack still map
    to constructible points.
    """

    mu1: float
    mu2: float
    mu: float
    delta: float | None = None

    def __post_init__(self) -> None:
        for name in ("mu1", "mu2", "mu"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if self.delta is not None:
            object.__setattr__(self, "delta", _as_float("delta", self.delta))
        error = _purity_error(self.mu1, self.mu2, self.mu, 8.0 * default_tolerance())
        if error is not None:
            raise error


def as_covariance_matrix(cm) -> CovarianceMatrix:
    """Coerce a CovarianceMatrix, StandardForm or array-like into a CovarianceMatrix."""
    if isinstance(cm, CovarianceMatrix):
        return cm
    if isinstance(cm, StandardForm):
        return CovarianceMatrix(cm.matrix())
    return CovarianceMatrix(cm)


def det4(m) -> np.ndarray:
    """Determinant of a 4x4 matrix by expansion over complementary 2x2 minors.

    Plain products and sums only, so it broadcasts over stacked arrays of
    shape (..., 4, 4) and stays exact for integer or rational inputs.
    """
    m = np.asarray(m)
    a0, a1, a2, a3 = m[..., 0, 0], m[..., 1, 0], m[..., 2, 0], m[..., 3, 0]
    b0, b1, b2, b3 = m[..., 0, 1], m[..., 1, 1], m[..., 2, 1], m[..., 3, 1]
    c0, c1, c2, c3 = m[..., 0, 2], m[..., 1, 2], m[..., 2, 2], m[..., 3, 2]
    d0, d1, d2, d3 = m[..., 0, 3], m[..., 1, 3], m[..., 2, 3], m[..., 3, 3]
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def _det4_exact(rows) -> Fraction:
    """det4 over a 4x4 nested list of Fractions; exact."""
    d01 = rows[0][0] * rows[1][1] - rows[1][0] * rows[0][1]
    d02 = rows[0][0] * rows[2][1] - rows[2][0] * rows[0][1]
    d03 = rows[0][0] * rows[3][1] - rows[3][0] * rows[0][1]
    d12 = rows[1][0] * rows[2][1] - rows[2][0] * rows[1][1]
    d13 = rows[1][0] * rows[3][1] - rows[3][0] * rows[1][1]
    d23 = rows[2][0] * rows[3][1] - rows[3][0] * rows[2][1]
    c01 = rows[0][2] * rows[1][3] - rows[1][2] * rows[0][3]
    c02 = rows[0][2] * rows[2][3] - rows[2][2] * rows[0][3]
    c03 = rows[0][2] * rows[3][3] - rows[3][2] * rows[0][3]
    c12 = rows[1][2] * rows[2][3] - rows[2][2] * rows[1][3]
    c13 = rows[1][2] * rows[3][3] - rows[3][2] * rows[1][3]
    c23 = rows[2][2] * rows[3][3] - rows[3][2] * rows[2][3]
    return d01 * c23 - d02 * c13 + d03 * c12 + d12 * c03 - d13 * c02 + d23 * c01


def _det3(m) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def invariants(cm) -> Invariants:
    """Block determinants and the seralian of a covariance matrix.

    Args:
        cm: CovarianceMatrix, StandardForm or symmetric 4x4 array-like.

    Returns:
        Invariants with det alpha, det beta, det gamma, det sigma and
        delta = det alpha + det beta + 2 det gamma. The 2x2 blocks use the
        exact cofactor formula; det sigma uses the minor expansion of `det4`.

    Raises:
        MalformedInputError: if the input is not a symmetric 4x4 matrix.
    """
    m = as_covariance_matrix(cm).entries
    det_alpha = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    det_beta = m[2, 2] * m[3, 3] - m[2, 3] * m[3, 2]
    det_gamma = m[0, 2] * m[1, 3] - m[0, 3] * m[1, 2]
    delta = det_alpha + det_beta + 2.0 * det_gamma
    return Invariants(
        det_alpha=float(det_alpha),
        det_beta=float(det_beta),
        det_gamma=float(det_gamma),
        det_sigma=float(det4(m)),
        delta=float(delta),
    )


def symplectic_spectrum(inv: Invariants, transposed: bool = False) -> SymplecticSpectrum:
    """Symplectic eigenvalues from the invariants.

    Solves 2 n^2 = d -+ sqrt(d^2 - 4 det sigma) where d is the seralian, or
    the partial-transpose seralian when `transposed` is set. The small root
    is evaluated as 2 det sigma / (d + sqrt(...)) to avoid cancellation.

    Raises:
        UnphysicalStateError: nonpositive det sigma, nonpositive seralian, or
            a radicand negative beyond the clamp window.
    """
    d = inv.delta_tilde if transposed else inv.delta
    if inv.det_sigma <= 0.0:
        raise UnphysicalStateError(f"det_sigma must be positive, got {inv.det_sigma:.12g}")
    if d <= 0.0:
        raise UnphysicalStateError(f"seralian must be positive, got {d:.12g}")
    rad = d * d - 4.0 * inv.det_sigma
    if rad < 0.0:
        scale = d * d + 4.0 * abs(inv.det_sigma)
        if rad < -_RADICAND_SLACK * scale:
            raise UnphysicalStateError(
                f"invariants admit no real symplectic spectrum (radicand {rad:.6g})"
            )
        rad = 0.0
    root = math.sqrt(rad)
    return SymplecticSpectrum(
        n_minus=math.sqrt(2.0 * inv.det_sigma / (d + root)),
        n_plus=math.sqrt((d + root) / 2.0),
        transposed=transposed,
    )


def is_physical(cm, tol: float | None = None) -> Diagnostic:
    """Physicality diagnostic for a covariance matrix.

    Checks, in order: finite real 4x4 entries, symmetry, positive
    definiteness through the leading principal minors, det sigma > 0, and
    n_minus >= 1/2 - tol. Returns a Diagnostic naming the first failed
    check; never raises.
    """
    t = resolve_tolerance(tol)
    if isinstance(cm, StandardForm):
        m = cm.matrix()
    elif isinstance(cm, CovarianceMatrix):
        m = cm.entries
    else:
        try:
            m = np.asarray(cm, dtype=float)
        except (TypeError, ValueError):
            return Diagnostic(False, "not a real 4x4 matrix")
    if m.shape != (4, 4) or not np.all(np.isfinite(m)):
        return Diagnostic(False, "not a finite real 4x4 matrix")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > t * scale:
        return Diagnostic(False, "not symmetric")
    minor1 = m[0, 0]
    minor2 = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    minor3 = _det3(m)
    det_sigma = float(det4(m))
    if minor1 <= 0.0 or minor2 <= 0.0 or minor3 <= 0.0:
        return Diagnostic(False, "not positive definite")
    if det_sigma <= 0.0:
        return Diagnostic(False, "det_sigma <= 0")
    # n_minus >= 1/2 - tol is decided through the Hermitian matrix
    # sigma + i Omega/2: Williamson plus Sylvester's law of inertia make it
    # congruent to diag(n_k -+ 1/2), so its lowest eigenvalue changes sign
    # exactly where n_minus crosses 1/2. Any test built from the invariants
    # loses the boundary in sqrt(eps) noise, because the deficit enters them
    # quadratically both when the roots nearly coincide (pure states) and
    # when they straddle 1/2; the Hermitian eigenproblem resolves it to
    # first order in eps.
    eigs = np.linalg.eigvalsh(m + 0.5j * OMEGA)
    if float(eigs[0]) < -t * max(1.0, float(np.abs(eigs).max())):
        det_alpha = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        det_beta = m[2, 2] * m[3, 3] - m[2, 3] * m[3, 2]
        det_gamma = m[0, 2] * m[1, 3] - m[0, 3] * m[1, 2]
        delta = det_alpha + det_beta + 2.0 * det_gamma
        rad = max(delta * delta - 4.0 * det_sigma, 0.0)
        n_minus = math.sqrt(2.0 * det_sigma / (delta + math.sqrt(rad)))
        return Diagnostic(False, f"n_minus = {n_minus:.12g} < 1/2")
    return Diagnostic(True, "physical")


def purities(cm, tol: float | None = None) -> PurityPoint:
    """Global and marginal purities of a physical covariance matrix.

    Evaluates mu = 1/(4 sqrt(det sigma)), mu_i = 1/(2 sqrt(det of block i)),
    and attaches the seralian.

    Raises:
        UnphysicalStateError: if `is_physical` fails (its reason is carried).
    """
    c = as_covariance_matrix(cm)
    diag = is_physical(c, tol)
    if not diag.ok:
        raise UnphysicalStateError(diag.reason)
    inv = invariants(c)
    return PurityPoint(
        mu1=1.0 / (2.0 * math.sqrt(inv.det_alpha)),
        mu2=1.0 / (2.0 * math.sqrt(inv.det_beta)),
        mu=1.0 / (4.0 * math.sqrt(inv.det_sigma)),
        delta=inv.delta,
    )


def to_standard_form(cm, tol: float | None = None) -> StandardForm:
    """Standard form (a, b, c_plus, c_minus) of a physical covariance matrix.

    a and b are the square roots of the block determinants; c_plus and
    c_minus solve c_plus c_minus = det gamma together with
    ab (c_plus^2 + c_minus^2) = (ab)^2 + (det gamma)^2 - det sigma, oriented
    so that c_plus >= |c_minus|. The determinants and the symmetric
    quadratic are evaluated in exact rational arithmetic, converting to
    float only at the final square roots; this keeps the round trip with
    `from_standard_form` tight even when the correlations nearly vanish.

    Raises:
        MalformedInputError: non-symmetric input.
        UnphysicalStateError: unphysical input or inconsistent invariants.
    """
    c = as_covariance_matrix(cm)
    diag = is_physical(c, tol)
    if not diag.ok:
        raise UnphysicalStateError(diag.reason)
    rows = [[Fraction(x) for x in row] for row in c.entries.tolist()]
    det_alpha = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det_beta = rows[2][2] * rows[3][3] - rows[2][3] * rows[3][2]
    det_gamma = rows[0][2] * rows[1][3] - rows[0][3] * rows[1][2]
    det_sigma = _det4_exact(rows)
    ab_sq = det_alpha * det_beta
    # n_sum = ab (c+^2 + c-^2) and disc = (ab)^2 (c+^2 - c-^2)^2, both exact.
    n_sum = ab_sq + det_gamma * det_gamma - det_sigma
    disc = n_sum * n_sum - 4 * det_gamma * det_gamma * ab_sq
    if disc < 0:
        scale = n_sum * n_sum + 4 * det_gamma * det_gamma * ab_sq
        if disc < -Fraction(_RADICAND_SLACK) * scale:
            raise UnphysicalStateError("block invariants are inconsistent")
        disc = Fraction(0)
    a = math.sqrt(float(det_alpha))
    b = math.sqrt(float(det_beta))
    r1 = (float(n_sum) + math.sqrt(float(disc))) / (2.0 * a * b)
    if r1 <= 0.0:
        return StandardForm(a, b, 0.0, 0.0)
    c_plus = math.sqrt(r1)
    c_minus = float(det_gamma) / c_plus if det_gamma != 0 else 0.0
    return StandardForm(a, b, c_plus, c_minus)


def from_standard_form(sf, tol: float | None = None) -> CovarianceMatrix:
    """Covariance matrix with blocks diag{a,a}, diag{b,b}, diag{c+, c-}.

    Round-trips with `to_standard_form`.

    Raises:
        UnphysicalStateError: if the induced matrix is unphysical.
    """
    if not isinstance(sf, StandardForm):
        sf = StandardForm(*sf)
    m = sf.matrix()
    diag = is_physical(m, tol)
    if not diag.ok:
        raise UnphysicalStateError(diag.reason)
    return CovarianceMatrix(m)


def to_json(cm) -> str:
    """Serialize a covariance matrix as JSON with its convention tag."""
    m = as_covariance_matrix(cm).entries
    payload = {
        "convention": JSON_CONVENTION,
        "matrix": [[float(x) for x in row] for row in m],
    }
    return json.dumps(payload)


def from_json(text: str) -> CovarianceMatrix:
    """Parse a covariance matrix serialized by `to_json`.

    Raises:
        MalformedInputError: invalid JSON, missing fields, a convention tag
            other than "vacuum=1/2", or a malformed matrix.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedInputError("JSON payload must be an object")
    convention = payload.get("convention")
    if convention != JSON_CONVENTION:
        raise MalformedInputError(
            f"unsupported convention {convention!r}; expected {JSON_CONVENTION!r}"
        )
    if "matrix" not in payload:
        raise MalformedInputError("JSON payload is missing the 'matrix' field")
    try:
        entries = np.asarray(payload["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"matrix field is not numeric: {exc}") from exc
    return CovarianceMatrix(entries)
