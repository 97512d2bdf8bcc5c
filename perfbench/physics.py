"""Reference computations made apart from gce.

Everything the checkers compare against comes from here: symplectic spectra
and logarithmic negativity from numpy eigenvalues, purities from
``numpy.linalg.det``, and the paper's region thresholds, seralian bounds and
negativity closed form written out again. Nothing in this module imports gce.

Conventions follow the paper: quadratures (x1, p1, x2, p2), vacuum = I/2,
mu = 1 / (4 sqrt(det sigma)), mu_i = 1 / (2 sqrt(det of block i)).
"""

from __future__ import annotations

import numpy as np

OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

# Partial transposition: p2 -> -p2.
FLIP = np.diag([1.0, 1.0, 1.0, -1.0])

# Purity triples closer than this to a region threshold or a strip edge are
# inside the program's documented tolerance collar, where either adjacent
# label is correct.
COLLAR_REL = 1e-6
COLLAR_ABS = 1e-8


def collar(x):
    return COLLAR_REL * np.abs(x) + COLLAR_ABS


def standard_form_matrices(sf) -> np.ndarray:
    """(n, 4, 4) covariance matrices of standard forms given as (n, 4) rows."""
    sf = np.asarray(sf, dtype=float).reshape(-1, 4)
    out = np.zeros((sf.shape[0], 4, 4))
    out[:, 0, 0] = out[:, 1, 1] = sf[:, 0]
    out[:, 2, 2] = out[:, 3, 3] = sf[:, 1]
    out[:, 0, 2] = out[:, 2, 0] = sf[:, 2]
    out[:, 1, 3] = out[:, 3, 1] = sf[:, 3]
    return out


def symplectic_spectrum(s) -> tuple[np.ndarray, np.ndarray]:
    """(n_minus, n_plus) of a stack of 4x4 matrices.

    The eigenvalues of i Omega sigma are +-n_minus and +-n_plus; numpy returns
    those of Omega sigma, which are i times them, so their moduli are the
    symplectic eigenvalues, each twice.
    """
    nu = np.sort(np.abs(np.linalg.eigvals(OMEGA @ np.asarray(s, dtype=float))), axis=-1)
    return 0.5 * (nu[..., 0] + nu[..., 1]), 0.5 * (nu[..., 2] + nu[..., 3])


def partial_transpose(s) -> np.ndarray:
    return FLIP @ np.asarray(s, dtype=float) @ FLIP


def ppt_n_minus(s) -> np.ndarray:
    """Smallest symplectic eigenvalue of the partial transpose."""
    return symplectic_spectrum(partial_transpose(s))[0]


def log_negativity(s) -> np.ndarray:
    """E_N = max(0, -ln(2 n_tilde_minus)) from eigenvalues of i Omega sigma~."""
    return np.maximum(0.0, -np.log(2.0 * ppt_n_minus(s)))


def purities(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu1, mu2, mu) of a stack of covariance matrices via numpy.linalg.det."""
    s = np.asarray(s, dtype=float)
    mu1 = 0.5 / np.sqrt(np.linalg.det(s[..., :2, :2]))
    mu2 = 0.5 / np.sqrt(np.linalg.det(s[..., 2:, 2:]))
    mu = 0.25 / np.sqrt(np.linalg.det(s))
    return mu1, mu2, mu


def seralian(s) -> np.ndarray:
    """delta = det alpha + det beta + 2 det gamma via numpy.linalg.det."""
    s = np.asarray(s, dtype=float)
    return (np.linalg.det(s[..., :2, :2]) + np.linalg.det(s[..., 2:, 2:])
            + 2.0 * np.linalg.det(s[..., :2, 2:]))


def strip(m1, m2):
    """Existence strip mu1 mu2 <= mu <= mu1 mu2 / (mu1 mu2 + |mu1 - mu2|)."""
    lower = m1 * m2
    return lower, lower / (lower + np.abs(m1 - m2))


def separable_threshold(m1, m2):
    """Largest mu at which every state with these marginals is separable."""
    return m1 * m2 / (m1 + m2 - m1 * m2)


def coexistence_threshold(m1, m2):
    """Largest mu at which separable states with these marginals exist."""
    return m1 * m2 / np.sqrt(m1 * m1 + m2 * m2 - m1 * m1 * m2 * m2)


REGIONS = ("separable", "coexistence", "entangled")


def region(m1, m2, mu):
    """(code, in_collar): 0 separable, 1 coexistence, 2 entangled.

    in_collar marks triples within the collar of a threshold, where the
    lower and the upper label are both correct.
    """
    m1, m2, mu = (np.asarray(x, dtype=float) for x in (m1, m2, mu))
    sep = separable_threshold(m1, m2)
    coex = coexistence_threshold(m1, m2)
    code = np.where(mu > coex, 2, np.where(mu > sep, 1, 0))
    near = (np.abs(mu - sep) <= collar(sep)) | (np.abs(mu - coex) <= collar(coex))
    return code, near


def delta_range(m1, m2, mu):
    """Seralian range [delta_min, delta_max] at fixed purities (the paper's bounds).

    delta_min = 1/(2 mu) + (mu1 - mu2)^2 / (4 mu1^2 mu2^2);
    delta_max = min((mu1 + mu2)^2 / (4 mu1^2 mu2^2) - 1/(2 mu), (1 + 1/mu^2) / 4).
    """
    q = 4.0 * m1 * m1 * m2 * m2
    lo = 0.5 / mu + (m1 - m2) ** 2 / q
    hi = np.minimum((m1 + m2) ** 2 / q - 0.5 / mu, 0.25 * (1.0 + 1.0 / (mu * mu)))
    return lo, hi


def en_at_delta(m1, m2, mu, delta):
    """E_N at purities (mu1, mu2, mu) and seralian delta.

    With the partial-transpose seralian dt = 1/(2 mu1^2) + 1/(2 mu2^2) - delta
    and det sigma = 1/(16 mu^2), 2 n~^2 = dt - sqrt(dt^2 - 4 det sigma),
    evaluated in the cancellation-free form 4 det sigma / (dt + sqrt(...)).
    """
    dt = 0.5 / (m1 * m1) + 0.5 / (m2 * m2) - delta
    four_det = 0.25 / (mu * mu)
    four_n_sq = 2.0 * four_det / (dt + np.sqrt(np.maximum(dt * dt - four_det, 0.0)))
    return np.maximum(0.0, -0.5 * np.log(four_n_sq))


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def local_symplectic(theta1, s1, theta2, s2) -> np.ndarray:
    """Rotation then single-mode squeezing on each mode."""
    out = np.zeros((4, 4))
    out[:2, :2] = rotation(theta1) @ np.diag([np.exp(s1), np.exp(-s1)])
    out[2:, 2:] = rotation(theta2) @ np.diag([np.exp(s2), np.exp(-s2)])
    return out


def two_mode_squeezer(r: float) -> np.ndarray:
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ])


def beam_splitter(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
