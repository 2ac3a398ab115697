"""Deterministic, seedable randomness for targets, disorder and phase inits.

Every stochastic task derives its own 64-bit seed with :func:`derive_seed`,
the first 8 bytes (little-endian) of ``sha256(master_seed | label | index)``,
and owns a private PCG64 generator (``numpy.random.default_rng``) seeded
with it, so results never depend on scheduling or call order and distinct
task indices cannot collide in practice.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "derive_seed",
    "haar_unitary",
    "gaussian_hermitian",
    "uniform_phases",
    "jitter_phases",
]

TWO_PI = 2.0 * np.pi


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Collision-resistant task seed from (master seed, label, index)."""
    payload = f"{int(master_seed)}|{label}|{int(index)}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary: the Q factor of the QR factorization
    of a complex Ginibre draw, with the phases of R's diagonal absorbed into
    Q so that R's diagonal is real and positive, exactly the correction that
    makes Q uniform on the unitary group."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gaussian_hermitian(n: int, seed) -> np.ndarray:
    """Hermitian disorder draw with N(0,1) real and imaginary parts.

    Each independent entry gets its real and imaginary part drawn i.i.d.
    from N(0,1): the strict upper triangle is a full complex Gaussian
    (per-entry variance 2), the diagonal is real N(0,1), and the lower
    triangle is the conjugate mirror, so the output is Hermitian bitwise.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    h = np.triu(re + 1j * im, 1)
    h = h + h.conj().T
    np.fill_diagonal(h, re.diagonal())
    return h


def uniform_phases(m: int, n: int, seed) -> np.ndarray:
    """(m, n) grid of i.i.d. phases uniform in [0, 2 pi)."""
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, size=(m, n))


def jitter_phases(x, fraction: float, seed) -> np.ndarray:
    """Relative elementwise jitter: ``x * (1 + u)``, u uniform in [-fraction, fraction]."""
    if not (np.isfinite(fraction) and fraction >= 0):
        raise ValueError(f"jitter fraction must be finite and >= 0, got {fraction}")
    x = np.asarray(x, dtype=float)
    u = np.random.default_rng(seed).uniform(-fraction, fraction, size=x.shape)
    return x * (1.0 + u)
