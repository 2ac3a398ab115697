"""Dense complex linear algebra for small matrices.

Thin, contract-enforcing wrappers around LAPACK (via ``numpy.linalg``).
The rest of the package relies on the guarantees made here: Hermiticity
is validated before any eigendecomposition, matrix exponentials of
Hermitian generators are unitary by construction (spectral form), and QR
follows the positive-diagonal convention so that the Q factor of a
complex Gaussian matrix is already correctly phase-normalized.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_complex_matrix",
    "require_hermitian",
    "eig_hermitian",
    "expm_i_scaled",
    "frobenius_norm",
    "qr_unitary",
    "unitarity_defect",
]

#: entrywise Hermiticity tolerance, relative to the largest-magnitude entry
HERMITICITY_RTOL = 1e-14


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def require_hermitian(a, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Return ``a`` as a complex matrix, rejecting non-Hermitian input.

    The deviation ``max |A - A†|`` is compared against ``rtol`` times the
    largest-magnitude entry, so the check is scale free.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {m.shape}")
    if m.size == 0:
        return m
    scale = float(np.abs(m).max())
    deviation = float(np.abs(m - m.conj().T).max())
    if deviation > rtol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A†| = {deviation:.3e} exceeds "
            f"{rtol:.1e} of max |A| = {scale:.3e}"
        )
    return m


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` (ascending) and eigenvectors ``v`` with ``A = V diag(w) V†``.

    Raises ``ValueError`` for non-Hermitian input and propagates
    ``numpy.linalg.LinAlgError`` if the iteration fails to converge, so a
    bad decomposition is never returned silently.
    """
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise np.linalg.LinAlgError("eigendecomposition produced non-finite values")
    return w, v


def expm_i_scaled(a, t: float) -> np.ndarray:
    """``exp(i t A)`` for Hermitian ``A``, computed spectrally.

    The result is ``V diag(e^{i t w}) V†``, unitary up to roundoff for any
    real ``t``; degenerate eigenvalues need no special handling.
    """
    w, v = eig_hermitian(a)
    phase = np.exp(1j * float(t) * w)
    return (v * phase) @ v.conj().T


def frobenius_norm(a) -> float:
    """``sqrt(sum |a_ij|^2)``, zero only for the zero matrix."""
    m = np.asarray(a, dtype=np.complex128)
    return float(np.sqrt((m.real**2 + m.imag**2).sum()))


def unitarity_defect(a) -> float:
    """Frobenius norm of ``A†A - I``."""
    m = as_complex_matrix(a)
    return frobenius_norm(m.conj().T @ m - np.eye(m.shape[1]))


def qr_unitary(a) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization with R's diagonal made real and positive.

    The diagonal phases of R are absorbed into Q, which makes Q of a
    complex Ginibre draw distributed with the correct invariant measure.
    Rank-deficient input (within ``n * eps`` of the largest pivot) is
    rejected rather than silently factorized.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"qr_unitary expects a square matrix, got shape {m.shape}")
    q, r = np.linalg.qr(m)
    d = np.diagonal(r).copy()
    if d.size:
        tol = m.shape[0] * np.finfo(float).eps * float(np.abs(d).max())
        if float(np.abs(d).min()) <= tol:
            raise np.linalg.LinAlgError("matrix is rank deficient within tolerance")
    ph = d / np.abs(d)
    q = q * ph[None, :]
    r = ph.conj()[:, None] * r
    if not (np.isfinite(q).all() and np.isfinite(r).all()):
        raise np.linalg.LinAlgError("QR produced non-finite values")
    return q, r
