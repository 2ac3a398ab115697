"""Dense linear algebra for small matrices.

Thin, contract-enforcing wrappers around LAPACK (via ``numpy.linalg``).
The rest of the package relies on the guarantees made here: Hermiticity
is validated before any eigendecomposition, matrix exponentials of
Hermitian generators are unitary by construction (spectral form), and QR
follows the positive-diagonal convention so that the Q factor of a
complex Gaussian matrix is already correctly phase-normalized.

:class:`SpdSolver` solves the optimizer's damped normal equations.  Where
the LAPACK that ``numpy.linalg`` links exports ``dpotrf``/``dpotrs`` it is
:class:`CholeskySolver`, which calls them through ``ctypes`` on buffers it
owns; elsewhere it is :class:`LuSolver`, ``numpy.linalg.solve`` per
right-hand side.  The choice is made once, at import.
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = [
    "SpdSolver",
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


def _bind_potrf_potrs():
    """``(dpotrf, dpotrs, integer type)`` of the LAPACK that numpy.linalg
    links, or None where that library exports them under neither name."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    ilp64 = bool(getattr(_umath_linalg, "_ilp64", False))
    suffix = "_64_" if ilp64 else "_"
    for prefix in ("scipy_", ""):  # numpy's wheels rename their OpenBLAS's symbols
        try:
            potrf = getattr(lib, f"{prefix}dpotrf{suffix}")
            potrs = getattr(lib, f"{prefix}dpotrs{suffix}")
        except AttributeError:
            continue
        # Fortran calling convention: every argument by address, plus the
        # hidden length of the character argument UPLO
        pointer, length = ctypes.c_void_p, ctypes.c_size_t
        potrf.argtypes = [pointer] * 5 + [length]
        potrs.argtypes = [pointer] * 8 + [length]
        potrf.restype = potrs.restype = None
        return potrf, potrs, ctypes.c_int64 if ilp64 else ctypes.c_int32
    return None


_LAPACK = _bind_potrf_potrs()


class LuSolver:
    """Solves ``(a + diag(shift)) x = rhs`` by ``numpy.linalg.solve`` (LAPACK
    gesv, an LU factorization per right-hand side) for matrices of one size.

    The reference for :class:`CholeskySolver`, and the solver where the
    LAPACK of numpy.linalg exports no ``dpotrf``.
    """

    lapack = "gesv"

    def __init__(self, size: int):
        self._a = np.zeros((size, size))
        self._diagonal = self._a.reshape(-1)[:: size + 1]

    def factor(self, a: np.ndarray, shift: np.ndarray) -> bool:
        """Take ``a + diag(shift)`` as the matrix of the next solves."""
        np.copyto(self._a, a)
        self._diagonal += shift
        return True

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """The solution for ``rhs``, or None for a singular or non-finite one."""
        try:
            x = np.linalg.solve(self._a, rhs)
        except np.linalg.LinAlgError:
            return None
        return x if np.isfinite(x).all() else None


class CholeskySolver(LuSolver):
    """Solves ``(a + diag(shift)) x = rhs`` for symmetric positive definite
    matrices of one size: ``factor`` runs LAPACK dpotrf once on the matrix
    :class:`LuSolver` forms, and each ``solve`` back-substitutes with dpotrs
    from that factor.

    The matrix and the right-hand side live in buffers allocated here once;
    LAPACK gets their cached addresses (taking ``.ctypes.data`` costs
    microseconds per call, and the address of a temporary would not keep it
    alive).  One instance must not be used from two threads at once.
    """

    lapack = "dpotrf"

    def __init__(self, size: int):
        if _LAPACK is None:
            raise RuntimeError("numpy.linalg's LAPACK exports no dpotrf/dpotrs")
        super().__init__(size)
        self._potrf, self._potrs, integer = _LAPACK
        self._b = np.zeros(size)
        # the matrix is symmetric, so LAPACK's column-major view of this
        # row-major buffer is the same matrix
        self._uplo = ctypes.c_char(b"L")
        self._n = integer(size)
        self._nrhs = integer(1)
        self._info = integer(0)
        uplo, n, nrhs, info = map(ctypes.addressof,
                                  (self._uplo, self._n, self._nrhs, self._info))
        a, b = self._a.ctypes.data, self._b.ctypes.data
        self._potrf_args = (uplo, n, a, n, info, 1)
        self._potrs_args = (uplo, n, nrhs, a, n, b, n, info, 1)

    def factor(self, a: np.ndarray, shift: np.ndarray) -> bool:
        """Factor ``a + diag(shift)``; False when it is not positive definite
        or not finite (a NaN passes dpotrf's pivot test, but not the factor's
        diagonal)."""
        super().factor(a, shift)
        self._potrf(*self._potrf_args)
        return self._info.value == 0 and bool(np.isfinite(self._diagonal).all())

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """The solution for ``rhs`` from the last successful ``factor``, or
        None when it is not finite."""
        np.copyto(self._b, rhs)
        self._potrs(*self._potrs_args)
        return self._b.copy() if np.isfinite(self._b).all() else None


#: the damped normal equations' solver on this platform
SpdSolver = CholeskySolver if _LAPACK is not None else LuSolver
