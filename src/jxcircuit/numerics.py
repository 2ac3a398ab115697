"""Dense linear algebra for small matrices.

Thin, contract-enforcing wrappers around LAPACK (via ``numpy.linalg``).
The rest of the package relies on the guarantees made here: Hermiticity
is validated before any eigendecomposition, matrix exponentials of
Hermitian generators are unitary by construction (spectral form), and QR
follows the positive-diagonal convention so that the Q factor of a
complex Gaussian matrix is already correctly phase-normalized.

:class:`SpdSolver` solves the optimizer's damped normal equations
``(J'J + mu I) x = -g``, one scalar shift ``mu`` per lane, for a stack of
restart lanes at once.  Where the LAPACK that ``numpy.linalg``
links exports ``dposv`` it is :class:`CholeskySolver`, which calls it
through ``ctypes``, once per lane, on buffers it owns (dposv factors with
dpotrf and back-substitutes with dpotrs); elsewhere it is
:class:`LuSolver`, ``numpy.linalg.solve`` per right-hand side.  The choice
is made once, at import.
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


def require_hermitian(a) -> np.ndarray:
    """Return ``a`` as a complex matrix, or a stack of them (..., N, N),
    rejecting one that is not Hermitian.

    Each matrix's deviation ``max |A - A†|`` is compared against
    ``HERMITICITY_RTOL`` times its own largest-magnitude entry, so the
    check is scale free.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {m.shape}")
    if m.size == 0:
        return m
    scale = np.abs(m).max(axis=(-2, -1)).ravel()
    deviation = np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1)).ravel()
    bad = np.flatnonzero(deviation > HERMITICITY_RTOL * scale)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"matrix is not Hermitian: max |A - A†| = {deviation[k]:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} of max |A| = {scale[k]:.3e}"
        )
    return m


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` (ascending) and eigenvectors ``v`` with ``A = V diag(w) V†``,
    for a matrix or for each matrix of a stack (..., N, N).

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
    """``exp(i t A)`` for Hermitian ``A``, or for each matrix of a stack
    (..., N, N), computed spectrally.

    The result is ``V diag(e^{i t w}) V†``, unitary up to roundoff for any
    real ``t``; degenerate eigenvalues need no special handling.
    """
    w, v = eig_hermitian(a)
    phase = np.exp(1j * float(t) * w)
    return (v * phase[..., None, :]) @ v.conj().swapaxes(-2, -1)


def frobenius_norm(a) -> float:
    """``sqrt(sum |a_ij|^2)``, zero only for the zero matrix."""
    m = np.asarray(a, dtype=np.complex128)
    return float(np.sqrt((m.real**2 + m.imag**2).sum()))


def unitarity_defect(a):
    """Frobenius norm of ``A†A - I``: a float for a matrix, and an array of
    one per matrix for a stack (..., N, N), from stacked products.  A
    non-finite entry gives a NaN or infinite defect, without a warning."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        d = m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])
        return np.sqrt((d.real**2 + d.imag**2).sum(axis=(-2, -1)))


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


try:  # numpy.linalg's library, with the LAPACK and BLAS it links
    from numpy.linalg import _umath_linalg

    _LINALG = ctypes.CDLL(_umath_linalg.__file__)
    _ILP64 = bool(getattr(_umath_linalg, "_ilp64", False))  # 64-bit LAPACK integers
except (ImportError, OSError):
    _LINALG, _ILP64 = None, False


def _exported(name: str):
    """numpy.linalg's function ``name``, under the name numpy's wheels give
    their OpenBLAS's symbols or its own, or None where it has neither."""
    return getattr(_LINALG, f"scipy_{name}", None) or getattr(_LINALG, name, None)


def _bind_posv():
    """``(dposv, LAPACK's integer dtype)`` of the LAPACK that numpy.linalg
    links, or None where it does not export it."""
    posv = _exported("dposv_64_" if _ILP64 else "dposv_")
    if posv is None:
        return None
    # Fortran calling convention: every argument by address, plus the
    # hidden length of the character argument UPLO
    posv.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_size_t]
    posv.restype = None
    return posv, np.int64 if _ILP64 else np.int32


_LAPACK = _bind_posv()


def _blas_threads() -> int | None:
    """How many threads numpy's OpenBLAS runs a call on now, or None where
    its library exports no ``openblas_get_num_threads``."""
    get = _exported("openblas_get_num_threads64_" if _ILP64 else "openblas_get_num_threads")
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


class LuSolver:
    """Solves the damped systems ``(a_s + mu_s I) x = -g_s`` of a stack of
    slots, each a symmetric matrix of one size with its own scalar shift
    ``mu_s``, by ``numpy.linalg.solve`` (LAPACK gesv, an LU factorization
    per right-hand side).

    The reference for :class:`CholeskySolver`, and the solver where the
    LAPACK of numpy.linalg exports no ``dposv``.  One instance must not be
    used from two threads at once.
    """

    lapack = "gesv"

    def __init__(self, size: int, slots: int):
        self._a = np.zeros((slots, size, size))
        self._diagonals = self._a.reshape(slots, size * size)[:, :: size + 1]

    def _damp(self, a: np.ndarray, mu: np.ndarray):
        """Load ``a`` into the first slots, each diagonal shifted by its
        ``mu`` (one per matrix, as a column); returns those slots' matrices
        and their diagonals."""
        count = len(a)
        matrices, diagonals = self._a[:count], self._diagonals[:count]
        np.copyto(matrices, a)
        diagonals += mu
        return matrices, diagonals

    def solve(self, a: np.ndarray, mu: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The solutions ``x[s]`` of the damped systems of ``a[s]``, ``mu[s]``
        and ``g[s]``; a row of ``x`` is not finite where its matrix is
        singular or its solution overflows."""
        matrices, _ = self._damp(a, mu)
        x = np.empty_like(g)
        for s, matrix in enumerate(matrices):
            try:
                x[s] = np.linalg.solve(matrix, -g[s])
            except np.linalg.LinAlgError:
                x[s] = np.nan
        return x


class CholeskySolver(LuSolver):
    """Solves the damped systems of :class:`LuSolver`, which are symmetric
    positive definite, by one LAPACK dposv call per slot: it factors the
    slot's matrix (dpotrf) and back-substitutes from that factor (dpotrs).

    LAPACK runs once per slot at every size: numpy's batched Cholesky
    loses to it for all but the smallest matrices.  The matrices and the
    right-hand sides live in buffers allocated here once, and each slot's
    dposv arguments are cached (taking ``.ctypes.data`` costs microseconds
    per call, and the address of a temporary would not keep it alive).
    """

    lapack = "dpotrf"

    def __init__(self, size: int, slots: int):
        if _LAPACK is None:
            raise RuntimeError("numpy.linalg's LAPACK exports no dposv (dpotrf, dpotrs)")
        super().__init__(size, slots)
        self._posv, integer = _LAPACK
        self._b = np.zeros((slots, size))
        # N, NRHS, the leading dimension and each slot's INFO, passed by address
        self._integers = np.array([size, 1, max(size, 1)] + [0] * slots, dtype=integer)
        self._info = self._integers[3:]
        # the matrices are symmetric, so LAPACK's column-major view of each
        # row-major slot is the same matrix
        self._uplo = ctypes.c_char(b"L")
        uplo = ctypes.addressof(self._uplo)
        a, b, n = (array.ctypes.data for array in (self._a, self._b, self._integers))
        a_step, b_step, step = self._a.strides[0], self._b.strides[0], self._integers.itemsize
        nrhs, lda = n + step, n + 2 * step
        self._args = [(uplo, n, nrhs, a + s * a_step, lda, b + s * b_step, lda,
                       n + (3 + s) * step, 1) for s in range(slots)]

    def solve(self, a: np.ndarray, mu: np.ndarray, g: np.ndarray) -> np.ndarray:
        """As :meth:`LuSolver.solve`, with ``x`` in a buffer that the next
        call overwrites; a row of ``x`` is not finite where its matrix is not
        positive definite or not finite (a NaN passes dpotrf's pivot test,
        but not the factor's diagonal), or its solution overflows."""
        _, diagonals = self._damp(a, mu)
        count = len(a)
        b = self._b[:count]
        np.negative(g, out=b)
        posv = self._posv
        for args in self._args[:count]:
            posv(*args)
        factored = (self._info[:count] == 0) & np.isfinite(diagonals).all(axis=1)
        if not factored.all():
            b[~factored] = np.nan
        return b


#: the damped normal equations' solver on this platform
SpdSolver = CholeskySolver if _LAPACK is not None else LuSolver
