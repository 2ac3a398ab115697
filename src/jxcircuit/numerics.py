"""Dense linear algebra for small matrices.

Thin, contract-enforcing wrappers around LAPACK (via ``numpy.linalg``).
The rest of the package relies on the guarantees made here: Hermiticity
is validated before any eigendecomposition, and matrix exponentials of
Hermitian generators are unitary by construction (spectral form).

:class:`SpdSolver` solves the optimizer's damped normal equations
``(J'J + mu I) x = -g``, one scalar shift ``mu`` per lane, for the lanes
that it names of a stack of restart lanes, gathering them into buffers it
owns.  Where the LAPACK that ``numpy.linalg`` links exports ``dposv`` it
calls it through ``ctypes``, once per lane (dposv factors with dpotrf and
back-substitutes with dpotrs); elsewhere it calls ``numpy.linalg.solve``
once per lane.
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = [
    "SpdSolver",
    "as_complex_matrix",
    "require_hermitian",
    "expm_i_scaled",
    "frobenius_norm",
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


def expm_i_scaled(a, t: float) -> np.ndarray:
    """``exp(i t A)`` for Hermitian ``A``, or for each matrix of a stack
    (..., N, N), computed spectrally.

    The result is ``V diag(e^{i t w}) V†`` from the eigenpairs ``w``, ``V``
    of ``A``, unitary up to roundoff for any real ``t``; degenerate
    eigenvalues need no special handling.  Raises ``ValueError`` for
    non-Hermitian input and ``numpy.linalg.LinAlgError`` if the
    eigendecomposition fails to converge or is not finite.
    """
    w, v = np.linalg.eigh(require_hermitian(a))
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise np.linalg.LinAlgError("eigendecomposition produced non-finite values")
    phase = np.exp(1j * float(t) * w)
    return (v * phase[..., None, :]) @ v.conj().swapaxes(-2, -1)


def frobenius_norm(a):
    """``sqrt(sum |a_ij|^2)``, zero only for the zero matrix: a float for a
    matrix, and an array of one per matrix for a stack (..., N, N)."""
    m = np.asarray(a, dtype=np.complex128)
    norms = np.sqrt((m.real**2 + m.imag**2).sum(axis=(-2, -1)))
    return float(norms) if m.ndim == 2 else norms


def unitarity_defect(a):
    """Frobenius norm of ``A†A - I``: a float for a matrix, and an array of
    one per matrix for a stack (..., N, N), from stacked products.  A
    non-finite entry gives a NaN or infinite defect, without a warning."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        return frobenius_norm(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]))


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


class SpdSolver:
    """Solves the damped systems ``(a_s + mu_s I) x = -g_s`` of named slots
    of a bank of symmetric positive definite matrices, each with its own
    scalar shift ``mu_s``, in buffers allocated here once.

    Where numpy.linalg's LAPACK exports ``dposv`` (checked when the solver
    is built) each slot is one dposv call, which factors it (dpotrf) and
    back-substitutes (dpotrs): numpy's batched Cholesky loses to LAPACK per
    slot for all but the smallest matrices.  Each slot's dposv arguments are
    cached (taking ``.ctypes.data`` costs microseconds per call, and the
    address of a temporary would not keep it alive).  Elsewhere each slot
    is one ``numpy.linalg.solve`` (LAPACK gesv, an LU factorization).  One
    instance must not be used from two threads at once.
    """

    #: the damped solve of this platform, for the run metadata
    lapack = "dpotrf" if _LAPACK is not None else "gesv"

    def __init__(self, size: int, slots: int):
        self._a = np.zeros((slots, size, size))
        self._b = np.zeros((slots, size))
        self._diagonals = self._a.reshape(slots, size * size)[:, :: size + 1]
        self._posv, integer = _LAPACK or (None, None)
        if self._posv is None:
            return
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

    def solve(self, jtj: np.ndarray, rows, mu: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The solutions of the damped systems of slots ``rows`` of the bank
        ``jtj``, ``g``, which is not modified: row ``i`` is slot ``rows[i]``'s,
        shifted by ``mu[i]`` (one per row, as a column), in a buffer that the
        next call overwrites.  A row is NaN where its matrix fails to factor
        (for dposv not positive definite or not finite: a NaN passes dpotrf's
        pivot test, but not the factor's diagonal; for gesv singular), and not
        finite where its solution overflows."""
        count = len(rows)
        a, b, diagonals = self._a[:count], self._b[:count], self._diagonals[:count]
        # mode "raise" would gather into a temporary and copy it into ``out``
        np.take(jtj, rows, axis=0, out=a, mode="clip")
        np.negative(np.take(g, rows, axis=0, out=b, mode="clip"), out=b)
        diagonals += mu
        posv = self._posv
        if posv is None:
            for s in range(count):
                try:
                    b[s] = np.linalg.solve(a[s], b[s])
                except np.linalg.LinAlgError:
                    b[s] = np.nan
            return b
        for args in self._args[:count]:
            posv(*args)
        factored = (self._info[:count] == 0) & np.isfinite(diagonals).all(axis=1)
        if not factored.all():
            b[~factored] = np.nan
        return b
