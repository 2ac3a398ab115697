"""Dense linear algebra for small matrices.

Thin, contract-enforcing wrappers around LAPACK (via ``numpy.linalg``).
The rest of the package relies on the guarantees made here: Hermiticity
is validated before any eigendecomposition, matrix exponentials of
Hermitian generators are unitary by construction (spectral form), and QR
follows the positive-diagonal convention so that the Q factor of a
complex Gaussian matrix is already correctly phase-normalized.

:class:`SpdSolver` solves the optimizer's damped normal equations, for a
stack of restart lanes at once.  Where the LAPACK that ``numpy.linalg``
links exports ``dpotrf``/``dpotrs`` it is :class:`CholeskySolver`, which
calls them through ``ctypes``, once per lane, on buffers it owns; elsewhere
it is :class:`LuSolver`, ``numpy.linalg.solve`` per right-hand side.  The
choice is made once, at import.
"""

from __future__ import annotations

import ctypes
import math

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
    """Return ``a`` as a complex matrix, rejecting non-Hermitian input.

    The deviation ``max |A - A†|`` is compared against ``HERMITICITY_RTOL``
    times the largest-magnitude entry, so the check is scale free.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got shape {m.shape}")
    if m.size == 0:
        return m
    scale = float(np.abs(m).max())
    deviation = float(np.abs(m - m.conj().T).max())
    if deviation > HERMITICITY_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A†| = {deviation:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} of max |A| = {scale:.3e}"
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


def _bind_potrf_potrs():
    """``(dpotrf, dpotrs, LAPACK's integer dtype)`` of the LAPACK that
    numpy.linalg links, or None where that library exports them under
    neither name."""
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
        return potrf, potrs, np.int64 if ilp64 else np.int32
    return None


_LAPACK = _bind_potrf_potrs()


def _address(array: np.ndarray) -> int:
    """Where a writable array's data starts (a third of what ``.ctypes.data``
    costs); 0 for an empty one, whose LAPACK calls (N = 0) touch no data."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array)) if array.size else 0


class LuSolver:
    """Solves the Marquardt-damped systems ``(a_s + lam_s D_s) x = -g_s`` of a
    stack of slots, each a symmetric matrix of one size, where ``D_s`` is
    diag(a_s) kept off zero, by ``numpy.linalg.solve`` (LAPACK gesv, an LU
    factorization per right-hand side).

    The reference for :class:`CholeskySolver`, and the solver where the
    LAPACK of numpy.linalg exports no ``dpotrf``.  One instance must not be
    used from two threads at once.
    """

    lapack = "gesv"
    #: the least diagonal scale of the damping
    floor = 1e-30

    def __init__(self, size: int, slots: int):
        self._a = np.zeros((slots, size, size))
        self._diagonals = self._a.reshape(slots, size * size)[:, :: size + 1]

    def _damp(self, a: np.ndarray, lam: np.ndarray):
        """Load ``a`` into the first slots, damped by ``lam`` (one per
        matrix, as a column); returns those slots' matrices, their diagonals
        and the damping ``lam D`` added."""
        count = len(a)
        matrices, diagonals = self._a[:count], self._diagonals[:count]
        np.copyto(matrices, a)
        shift = np.maximum(diagonals, self.floor)
        shift *= lam
        diagonals += shift
        return matrices, diagonals, shift

    def solve(self, a: np.ndarray, lam: np.ndarray, g: np.ndarray):
        """The solutions ``x[s]`` of the damped systems of ``a[s]``, ``lam[s]``
        and ``g[s]``, and the damping ``lam D`` of each; a row of ``x`` is not
        finite where its matrix is singular or its solution overflows."""
        matrices, _, shift = self._damp(a, lam)
        x = np.empty_like(g)
        for s, matrix in enumerate(matrices):
            try:
                x[s] = np.linalg.solve(matrix, -g[s])
            except np.linalg.LinAlgError:
                x[s] = np.nan
        return x, shift


class CholeskySolver(LuSolver):
    """Solves the damped systems of :class:`LuSolver`, which are symmetric
    positive definite: LAPACK dpotrf factors each slot's matrix once, and
    dpotrs back-substitutes from it.

    LAPACK runs once per slot at every size: numpy's batched Cholesky
    loses to it for all but the smallest matrices.  The matrices and the
    right-hand sides live in buffers allocated here once, and each slot's
    LAPACK arguments are cached (taking ``.ctypes.data`` costs microseconds
    per call, and the address of a temporary would not keep it alive).
    """

    lapack = "dpotrf"

    def __init__(self, size: int, slots: int):
        if _LAPACK is None:
            raise RuntimeError("numpy.linalg's LAPACK exports no dpotrf/dpotrs")
        super().__init__(size, slots)
        self._potrf, self._potrs, integer = _LAPACK
        self._b = np.zeros((slots, size))
        # N, NRHS, the leading dimension and each slot's INFO, passed by address
        self._integers = np.array([size, 1, max(size, 1)] + [0] * slots, dtype=integer)
        self._info = self._integers[3:]
        # the matrices are symmetric, so LAPACK's column-major view of each
        # row-major slot is the same matrix
        self._uplo = ctypes.c_char(b"L")
        uplo = ctypes.addressof(self._uplo)
        a, b, n = map(_address, (self._a, self._b, self._integers))
        a_step, b_step, step = self._a.strides[0], self._b.strides[0], self._integers.itemsize
        nrhs, lda = n + step, n + 2 * step
        self._potrf_args, self._potrs_args = [], []
        for s in range(slots):
            slot_a, slot_b, info = a + s * a_step, b + s * b_step, n + (3 + s) * step
            self._potrf_args.append((uplo, n, slot_a, lda, info, 1))
            self._potrs_args.append((uplo, n, nrhs, slot_a, lda, slot_b, lda, info, 1))

    def solve(self, a: np.ndarray, lam: np.ndarray, g: np.ndarray):
        """As :meth:`LuSolver.solve`, with ``x`` in a buffer that the next
        call overwrites; a row of ``x`` is not finite where its matrix is not
        positive definite or not finite (a NaN passes dpotrf's pivot test,
        but not the factor's diagonal), or its solution overflows."""
        _, diagonals, shift = self._damp(a, lam)
        count = len(a)
        potrf, potrs = self._potrf, self._potrs
        for args in self._potrf_args[:count]:
            potrf(*args)
        factored = [info == 0 for info in self._info[:count].tolist()]
        # a sum is finite only if every term is (an overflowing one falls
        # through to the test by rows)
        if not math.isfinite(np.add.reduce(diagonals, axis=None)):
            finite = np.isfinite(diagonals).all(axis=1).tolist()
            factored = [ok and good for ok, good in zip(factored, finite)]
        b = self._b[:count]
        np.negative(g, out=b)
        for args, ok in zip(self._potrs_args, factored):
            if ok:
                potrs(*args)
        if not all(factored):
            b[np.logical_not(factored)] = np.nan
        return b, shift


#: the damped normal equations' solver on this platform
SpdSolver = CholeskySolver if _LAPACK is not None else LuSolver
