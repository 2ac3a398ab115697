import ctypes

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit import numerics
from jxcircuit.numerics import (
    SpdSolver,
    as_complex_matrix,
    expm_i_scaled,
    frobenius_norm,
    require_hermitian,
    unitarity_defect,
)
from jxcircuit.lattice import build_jx_hamiltonian


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_expm_2x2_offdiagonal_closed_form():
    # eigenvalues of [[0, b], [b, 0]] are -b, +b, so exp(i t A) is
    # cos(b t) I + i sin(b t) [[0, 1], [1, 0]]
    for t in (0.3, -1.7, 4.0):
        got = expm_i_scaled([[0, 0.5], [0.5, 0]], t)
        want = np.cos(0.5 * t) * np.eye(2) + 1j * np.sin(0.5 * t) * np.array([[0, 1], [1, 0]])
        assert frobenius_norm(got - want) < 1e-14


def test_expm_identity_with_degenerate_spectrum():
    # one eigenvalue of multiplicity 3: exp(i t I) = e^{i t} I
    got = expm_i_scaled(np.eye(3), 0.9)
    assert frobenius_norm(got - np.exp(0.9j) * np.eye(3)) < 1e-14


def test_jx4_spectrum_equidistant():
    h = build_jx_hamiltonian(4)
    # independent oracle: the characteristic polynomial (via LU determinant)
    # vanishes at the claimed eigenvalues and not in between
    for lam in (-1.5, -0.5, 0.5, 1.5):
        assert abs(np.linalg.det(h - lam * np.eye(4))) < 1e-10
    assert abs(np.linalg.det(h)) > 0.1  # 0 is not an eigenvalue
    assert abs(np.linalg.det(h) - 0.5625) < 1e-10  # product of the four roots
    assert np.allclose(np.linalg.eigvalsh(h), [-1.5, -0.5, 0.5, 1.5], atol=1e-12)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_i_scaled([[0, 1], [0, 0]], 1.0)


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(3)
    a = random_hermitian(5, rng)
    assert frobenius_norm(expm_i_scaled(a, 0.0) - np.eye(5)) < 1e-12


def test_expm_sigmax_closed_form():
    # exp(i (pi/4) sx) = cos(pi/4) I + i sin(pi/4) sx = (1/sqrt2) [[1, i], [i, 1]]
    got = expm_i_scaled([[0, 0.5], [0.5, 0]], np.pi / 2)
    want = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert frobenius_norm(got - want) < 1e-13


def test_expm_jx4_full_period():
    h = build_jx_hamiltonian(4)
    got = expm_i_scaled(h, 2 * np.pi)
    assert frobenius_norm(got - (-np.eye(4))) < 1e-11


def test_expm_matches_series_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9):
        a = random_hermitian(n, rng)
        t = float(rng.uniform(-2, 2))
        want = scipy.linalg.expm(1j * t * a)
        assert frobenius_norm(expm_i_scaled(a, t) - want) < 1e-12 * frobenius_norm(want)


def test_expm_unitarity_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        a = random_hermitian(n, rng)
        t = float(rng.uniform(-5, 5))
        assert unitarity_defect(expm_i_scaled(a, t)) < 1e-12


def test_expm_additivity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = random_hermitian(8, rng)
        t, s = rng.uniform(-2, 2, size=2)
        lhs = expm_i_scaled(a, t) @ expm_i_scaled(a, s)
        rhs = expm_i_scaled(a, t + s)
        assert frobenius_norm(lhs - rhs) < 1e-11


def test_frobenius_norm_examples():
    assert abs(frobenius_norm(np.eye(7)) - np.sqrt(7)) < 1e-14
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert abs(frobenius_norm([[3, 4j], [0, 0]]) - 5.0) < 1e-14


@pytest.mark.parametrize("measure", [frobenius_norm, unitarity_defect])
@pytest.mark.parametrize("n", [1, 3, 9, 17])
def test_a_stack_measures_each_matrix_bitwise_and_a_matrix_gives_a_float(measure, n):
    rng = np.random.default_rng(n)
    stack = (rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n)))
    got = measure(stack)
    assert got.shape == (2, 3)
    for j in range(2):
        for k in range(3):
            alone = measure(stack[j, k])
            assert type(alone) is float and got[j, k] == alone


def test_require_hermitian_scale_free():
    big = np.array([[1e9, 1e9 * 1j], [-1e9 * 1j, 1e9]])
    require_hermitian(big)
    with pytest.raises(ValueError):
        require_hermitian(big + np.array([[0, 1e-3], [0, 0]]))


def test_require_hermitian_checks_each_matrix_of_a_stack_at_its_own_scale():
    big = np.array([[1e9, 1e9 * 1j], [-1e9 * 1j, 1e9]])
    near = np.array([[1.0, 1e-8], [0.0, 1.0]])  # within 1e-14 of max |A| = 1e9, not of 1
    assert require_hermitian(np.stack([big, big.conj()])).shape == (2, 2, 2)
    with pytest.raises(ValueError, match="1.000e-08 exceeds 1.0e-14 of max"):
        require_hermitian(np.stack([[big, near]]))
    for bad in ([1, 2, 3], np.zeros((2, 3, 4))):
        with pytest.raises(ValueError, match="must be square"):
            require_hermitian(bad)


def test_stacked_expm_equals_each_matrix_bitwise():
    rng = np.random.default_rng(7)
    stack = np.stack([random_hermitian(6, rng) for _ in range(4)]).reshape(2, 2, 6, 6)
    u = expm_i_scaled(stack, np.pi / 2)
    assert u.shape == (2, 2, 6, 6)
    for j in range(2):
        for k in range(2):
            assert np.array_equal(u[j, k], expm_i_scaled(stack[j, k], np.pi / 2))


def test_as_complex_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3])


@pytest.mark.skipif(numerics._LAPACK is None,
                    reason="numpy.linalg's LAPACK exports no dpotrf here")
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_cholesky_solver_agrees_with_lu(p, extra_rows, slots, seed):
    # damped normal equations of a stack of lanes as the optimizer forms
    # them; a solver without the dposv binding (numpy.linalg.solve per
    # right-hand side) is the reference, slot by slot
    rng = np.random.default_rng(seed)
    jac = rng.standard_normal((slots, p + extra_rows, p))
    jtj = jac.transpose(0, 2, 1) @ jac
    mu = 10.0 ** rng.uniform(-6, 0, (slots, 1))
    cholesky, lu = SpdSolver(p, slots), SpdSolver(p, slots)
    lu._posv = None
    g = rng.standard_normal((slots, p))
    every = list(range(slots))
    x = cholesky.solve(jtj, every, mu, g).copy()  # a buffer, overwritten by the next call
    reference = lu.solve(jtj, every, mu, g)
    for s in range(slots):
        # the systems solved are (J'J + mu I) x = -g
        damped = jtj[s] + mu[s] * np.eye(p)
        assert np.array_equal(lu._a[s], damped)
        tolerance = 100 * np.linalg.cond(damped) * np.finfo(float).eps
        assert np.abs(x[s] - reference[s]).max() <= tolerance * np.abs(reference[s]).max()
    # a slot named alone gets the solution it gets among all of them
    assert np.array_equal(cholesky.solve(jtj, [0], mu[:1], g)[0], x[0])

    # a damping that makes one slot's matrix indefinite gives that slot, and
    # only that slot, no finite solution
    k = rng.integers(slots)
    indefinite = mu.copy()
    indefinite[k] = -np.diagonal(jtj[k]).max() - 1.0
    x = cholesky.solve(jtj, every, indefinite, g)
    finite = np.isfinite(x).all(axis=1)
    assert not finite[k] and finite.sum() == slots - 1
    # a non-finite entry gives no finite solution
    i, j = rng.integers(p, size=2)
    for bad in (np.nan, np.inf, -np.inf):
        a = jtj.copy()
        a[k, i, j] = a[k, j, i] = bad
        x = cholesky.solve(a, every, mu, g)
        assert not np.isfinite(x[k]).all()


def potrf_then_potrs(a, mu, g):
    """The damped systems ``(a_s + mu_s I) x = -g_s`` solved slot by slot by
    LAPACK dpotrf and then dpotrs from its factor, the two calls dposv makes
    inside, bound here from the library that numerics binds dposv from; a
    row is NaN where dpotrf fails."""
    suffix = "_64_" if numerics._ILP64 else "_"
    potrf, potrs = (numerics._exported(f"d{name}{suffix}") for name in ("potrf", "potrs"))
    # Fortran calling convention: every argument by address, plus the
    # hidden length of UPLO
    potrf.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_size_t]
    potrs.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_size_t]
    potrf.restype = potrs.restype = None
    integer = np.int64 if numerics._ILP64 else np.int32
    n, nrhs, info = (np.array([value], dtype=integer) for value in (a.shape[-1], 1, 0))
    uplo = ctypes.c_char(b"L")
    x = np.empty_like(g)
    for s in range(len(a)):
        damped, b = a[s].copy(), -g[s]
        np.einsum("ii->i", damped)[...] += mu[s, 0]
        side, size, matrix, rhs, status = (ctypes.addressof(uplo), n.ctypes.data,
                                           damped.ctypes.data, b.ctypes.data, info.ctypes.data)
        potrf(side, size, matrix, size, status, 1)
        if info[0] != 0:
            x[s] = np.nan
            continue
        potrs(side, size, nrhs.ctypes.data, matrix, size, rhs, size, status, 1)
        x[s] = b
    return x


@pytest.mark.skipif(numerics._LAPACK is None,
                    reason="numpy.linalg's LAPACK exports no dposv here")
@pytest.mark.parametrize("p, slots", [(16, 150), (72, 25), (288, 1)])
def test_one_dposv_per_slot_is_bitwise_dpotrf_then_dpotrs(p, slots):
    # the lane shapes of the benchmark's descents: N = 4 (150 lanes), N = 8
    # and N = 16 (one lane); one slot's damping makes its matrix indefinite
    rng = np.random.default_rng(p)
    jac = rng.standard_normal((slots, p + 3, p))
    jtj = jac.transpose(0, 2, 1) @ jac
    mu = 10.0 ** rng.uniform(-6, 0, (slots, 1))
    g = rng.standard_normal((slots, p))
    solver = SpdSolver(p, slots)
    for damping in (mu, np.where(np.arange(slots)[:, None] == slots // 2, -1e6, mu)):
        x = solver.solve(jtj, range(slots), damping, g)
        want = potrf_then_potrs(jtj, damping, g)
        assert np.isfinite(want).all(axis=1).sum() == slots - (damping is not mu)
        assert np.array_equal(x, want, equal_nan=True)


@pytest.mark.parametrize("binding", [True, False])
@pytest.mark.parametrize("p, slots, rows", [
    (16, 12, [7, 2, 9, 0]),  # some lanes of a bank, in any order
    (5, 6, [3]),
    (8, 4, [0, 1, 2, 3]),  # every slot
])
def test_solving_named_slots_of_a_bank_is_solving_them_alone(binding, p, slots, rows):
    if binding and numerics._LAPACK is None:
        pytest.skip("numpy.linalg's LAPACK exports no dposv here")
    rng = np.random.default_rng(p + slots)
    jac = rng.standard_normal((slots, p + 2, p))
    jtj = jac.transpose(0, 2, 1) @ jac
    g = rng.standard_normal((slots, p))
    mu = 10.0 ** rng.uniform(-6, 0, (len(rows), 1))
    unnamed = [s for s in range(slots) if s not in rows]
    if unnamed:  # a NaN in a slot that is not named reaches no named row
        jtj[unnamed[0], 0, 0] = g[unnamed[0], 0] = np.nan
    bank, gradients = jtj.copy(), g.copy()

    def solver():
        made = SpdSolver(p, slots)
        if not binding:
            made._posv = None
        return made

    x = solver().solve(jtj, rows, mu, g)
    assert np.isfinite(x).all()
    for i, s in enumerate(rows):
        alone = solver().solve(jtj[s:s + 1], [0], mu[i:i + 1], g[s:s + 1])
        assert np.array_equal(x[i], alone[0])
    assert np.array_equal(jtj, bank, equal_nan=True)
    assert np.array_equal(g, gradients, equal_nan=True)


def test_numpys_bundled_openblas_yields_the_dposv_binding():
    # numpy's wheels bundle OpenBLAS as scipy-openblas, which exports dposv:
    # should a numpy release stop yielding the binding, every descent would
    # move to the slower gesv path, and the metadata alone would show it
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}, not its bundled OpenBLAS")
    assert numerics._LAPACK is not None
    assert SpdSolver.lapack == "dpotrf" and SpdSolver(3, 1)._posv is not None
