import numpy as np
import pytest
import scipy.stats

from jxcircuit.numerics import frobenius_norm, unitarity_defect
from jxcircuit.sampling import (
    derive_seed,
    gaussian_hermitian,
    haar_unitary,
    jitter_phases,
    uniform_phases,
)


def test_haar_unitarity_and_determinism():
    for n in (1, 3, 8):
        u = haar_unitary(n, 123)
        assert unitarity_defect(u) < 1e-12
        assert np.array_equal(u, haar_unitary(n, 123))
    assert frobenius_norm(haar_unitary(4, 1) - haar_unitary(4, 2)) > 1e-3


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_haar_unitary_is_the_q_factor_of_its_draw_with_positive_diagonal(n):
    # the seeded Ginibre draw z, rebuilt: U^H z is upper triangular with a
    # real positive diagonal, the R of z = U R
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = haar_unitary(n, seed)
        r = u.conj().T @ z
        scale = np.abs(r).max()
        assert np.abs(np.tril(r, -1)).max(initial=0.0) < 1e-13 * scale
        d = np.diagonal(r)
        assert (d.real > 0).all() and np.abs(d.imag).max() < 1e-13 * scale


def test_haar_single_port_uniform_phase():
    rng = np.random.default_rng(5)
    draws = np.array([haar_unitary(1, rng)[0, 0] for _ in range(10_000)])
    assert np.abs(np.abs(draws) - 1.0).max() < 1e-12
    assert abs(draws.mean()) < 0.05  # Monte-Carlo bound ~ 5/sqrt(10^4)


@pytest.mark.parametrize("n", [4, 8])
def test_haar_trace_moment(n):
    # E |Tr U|^2 = 1 for the invariant measure on U(n)
    rng = np.random.default_rng(n)
    vals = [abs(np.trace(haar_unitary(n, rng))) ** 2 for _ in range(10_000)]
    assert 0.9 < np.mean(vals) < 1.1


def test_haar_left_invariance_smoke():
    # |(VU)_{00}| must follow the same law as |U_{00}| for fixed unitary V
    rng = np.random.default_rng(99)
    v = haar_unitary(6, rng)
    a = np.array([abs(haar_unitary(6, rng)[0, 0]) for _ in range(2000)])
    b = np.array([abs((v @ haar_unitary(6, rng))[0, 0]) for _ in range(2000)])
    _, pvalue = scipy.stats.ks_2samp(a, b)
    assert pvalue > 0.01


def test_gaussian_hermitian_exactly_hermitian():
    h = gaussian_hermitian(7, 3)
    assert np.array_equal(h, h.conj().T)
    assert np.all(h.diagonal().imag == 0.0)


def hermitian_by_indices(n, seed):
    """The reference draw: the strict upper triangle set by index, mirrored,
    then the real diagonal set by index."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    h = np.zeros((n, n), dtype=np.complex128)
    iu, ju = np.triu_indices(n, k=1)
    h[iu, ju] = re[iu, ju] + 1j * im[iu, ju]
    h = h + h.conj().T
    h[np.arange(n), np.arange(n)] = re.diagonal()
    return h


@pytest.mark.parametrize("n", range(1, 17))
def test_gaussian_hermitian_is_bitwise_the_reference_draw(n):
    for seed in range(40):
        want = hermitian_by_indices(n, seed)
        got = gaussian_hermitian(n, seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_gaussian_hermitian_entry_variances():
    # diagonal entries are N(0,1); independent off-diagonal entries carry
    # unit-variance real and imaginary parts, so E|h|^2 = 2
    rng = np.random.default_rng(17)
    n = 10
    diag, off = [], []
    for _ in range(2500):
        h = gaussian_hermitian(n, rng)
        diag.extend(h.diagonal().real.tolist())
        iu = np.triu_indices(n, 1)
        off.extend((np.abs(h[iu]) ** 2).tolist())
    assert abs(np.var(diag) - 1.0) < 0.05
    assert abs(np.mean(off) - 2.0) < 0.05 * 2.0


def test_gaussian_hermitian_norm_moment():
    # E ||H||_F^2 = n (diagonal) + n(n-1) * 2 (off-diagonal) = 2 n^2 - n
    rng = np.random.default_rng(29)
    n = 4
    vals = [frobenius_norm(gaussian_hermitian(n, rng)) ** 2 for _ in range(10_000)]
    want = 2 * n * n - n
    assert abs(np.mean(vals) - want) < 0.05 * want


def test_uniform_phases_range_mean_determinism():
    grid = uniform_phases(40, 50, 8)
    assert grid.shape == (40, 50)
    assert grid.min() >= 0.0 and grid.max() < 2 * np.pi
    # mean of U[0, 2pi) is pi; 3 sigma over 2000 samples
    sigma = 2 * np.pi / np.sqrt(12 * grid.size)
    assert abs(grid.mean() - np.pi) < 3 * sigma
    assert np.array_equal(grid, uniform_phases(40, 50, 8))


def test_jitter_zero_fraction_identity():
    x = uniform_phases(3, 4, 1)
    assert np.array_equal(jitter_phases(x, 0.0, 5), x)


def test_jitter_stays_within_fraction():
    x = uniform_phases(10, 10, 2)
    y = jitter_phases(x, 0.1, 3)
    rel = np.abs(y / x - 1.0)
    assert rel.max() <= 0.1
    # symmetric jitter: mean relative change compatible with 0 at 3 sigma
    sigma = 0.1 / np.sqrt(3 * x.size)
    assert abs(np.mean(y / x - 1.0)) < 3 * sigma


@pytest.mark.parametrize("fraction, shown", [
    (-0.5, "-0.5"), (-0.1, "-0.1"), (float("nan"), "nan"), (float("inf"), "inf"),
])
def test_jitter_rejects_a_fraction_not_finite_and_non_negative(fraction, shown):
    # numpy's uniform would raise OverflowError on a NaN or infinite range
    with pytest.raises(ValueError, match=f"jitter fraction must be finite and >= 0, got {shown}$"):
        jitter_phases([1.0], fraction, 0)


def test_derive_seed_determinism_and_spread():
    assert derive_seed(7, "a", 0) == derive_seed(7, "a", 0)
    assert derive_seed(7, "a", 0) != derive_seed(7, "a", 1)
    assert derive_seed(7, "a", 0) != derive_seed(7, "b", 0)
    assert derive_seed(7, "a", 0) != derive_seed(8, "a", 0)


def test_derive_seed_collision_free_over_many_indices():
    seeds = {derive_seed(123, "collision-check", i) for i in range(1_000_000)}
    assert len(seeds) == 1_000_000
