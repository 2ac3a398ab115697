import numpy as np
import pytest

from jxcircuit.lattice import (
    DFRFT_LENGTH,
    JxSpec,
    MixingLayer,
    build_jx_hamiltonian,
    dfrft,
    perturb_hamiltonian,
    perturbed_mixer,
    relative_deviation,
)
from jxcircuit.numerics import eig_hermitian, frobenius_norm, unitarity_defect
from jxcircuit.sampling import derive_seed, gaussian_hermitian


def test_hopping_formula_and_symmetry():
    spec = JxSpec(4)
    assert np.allclose(spec.hopping, [np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2], atol=1e-15)
    for n in range(2, 33):
        h = JxSpec(n).hopping
        assert np.allclose(h, h[::-1], atol=1e-15)  # kappa_p == kappa_{n-p}
    assert JxSpec(2).hopping[0] == 0.5


def test_hopping_scales_with_kappa():
    assert np.allclose(JxSpec(5, kappa=3.0).hopping, 3.0 * JxSpec(5).hopping)


def test_jx_hamiltonian_structure():
    h = build_jx_hamiltonian(JxSpec(4))
    assert h.shape == (4, 4)
    assert np.allclose(np.diagonal(h), 0.0)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(np.diagonal(h, 1), JxSpec(4).hopping)
    # no couplings beyond nearest neighbor
    assert frobenius_norm(np.triu(h, 2)) == 0.0


def test_jx_single_port():
    h = build_jx_hamiltonian(JxSpec(1))
    assert h.shape == (1, 1)
    assert h[0, 0] == 0.0


def test_jx_two_port_example():
    assert np.allclose(build_jx_hamiltonian(JxSpec(2)), [[0, 0.5], [0.5, 0]])


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        JxSpec(0)
    with pytest.raises(ValueError):
        JxSpec(4, kappa=0.0)


def test_equidistant_spectrum():
    for n in range(2, 17):
        w, _ = eig_hermitian(build_jx_hamiltonian(JxSpec(n)))
        want = np.arange(n) - (n - 1) / 2
        assert np.abs(w - want).max() < 1e-10


def test_dfrft_two_port_closed_form():
    layer = dfrft(JxSpec(2))
    want = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert frobenius_norm(layer.matrix - want) < 1e-13


def test_dfrft_unitary_and_quarter_cycle():
    for n in range(2, 17):
        f = dfrft(JxSpec(n)).matrix
        assert unitarity_defect(f) < 1e-12
        f4 = np.linalg.matrix_power(f, 4)
        want = (-1) ** (n - 1) * np.eye(n)
        assert frobenius_norm(f4 - want) < 1e-10


def test_perturb_zero_sigma_is_exact():
    spec = JxSpec(6)
    h1 = gaussian_hermitian(6, 42)
    assert np.array_equal(perturb_hamiltonian(spec, 0.0, h1),
                          build_jx_hamiltonian(spec))


def test_perturb_two_port_example():
    # kappa_max = 0.5 for N=2, so sigma_k=1 with H1=I adds 0.5 I
    got = perturb_hamiltonian(JxSpec(2), 1.0, np.eye(2))
    assert np.allclose(got, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_perturb_validates_input():
    spec = JxSpec(4)
    with pytest.raises(ValueError):
        perturb_hamiltonian(spec, -0.1, np.eye(4))
    with pytest.raises(ValueError):
        perturb_hamiltonian(spec, 0.1, np.eye(3))
    with pytest.raises(ValueError):
        perturb_hamiltonian(spec, 0.1, [[0, 1], [0, 0]])


def test_perturbed_mixer_zero_sigma_matches_ideal():
    spec = JxSpec(5)
    h1 = gaussian_hermitian(5, 1)
    layer = perturbed_mixer(spec, 0.0, h1)
    assert np.array_equal(layer.matrix, dfrft(spec).matrix)


def test_perturbed_mixer_unitarity():
    spec = JxSpec(8)
    for s in range(10):
        layer = perturbed_mixer(spec, 0.05, gaussian_hermitian(8, s))
        assert unitarity_defect(layer.matrix) < 1e-12


def test_first_order_deviation():
    # d/ds exp(i L (H + s H1)) has Frobenius norm bounded by (pi/2)||H1||,
    # damped by spectral-gap mixing; the damping factor was measured per N
    # with this same construction and is pinned here.  Linearity in sigma
    # is checked by comparing two small sigma values.
    for n, lo, hi in ((2, 0.85, 1.0001), (8, 0.45, 0.78)):
        spec = JxSpec(n)
        f = dfrft(spec).matrix
        for s in range(5):
            h1 = gaussian_hermitian(n, derive_seed(77, f"fo{n}", s))
            scale = DFRFT_LENGTH * spec.kappa_max * frobenius_norm(h1)
            dev6 = frobenius_norm(f - perturbed_mixer(spec, 1e-6, h1).matrix)
            dev7 = frobenius_norm(f - perturbed_mixer(spec, 1e-7, h1).matrix)
            ratio = dev6 / (1e-6 * scale)
            assert lo < ratio < hi
            assert abs(dev6 / dev7 - 10.0) < 0.01  # first order in sigma


def test_deviation_linearity_ensemble():
    # ensemble mean of dF doubles when sigma_k doubles (within 5%)
    spec = JxSpec(8)
    f = dfrft(spec).matrix
    draws = 200
    for sigma_k in (0.002, 0.005):
        r1 = np.mean([
            relative_deviation(f, perturbed_mixer(
                spec, sigma_k, gaussian_hermitian(8, derive_seed(6, "lin", s))).matrix)
            for s in range(draws)
        ])
        r2 = np.mean([
            relative_deviation(f, perturbed_mixer(
                spec, 2 * sigma_k, gaussian_hermitian(8, derive_seed(6, "lin", s))).matrix)
            for s in range(draws)
        ])
        assert abs(r2 / r1 - 2.0) < 0.1


def test_relative_deviation_examples():
    f = dfrft(JxSpec(3)).matrix
    assert relative_deviation(f, f) == 0.0
    assert abs(relative_deviation(np.eye(2), -np.eye(2)) - 2.0) < 1e-15
    with pytest.raises(ValueError):
        relative_deviation(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        relative_deviation(np.eye(2), np.eye(3))


def test_mixing_layer_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        MixingLayer(np.array([[1.0, 0.1], [0.0, 1.0]]))
