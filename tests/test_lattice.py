import numpy as np
import pytest

from jxcircuit.circuit import perturbed_circuit
from jxcircuit.lattice import (
    DFRFT_LENGTH,
    _hopping_rates,
    build_jx_hamiltonian,
    dfrft,
    perturbed_mixer,
    relative_deviation,
)
from jxcircuit.numerics import frobenius_norm, unitarity_defect
from jxcircuit.sampling import derive_seed, gaussian_hermitian


def test_hopping_formula_and_symmetry():
    assert np.allclose(_hopping_rates(4), [np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2], atol=1e-15)
    for n in range(2, 33):
        h = _hopping_rates(n)
        assert np.allclose(h, h[::-1], atol=1e-15)  # kappa_p == kappa_{n-p}
    assert _hopping_rates(2)[0] == 0.5


def test_jx_hamiltonian_structure():
    h = build_jx_hamiltonian(4)
    assert h.shape == (4, 4)
    assert np.allclose(np.diagonal(h), 0.0)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(np.diagonal(h, 1), _hopping_rates(4))
    # no couplings beyond nearest neighbor
    assert frobenius_norm(np.triu(h, 2)) == 0.0


def test_jx_single_port():
    h = build_jx_hamiltonian(1)
    assert h.shape == (1, 1)
    assert h[0, 0] == 0.0


def test_jx_two_port_example():
    assert np.allclose(build_jx_hamiltonian(2), [[0, 0.5], [0.5, 0]])


def test_invalid_spec_rejected():
    for build in (_hopping_rates, build_jx_hamiltonian, dfrft):
        with pytest.raises(ValueError, match="port count must be >= 1"):
            build(0)


def test_equidistant_spectrum():
    for n in range(2, 17):
        w = np.linalg.eigvalsh(build_jx_hamiltonian(n))
        want = np.arange(n) - (n - 1) / 2
        assert np.abs(w - want).max() < 1e-10


def test_dfrft_two_port_closed_form():
    f = dfrft(2)
    want = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert frobenius_norm(f - want) < 1e-13


def test_dfrft_unitary_and_quarter_cycle():
    for n in range(2, 17):
        f = dfrft(n)
        assert unitarity_defect(f) < 1e-12
        f4 = np.linalg.matrix_power(f, 4)
        want = (-1) ** (n - 1) * np.eye(n)
        assert frobenius_norm(f4 - want) < 1e-10


def test_perturb_zero_sigma_is_exact():
    h1 = np.stack([gaussian_hermitian(6, 42 + k) for k in range(3)])
    got = perturbed_mixer(6, 0.0, h1)
    assert got.shape == (3, 6, 6)
    assert all(np.array_equal(slot, dfrft(6)) for slot in got)


def test_perturb_two_port_example():
    # kappa_max = 0.5 for N=2, so sigma_k=1 with H1=I adds 0.5 I to H = X / 2:
    # exp(i (pi/4) (I + X)) = e^{i pi/4} (I + i X) / sqrt(2)
    got = perturbed_mixer(2, 1.0, np.eye(2))
    want = np.exp(1j * np.pi / 4) * np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert frobenius_norm(got - want) < 1e-14


def test_perturb_validates_input():
    for bad in (-0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="sigma_k must be finite and >= 0"):
            perturbed_mixer(4, bad, np.eye(4))
        # named before any eigendecomposition is tried
        with pytest.raises(ValueError, match="sigma_k must be finite and >= 0"):
            perturbed_circuit(4, 5, bad, 0)
    with pytest.raises(ValueError, match="does not match lattice size 4"):
        perturbed_mixer(4, 0.1, np.eye(3))
    with pytest.raises(ValueError, match="does not match lattice size 4"):
        perturbed_mixer(4, 0.1, np.stack([np.eye(3)] * 2))
    with pytest.raises(ValueError, match="not Hermitian"):
        perturbed_mixer(4, 0.1, [[0, 1], [0, 0]])
    # one non-Hermitian slot in a stack is refused
    stack = np.stack([gaussian_hermitian(4, k) for k in range(3)])
    stack[1, 0, 1] += 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        perturbed_mixer(4, 0.1, stack)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 4), (4, 5), (8, 9), (16, 17)])
def test_a_stack_of_perturbations_gives_the_mixers_of_its_slots_bitwise(n, m):
    for sigma_k in (0.001, 0.003, 0.05):
        for s in range(5):
            h1 = np.stack([gaussian_hermitian(n, derive_seed(s, "stack", k))
                           for k in range(m + 1)])
            stacked = perturbed_mixer(n, sigma_k, h1)
            for k in range(m + 1):
                assert np.array_equal(stacked[k], perturbed_mixer(n, sigma_k, h1[k]))


def test_perturbed_mixer_zero_sigma_matches_ideal():
    h1 = gaussian_hermitian(5, 1)
    assert np.array_equal(perturbed_mixer(5, 0.0, h1), dfrft(5))


def test_perturbed_mixer_unitarity():
    for s in range(10):
        assert unitarity_defect(perturbed_mixer(8, 0.05, gaussian_hermitian(8, s))) < 1e-12


def test_first_order_deviation():
    # d/ds exp(i L (H + s H1)) has Frobenius norm bounded by (pi/2)||H1||,
    # damped by spectral-gap mixing; the damping factor was measured per N
    # with this same construction and is pinned here.  Linearity in sigma
    # is checked by comparing two small sigma values.
    for n, lo, hi in ((2, 0.85, 1.0001), (8, 0.45, 0.78)):
        f = dfrft(n)
        for s in range(5):
            h1 = gaussian_hermitian(n, derive_seed(77, f"fo{n}", s))
            scale = DFRFT_LENGTH * _hopping_rates(n).max() * frobenius_norm(h1)
            dev6 = frobenius_norm(f - perturbed_mixer(n, 1e-6, h1))
            dev7 = frobenius_norm(f - perturbed_mixer(n, 1e-7, h1))
            ratio = dev6 / (1e-6 * scale)
            assert lo < ratio < hi
            assert abs(dev6 / dev7 - 10.0) < 0.01  # first order in sigma


def test_deviation_linearity_ensemble():
    # ensemble mean of dF doubles when sigma_k doubles (within 5%)
    f = dfrft(8)
    draws = 200
    for sigma_k in (0.002, 0.005):
        r1 = np.mean([
            relative_deviation(f, perturbed_mixer(
                8, sigma_k, gaussian_hermitian(8, derive_seed(6, "lin", s))))
            for s in range(draws)
        ])
        r2 = np.mean([
            relative_deviation(f, perturbed_mixer(
                8, 2 * sigma_k, gaussian_hermitian(8, derive_seed(6, "lin", s))))
            for s in range(draws)
        ])
        assert abs(r2 / r1 - 2.0) < 0.1


def test_relative_deviation_examples():
    f = dfrft(3)
    assert relative_deviation(f, f) == 0.0
    assert abs(relative_deviation(np.eye(2), -np.eye(2)) - 2.0) < 1e-15
    with pytest.raises(ValueError):
        relative_deviation(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        relative_deviation(np.eye(2), np.eye(3))

