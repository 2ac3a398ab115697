"""Jx waveguide-lattice Hamiltonians and the fixed mixing matrices they generate.

A lattice of N coupled waveguides with unit coupling scale and hopping
rates ``kappa_p = sqrt((N - p) p) / 2`` has an equidistant eigenvalue
ladder, so propagating through the normalized length pi/2 realizes the
discrete fractional Fourier transform that serves as the fixed mixing
operation between programmable phase layers.  Fabrication disorder is
modelled as an additive Hermitian perturbation of the Hamiltonian,
exponentiated the same way so the perturbed mixer stays exactly unitary.
Every function takes the port count N and returns a plain (N, N) matrix,
or a stack of them for a stack of perturbations;
``circuit.InterlacedCircuit`` checks the unitarity of the mixers it holds.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (
    as_complex_matrix,
    expm_i_scaled,
    frobenius_norm,
    require_hermitian,
)

__all__ = [
    "DFRFT_LENGTH",
    "build_jx_hamiltonian",
    "dfrft",
    "perturbed_mixer",
    "relative_deviation",
]

#: normalized propagation length of the quarter-cycle transform
DFRFT_LENGTH = np.pi / 2.0


def _hopping_rates(n: int) -> np.ndarray:
    """Nearest-neighbor rates ``kappa_p = sqrt((n-p) p) / 2``, p = 1..n-1,
    at unit coupling scale."""
    if n < 1:
        raise ValueError(f"port count must be >= 1, got {n}")
    p = np.arange(1, n)
    return 0.5 * np.sqrt((n - p) * p)


def build_jx_hamiltonian(n: int) -> np.ndarray:
    """Real symmetric tridiagonal Hamiltonian of n ports with zero diagonal."""
    k = _hopping_rates(n)
    h = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = k
    h[idx + 1, idx] = k
    return h


def dfrft(n: int) -> np.ndarray:
    """Ideal mixing matrix ``exp(i (pi/2) H)`` of the n-port lattice."""
    return expm_i_scaled(build_jx_hamiltonian(n), DFRFT_LENGTH)


def perturbed_mixer(n: int, sigma_k: float, h1) -> np.ndarray:
    """Mixing matrix ``exp(i (pi/2) (H + sigma_k kappa_max H1))`` of the
    n-port Hamiltonian ``H`` perturbed by a Hermitian ``H1``, where
    ``kappa_max`` is the largest hopping rate (0 for one port); for a stack
    (..., n, n) of perturbations, the stack of their mixers."""
    if not (math.isfinite(sigma_k) and sigma_k >= 0):
        raise ValueError(f"sigma_k must be finite and >= 0, got {sigma_k}")
    h1 = require_hermitian(h1)
    if h1.shape[-2:] != (n, n):
        raise ValueError(f"perturbation shape {h1.shape} does not match lattice size {n}")
    kappa_max = float(_hopping_rates(n).max(initial=0.0))
    return expm_i_scaled(build_jx_hamiltonian(n) + (sigma_k * kappa_max) * h1, DFRFT_LENGTH)


def relative_deviation(a, b) -> float:
    """``||A - B||_F / ||A||_F`` with A as the reference matrix."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = frobenius_norm(a)
    if ref == 0.0:
        raise ValueError("reference matrix has zero norm")
    return frobenius_norm(a - b) / ref
