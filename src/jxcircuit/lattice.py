"""Jx waveguide-lattice Hamiltonians and the fixed mixing layers they generate.

A lattice of N coupled waveguides with unit coupling scale and hopping
rates ``kappa_p = sqrt((N - p) p) / 2`` has an equidistant eigenvalue
ladder, so propagating through the normalized length pi/2 realizes the
discrete fractional Fourier transform that serves as the fixed mixing
operation between programmable phase layers.  Fabrication disorder is
modelled as an additive Hermitian perturbation of the Hamiltonian,
exponentiated the same way so the perturbed mixer stays exactly unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    as_complex_matrix,
    expm_i_scaled,
    frobenius_norm,
    require_hermitian,
    unitarity_defect,
)

__all__ = [
    "DFRFT_LENGTH",
    "JxSpec",
    "MixingLayer",
    "build_jx_hamiltonian",
    "dfrft",
    "perturb_hamiltonian",
    "perturbed_mixer",
    "relative_deviation",
]

#: normalized propagation length of the quarter-cycle transform
DFRFT_LENGTH = np.pi / 2.0

_UNITARITY_ATOL = 1e-12


@dataclass(frozen=True)
class JxSpec:
    """Lattice size; the hopping rates are derived at unit coupling scale,
    so the fixed length pi/2 yields the canonical quarter-cycle transform."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"port count must be >= 1, got {self.n}")

    @property
    def hopping(self) -> np.ndarray:
        """Nearest-neighbor rates ``kappa_p = sqrt((n-p) p) / 2``, p = 1..n-1."""
        p = np.arange(1, self.n)
        return 0.5 * np.sqrt((self.n - p) * p)

    @property
    def kappa_max(self) -> float:
        """Largest hopping rate (0 for a single-port lattice)."""
        h = self.hopping
        return float(h.max()) if h.size else 0.0


@dataclass(frozen=True)
class MixingLayer:
    """One fixed unitary mixing slot."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"mixing layer must be square, got shape {m.shape}")
        defect = unitarity_defect(m)
        if defect > _UNITARITY_ATOL:
            raise ValueError(
                f"mixing layer is not unitary: ||M†M - I||_F = {defect:.3e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_jx_hamiltonian(spec: JxSpec) -> np.ndarray:
    """Real symmetric tridiagonal Hamiltonian with zero diagonal."""
    n = spec.n
    h = np.zeros((n, n), dtype=np.complex128)
    if n > 1:
        k = spec.hopping
        idx = np.arange(n - 1)
        h[idx, idx + 1] = k
        h[idx + 1, idx] = k
    return h


def dfrft(spec: JxSpec) -> MixingLayer:
    """Ideal mixing layer ``exp(i (pi/2) H)`` of the lattice Hamiltonian."""
    return MixingLayer(expm_i_scaled(build_jx_hamiltonian(spec), DFRFT_LENGTH))


def perturb_hamiltonian(spec: JxSpec, sigma_k: float, h1) -> np.ndarray:
    """``H + (sigma_k * kappa_max) * H1`` with ``H1`` Hermitian of matching size."""
    if not (math.isfinite(sigma_k) and sigma_k >= 0):
        raise ValueError(f"sigma_k must be finite and >= 0, got {sigma_k}")
    h1 = require_hermitian(h1)
    if h1.shape != (spec.n, spec.n):
        raise ValueError(
            f"perturbation shape {h1.shape} does not match lattice size {spec.n}"
        )
    return build_jx_hamiltonian(spec) + (sigma_k * spec.kappa_max) * h1


def perturbed_mixer(spec: JxSpec, sigma_k: float, h1) -> MixingLayer:
    """Unitary mixing layer generated by the perturbed Hamiltonian."""
    hp = perturb_hamiltonian(spec, sigma_k, h1)
    return MixingLayer(expm_i_scaled(hp, DFRFT_LENGTH))


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
