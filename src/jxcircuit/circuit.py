"""Interlaced mixing/phase circuits: composition, loss and analytic Jacobian.

Conventions, fixed throughout the package:

* A circuit with M phase layers has M+1 mixing slots.  ``mixers[0]`` is
  the *rightmost* factor of the operator product, i.e. the first slot
  light passes through, and ``theta[0]`` is the phase layer applied
  directly after it::

      U = X[M] . diag(e^{i theta[M-1]}) . X[M-1] ... diag(e^{i theta[0]}) . X[0]

* Phase grids are (M, N) float arrays, flattened layer-major (layer 0
  first) wherever a vector is required.
* Phases are unconstrained reals during arithmetic and optimization;
  canonicalization into [0, 2 pi) happens only at serialization time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .lattice import JxSpec, MixingLayer, dfrft, perturbed_mixer
from .numerics import as_complex_matrix
from .sampling import derive_seed, gaussian_hermitian

__all__ = [
    "PhaseProgram",
    "InterlacedCircuit",
    "FitResult",
    "transfer_matrix",
    "compose",
    "loss",
    "residual_vector",
    "residuals",
    "jacobian",
    "residuals_and_jacobian",
    "apply_fault_plan",
    "ideal_circuit",
    "perturbed_circuit",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhaseProgram:
    """An (M, N) grid of phases plus the mask of fault-frozen entries.

    ``fixed[m, p]`` marks a shifter that holds ``theta[m, p]`` forever;
    optimizers only ever touch the complement.
    """

    theta: np.ndarray
    fixed: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.ndim != 2:
            raise ValueError(f"phase grid must be 2-D, got shape {theta.shape}")
        if not np.isfinite(theta).all():
            raise ValueError("phase grid contains non-finite values")
        fixed = np.array(self.fixed, dtype=bool)
        if fixed.shape != theta.shape:
            raise ValueError(
                f"mask shape {fixed.shape} does not match phase grid {theta.shape}"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "fixed", fixed)

    @classmethod
    def zeros(cls, layers: int, ports: int) -> "PhaseProgram":
        return cls(np.zeros((layers, ports)), np.zeros((layers, ports), dtype=bool))

    @classmethod
    def free_grid(cls, theta) -> "PhaseProgram":
        theta = np.asarray(theta, dtype=float)
        return cls(theta, np.zeros(theta.shape, dtype=bool))

    @property
    def layers(self) -> int:
        return self.theta.shape[0]

    @property
    def ports(self) -> int:
        return self.theta.shape[1]

    @property
    def free_mask(self) -> np.ndarray:
        return ~self.fixed

    @property
    def free_count(self) -> int:
        return int(self.free_mask.sum())

    def phase_vector(self) -> np.ndarray:
        """Full layer-major flattening of the grid (fixed entries included)."""
        return self.theta.ravel().copy()

    def free_values(self) -> np.ndarray:
        """Values of the free entries, layer-major."""
        return self.theta[self.free_mask].copy()

    def with_free_values(self, values) -> "PhaseProgram":
        values = np.asarray(values, dtype=float)
        if values.shape != (self.free_count,):
            raise ValueError(
                f"expected {self.free_count} free values, got shape {values.shape}"
            )
        theta = self.theta.copy()
        theta[self.free_mask] = values
        return PhaseProgram(theta, self.fixed)

    def canonical(self) -> "PhaseProgram":
        """Equivalent program with all phases reduced into [0, 2 pi)."""
        return PhaseProgram(np.mod(self.theta, TWO_PI), self.fixed)


@dataclass(frozen=True)
class InterlacedCircuit:
    """M+1 mixing layers (slot 0 acts first) around an M-layer phase program."""

    mixers: tuple[MixingLayer, ...]
    program: PhaseProgram

    def __post_init__(self):
        mixers = tuple(self.mixers)
        if len(mixers) != self.program.layers + 1:
            raise ValueError(
                f"need {self.program.layers + 1} mixing layers for "
                f"{self.program.layers} phase layers, got {len(mixers)}"
            )
        for layer in mixers:
            if layer.n != self.program.ports:
                raise ValueError(
                    f"mixer size {layer.n} does not match port count "
                    f"{self.program.ports}"
                )
        object.__setattr__(self, "mixers", mixers)

    @property
    def ports(self) -> int:
        return self.program.ports

    @property
    def layers(self) -> int:
        return self.program.layers

    def mixer_stack(self) -> np.ndarray:
        """Mixing matrices as one (M+1, N, N) array, slot order preserved."""
        return np.stack([layer.matrix for layer in self.mixers])

    def with_program(self, program: PhaseProgram) -> "InterlacedCircuit":
        return InterlacedCircuit(self.mixers, program)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares phase fit."""

    phases: PhaseProgram
    loss: float
    iterations: int
    restarts_used: int
    converged: bool
    seed: int


def transfer_matrix(mixers: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Compose stacked mixer matrices (M+1, N, N) with a phase grid (M, N)."""
    phases = np.exp(1j * theta)[:, :, None]
    u = mixers[0]
    for ell in range(theta.shape[0]):
        u = mixers[ell + 1] @ (phases[ell] * u)
    return u


def compose(circuit: InterlacedCircuit) -> np.ndarray:
    """Transfer matrix of the circuit (unitary for any phase setting)."""
    return transfer_matrix(circuit.mixer_stack(), circuit.program.theta)


def loss(u, target) -> float:
    """Mean square error ``||U - U_t||_F^2 / N^2``."""
    u = as_complex_matrix(u)
    t = as_complex_matrix(target)
    if u.shape != t.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {t.shape}")
    diff = (u - t).ravel()
    n = u.shape[0]
    return float(np.vdot(diff, diff).real) / (n * n)


def residual_vector(u, target) -> np.ndarray:
    """Stacked Re/Im entries of ``(U - U_t) / N``; its sum of squares is the loss."""
    u = as_complex_matrix(u)
    t = as_complex_matrix(target)
    if u.shape != t.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {t.shape}")
    diff = (u - t) / u.shape[0]
    return np.concatenate([diff.real.ravel(), diff.imag.ravel()])


def residuals(circuit: InterlacedCircuit, target) -> np.ndarray:
    return residual_vector(compose(circuit), target)


def residuals_and_jacobian(
    mixers: np.ndarray, theta: np.ndarray, free_mask: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector and its Jacobian w.r.t. the free phases.

    Splitting the product at layer ``ell`` as ``U = A . diag(e^{i theta}) . B``
    gives the rank-one derivative
    ``dU/dtheta_p = i e^{i theta_p} outer(A[:, p], B[p, :])``, so one pass of
    suffix products (B) and one of prefix products (A) yields every column
    in O(M N^3) total.  Column order is layer-major, matching the flat
    phase vector; columns of fixed phases are omitted.
    """
    m_layers, n = theta.shape
    phases = np.exp(1j * theta)
    right = np.empty((m_layers + 1, n, n), dtype=np.complex128)
    right[0] = mixers[0]
    for ell in range(m_layers):
        right[ell + 1] = mixers[ell + 1] @ (phases[ell][:, None] * right[ell])
    diff = (right[m_layers] - target) / n
    r = np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    # left[ell] is the product of the layers after phase layer ell
    left = np.empty((m_layers, n, n), dtype=np.complex128)
    left[-1] = mixers[m_layers]
    for ell in range(m_layers - 1, 0, -1):
        left[ell - 1] = (left[ell] * phases[ell][None, :]) @ mixers[ell]
    scaled = left.transpose(0, 2, 1) * (1j * phases)[:, :, None]
    # all layers' rank-one blocks in one broadcast shaped as for one layer (other shapes
    # round differently); rows per parameter, returned transposed (a view)
    flat = scaled.reshape(-1, n)[:, :, None] * right[:-1].reshape(-1, n)[:, None, :]
    rows = np.concatenate([flat.real, flat.imag], axis=1).reshape(m_layers * n, 2 * n * n)
    del flat  # at most two Jacobian-sized arrays alive, as with per-layer blocks
    rows *= 1.0 / n
    return r, rows[free_mask.ravel()].T


def jacobian(circuit: InterlacedCircuit, target) -> np.ndarray:
    """Jacobian of ``residuals(circuit, target)`` w.r.t. the free phases."""
    target = as_complex_matrix(target)
    _, jac = residuals_and_jacobian(
        circuit.mixer_stack(),
        circuit.program.theta,
        circuit.program.free_mask,
        target,
    )
    return jac


def apply_fault_plan(
    program: PhaseProgram, faults: Iterable[tuple[int, int, float]]
) -> PhaseProgram:
    """Freeze the listed shifters at the given values.

    ``faults`` holds (layer, port, value) triples with 0-based indices.
    Duplicate positions, out-of-range positions and positions that are
    already frozen are rejected.
    """
    theta = program.theta.copy()
    fixed = program.fixed.copy()
    seen: set[tuple[int, int]] = set()
    for m, p, value in faults:
        m, p = int(m), int(p)
        if not (0 <= m < program.layers and 0 <= p < program.ports):
            raise ValueError(
                f"fault position ({m}, {p}) out of range for "
                f"{program.layers} x {program.ports} grid"
            )
        if (m, p) in seen:
            raise ValueError(f"duplicate fault position ({m}, {p})")
        if fixed[m, p]:
            raise ValueError(f"shifter ({m}, {p}) is already frozen")
        seen.add((m, p))
        theta[m, p] = float(value)
        fixed[m, p] = True
    return PhaseProgram(theta, fixed)


def ideal_circuit(n: int, m: int, kappa: float = 1.0) -> InterlacedCircuit:
    """Circuit of m+1 identical ideal mixing layers with all phases zero."""
    if m < 1:
        raise ValueError(f"need at least one phase layer, got {m}")
    layer = dfrft(JxSpec(n, kappa))
    return InterlacedCircuit((layer,) * (m + 1), PhaseProgram.zeros(m, n))


def perturbed_circuit(
    n: int,
    m: int,
    sigma_k: float,
    seed: int,
    kappa: float = 1.0,
    *,
    label: str = "mixer-slot",
) -> InterlacedCircuit:
    """Circuit whose m+1 mixing slots carry independent disorder draws.

    Each slot receives its own Hermitian perturbation at the shared
    ``sigma_k``, seeded by ``derive_seed(seed, label, slot)``, modelling
    uncorrelated fabrication errors across physically distinct lattices.
    ``sigma_k = 0`` gives the ideal circuit without drawing any disorder.
    """
    if sigma_k == 0.0:
        return ideal_circuit(n, m, kappa)
    if m < 1:
        raise ValueError(f"need at least one phase layer, got {m}")
    spec = JxSpec(n, kappa)
    mixers = []
    for slot in range(m + 1):
        h1 = gaussian_hermitian(n, derive_seed(seed, label, slot))
        mixers.append(perturbed_mixer(spec, sigma_k, h1))
    return InterlacedCircuit(tuple(mixers), PhaseProgram.zeros(m, n))
