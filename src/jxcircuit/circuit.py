"""Interlaced mixing/phase circuits: composition, loss, and the residuals'
Gauss-Newton normal equations.

Every composition is one sweep over a stack of phase grids that keeps each
prefix product (``prefix_products``, into a caller's buffer), and the
normal equations at a point are read from the prefixes of the sweep that
composed it, so no point is composed twice.

Conventions, fixed throughout the package:

* A circuit with M phase layers has M+1 mixing slots, held as one
  read-only (M+1, N, N) array of unitary matrices.  ``mixers[0]`` is
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

from .lattice import dfrft, perturbed_mixer
from .numerics import as_complex_matrix, unitarity_defect
from .sampling import derive_seed, gaussian_hermitian

__all__ = [
    "PhaseProgram",
    "InterlacedCircuit",
    "FitResult",
    "transfer_matrix",
    "prefix_products",
    "compose",
    "loss",
    "normal_equations",
    "apply_fault_plan",
    "ideal_circuit",
    "perturbed_circuit",
]

TWO_PI = 2.0 * np.pi
#: largest ||X†X - I||_F a mixing slot may have
_UNITARITY_ATOL = 1e-12


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
    """M+1 mixing matrices (slot 0 acts first) around an M-layer phase program.

    ``mixers`` is stored as a read-only complex128 copy of shape
    (M+1, N, N).  A stack of another shape, or with a slot whose
    ``||X†X - I||_F`` is not within ``_UNITARITY_ATOL`` (a NaN defect
    included), is refused, naming the first such slot.
    """

    mixers: np.ndarray
    program: PhaseProgram

    def __post_init__(self):
        mixers = np.array(self.mixers, dtype=np.complex128)
        m, n = self.program.layers, self.program.ports
        if mixers.shape != (m + 1, n, n):
            raise ValueError(f"mixer stack has shape {mixers.shape}, but {m} phase layers "
                             f"of {n} ports need {(m + 1, n, n)}")
        defects = unitarity_defect(mixers)
        if not (defects <= _UNITARITY_ATOL).all():
            slot = int(np.argmin(defects <= _UNITARITY_ATOL))
            raise ValueError(f"mixer slot {slot} is not unitary: "
                             f"||X†X - I||_F = {defects[slot]:.3e}")
        mixers.flags.writeable = False
        object.__setattr__(self, "mixers", mixers)

    @property
    def ports(self) -> int:
        return self.program.ports

    @property
    def layers(self) -> int:
        return self.program.layers

    def with_program(self, program: PhaseProgram) -> "InterlacedCircuit":
        return InterlacedCircuit(self.mixers, program)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares phase fit.

    ``iterations`` and ``status`` are the best descent's: its accepted
    steps, and why it stopped: ``target``, ``ftol``, ``xtol``, ``gtol``,
    ``maxiter``, ``stalled`` (no damping up to the cap lowered the loss) or
    ``no-free-parameters``.  ``total_iterations`` and ``rejected_trials``
    (damping trials that found no lower loss) count over all
    ``restarts_used`` descents.  ``seconds`` is the fit's share of the wall
    time of the descent it ran in (each tick's time split equally among the
    lanes the tick advanced, of this fit or of others on the same circuit)
    plus its own final composition.
    """

    phases: PhaseProgram
    loss: float
    iterations: int
    restarts_used: int
    converged: bool
    status: str
    total_iterations: int
    rejected_trials: int
    seconds: float


def prefix_products(mixers: np.ndarray, thetas: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Compose the mixers with a stack of phase grids (B, M, N) in one sweep.

    Writes the prefix products into the caller's (M+1, B, N, N) buffer
    ``out`` (``out[ell, b]`` is grid b's product up to mixer ell, the
    matrices ``normal_equations`` reads) and returns ``out[M]``, the B
    transfer matrices.  Slice ``b`` is bitwise the same for any B and any
    place of the grid in the stack.  The first mixer enters as a (1, N, N)
    slice, of the same rank as the phase factors: numpy picks its
    elementwise loop by operand shapes, and at N = B = 1 a (1, 1) mixer
    against (1, 1, 1) factors takes a loop that rounds the complex product
    differently.
    """
    factors = np.exp(1j * thetas).transpose(1, 0, 2)[:, :, :, None]
    out[0] = mixers[0]
    u = mixers[:1]
    for mixer, layer, prefix in zip(mixers[1:], factors, out[1:]):
        u = np.matmul(mixer, layer * u, out=prefix)
    return out[-1]


def transfer_matrix(mixers: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Compose stacked mixer matrices (M+1, N, N) with a phase grid (M, N)."""
    m, n = theta.shape
    out = np.empty((m + 1, 1, n, n), dtype=np.complex128)
    return prefix_products(mixers, theta[None], out)[0]


def compose(circuit: InterlacedCircuit) -> np.ndarray:
    """Transfer matrix of the circuit (unitary for any phase setting)."""
    return transfer_matrix(circuit.mixers, circuit.program.theta)


def loss(u, target) -> float:
    """Mean square error ``||U - U_t||_F^2 / N^2``."""
    u = as_complex_matrix(u)
    t = as_complex_matrix(target)
    if u.shape != t.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {t.shape}")
    diff = (u - t).ravel()
    n = u.shape[0]
    return float(np.vdot(diff, diff).real) / (n * n)


def normal_equations(
    prefixes: np.ndarray,
    free_mask: np.ndarray,
    target: np.ndarray,
    gram: np.ndarray,
    jtj: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton normal equations w.r.t. the free phases.

    ``prefixes`` are the (M+1, N, N) prefix products of one phase grid, or
    the (M+1, L, N, N) ones of a stack of L grids, as ``prefix_products``
    wrote them (a slice of its buffer); no sweep runs here.  Each grid's
    residual is the complex matrix ``D = (U - U_t) / N``, with ``U =
    prefixes[M]``: the stacked Re/Im entries of D are the least-squares
    residuals, so ``||D||_F^2`` is the loss.

    Splitting the product at layer ``ell`` as ``U = A . diag(e^{i theta}) . B``
    gives the rank-one derivative
    ``dU/dtheta_p = i e^{i theta_p} outer(A[:, p], B[p, :])``.  The mixers
    are unitary (``InterlacedCircuit`` guarantees it), so ``A diag(e^{i theta}) =
    U B^H``: the prefix products B that composed U give every derivative.
    With the rows ``b = B[p, :]`` of the free phases stacked (layer-major,
    as the flat phase vector) into a (P, N) array, J is never formed; the
    coupling of two phases is the squared modulus of the transfer matrix
    between their layers::

        J'J = |G|^2   with G = conj(b) b^T / N, so diag(J'J) = 1 / N^2
        J'D = Im(rowsum((b U^H D) o conj(b))) / N

    G goes into the complex (P, P) or (L, P, P) buffer ``gram``, J'J into
    the real one ``jtj`` (both reused by the next call).  Returns ``(J'J,
    J'D)``.  A stack's products are stacked ``matmul`` calls, so slice
    ``l`` of each is bitwise what grid l alone gives.
    """
    u = prefixes[-1]
    n = u.shape[-1]
    diff = (u - target) / n

    b = prefixes[:-1].swapaxes(0, -3)[..., free_mask, :]  # (P, N) or (L, P, N)
    b_conj = b.conj() / n
    np.matmul(b_conj, b.swapaxes(-1, -2), out=gram)
    squares = gram.view(np.float64)  # Re(G) and Im(G), interleaved
    np.square(squares, out=squares)
    np.add(gram.real, gram.imag, out=jtj)
    return jtj, ((b @ (u.conj().swapaxes(-1, -2) @ diff)) * b_conj).sum(axis=-1).imag


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


def ideal_circuit(n: int, m: int) -> InterlacedCircuit:
    """Circuit of m+1 identical ideal mixing layers with all phases zero."""
    if m < 1:
        raise ValueError(f"need at least one phase layer, got {m}")
    return InterlacedCircuit([dfrft(n)] * (m + 1), PhaseProgram.zeros(m, n))


def perturbed_circuit(
    n: int,
    m: int,
    sigma_k: float,
    seed: int,
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
        return ideal_circuit(n, m)
    if m < 1:
        raise ValueError(f"need at least one phase layer, got {m}")
    mixers = [perturbed_mixer(n, sigma_k, gaussian_hermitian(n, derive_seed(seed, label, k)))
              for k in range(m + 1)]
    return InterlacedCircuit(mixers, PhaseProgram.zeros(m, n))
