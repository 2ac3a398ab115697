"""Levenberg-Marquardt fitting of circuit phases to a target unitary.

The damped normal equations ``(J'J + lambda diag(J'J)) delta = -J'r`` are
formed from the circuit's prefix products alone (``circuit.normal_equations``:
the mixers are unitary, as ``MixingLayer`` guarantees, so the coupling of two
phases is the squared modulus of the transfer matrix between their layers) and
solved per step, from one Cholesky factorization per damping value
(``numerics.SpdSolver``); a step is accepted only if it lowers the loss, in
which case ``lambda`` follows Nielsen's gain-ratio update (H. B. Nielsen,
1999: it shrinks by up to 3x when the loss falls as the Gauss-Newton model
predicts, and grows by up to 2x when it falls far less); otherwise it grows by
a factor of 2 and the solve is retried (as it is when the damped matrix is not
numerically positive definite).
Each candidate step carries a geodesic-acceleration correction
(a second-order term from the directional curvature of the residuals,
estimated with two extra residual evaluations); the plain step is tried
as a fallback at the same damping before the damping grows; both
curvature probes and the plain trial are composed in one stacked pass.
On this model class the acceleration lifts the per-descent success rate
of truncated runs substantially, because random starts otherwise crawl
through narrow curved valleys.

Termination mirrors the usual trio of tolerances (function, step,
optimality) plus a hard loss target and an iteration cap; ``fit`` wraps
the descent in independent seeded restarts.  Recalibration against
perturbed mixers is a ``fit`` with ``restarts=attempts`` and a truncated
``max_iterations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    FitResult,
    InterlacedCircuit,
    PhaseProgram,
    loss,
    normal_equations,
    transfer_matrices,
    transfer_matrix,
)
from .numerics import SpdSolver, as_complex_matrix
from .sampling import derive_seed, jitter_phases, uniform_phases

__all__ = ["LmaOptions", "FromVector", "fit"]


#: relative length of the probe used for the curvature (acceleration) estimate
_ACCEL_PROBE = 0.1
#: acceleration is skipped when ||acc|| exceeds this multiple of 2 ||delta||
_ACCEL_RATIO_LIMIT = 0.75
#: stopping tolerances: relative loss change, relative step length, gradient entries
_FUNCTION_TOLERANCE = 1e-6
_STEP_TOLERANCE = 1e-6
_OPTIMALITY_TOLERANCE = 1e-10
#: first damping (a multiple of max diag J'J), growth on rejection, give-up cap
_DAMPING_SCALE = 1e-3
_DAMPING_FACTOR = 2.0
_DAMPING_MAX = 1e10
#: extra steps after target_loss to reach the noise floor
_POLISH_ITERATIONS = 3


@dataclass(frozen=True)
class LmaOptions:
    """Budgets of a fit: iterations per descent, descents, and the loss target."""

    max_iterations: int = 400
    restarts: int = 100
    target_loss: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (math.isfinite(self.target_loss) and self.target_loss > 0):
            raise ValueError(
                f"target_loss must be finite and positive, got {self.target_loss}")


@dataclass(frozen=True)
class FromVector:
    """Start at a given phase grid, optionally jittered by a relative fraction."""

    phases: np.ndarray
    jitter_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must lie in [0, 1)")
        phases = np.array(self.phases, dtype=float)
        if not np.isfinite(phases).all():
            raise ValueError("start phases contain non-finite values")
        object.__setattr__(self, "phases", phases)


class _Problem:
    """Least-squares view of one phase fit: free vector -> loss/residuals.

    Instances keep a scratch phase grid and the buffers of the normal
    equations and the damped solver, all allocated once, so a single
    instance must not be evaluated from two threads at once (each fit owns
    its own).  G and J'J share one block: freeing it lifts glibc's mmap
    threshold above the next fit's buffers, which then reuse resident pages.
    """

    def __init__(self, mixers: np.ndarray, program: PhaseProgram, target: np.ndarray):
        self.mixers = mixers
        self.free = program.free_mask
        self.target = target
        p = program.free_count
        self.solver = SpdSolver(p)
        block = np.empty(3 * p * p)
        self._gram = block[:2 * p * p].view(np.complex128).reshape(p, p)
        self._jtj = block[2 * p * p:].reshape(p, p)
        self._theta = program.theta.copy()
        self._nsq = program.ports * program.ports

    def theta_of(self, x: np.ndarray) -> np.ndarray:
        self._theta[self.free] = x
        return self._theta

    def loss_of(self, x: np.ndarray) -> float:
        u = transfer_matrix(self.mixers, self.theta_of(x))
        diff = (u - self.target).ravel()
        return float(np.vdot(diff, diff).real) / self._nsq

    def normal_equations(self, x: np.ndarray):
        """``circuit.normal_equations`` at ``x``, written into this fit's buffers."""
        return normal_equations(self.mixers, self.theta_of(x), self.free, self.target,
                                self._gram, self._jtj)

    def probes_and_trial(self, x: np.ndarray, delta: np.ndarray, h: float):
        """Residual matrices at ``x + h delta`` and ``x - h delta`` and the
        loss at ``x + delta`` from one stacked composition, bitwise as
        ``normal_equations`` and ``loss_of`` give them one by one."""
        thetas = np.repeat(self._theta[None], 3, axis=0)
        thetas[:, self.free] = (x + h * delta, x - h * delta, x + delta)
        diff = transfer_matrices(self.mixers, thetas) - self.target
        ahead, behind = diff[:2] / self.target.shape[0]
        trial = diff[2].ravel()
        return ahead, behind, float(np.vdot(trial, trial).real) / self._nsq


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))  # numpy.linalg.norm's arithmetic, without its overhead


def _gain_damping(lam, current, new_loss, predicted):
    """Nielsen's damping after an accepted step: the gain ratio rho of the
    actual to the predicted decrease scales lambda by 1 - (2 rho - 1)^3,
    clipped to [1/3, 2]; a step the model predicts no decrease for counts as
    rho = 1.  An accelerated step is scored against the plain step's model."""
    rho = (current - new_loss) / predicted if predicted > 0 else 1.0
    return max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)


def _attempt_step(problem, x, current, equations, diag, lam):
    """Grow the damping until a loss-decreasing step is found or give up.

    At each damping value the damped matrix is factored once, and the
    geodesic-accelerated step is tried first (when its correction is not
    disproportionate), then the plain damped step; only if both fail, or
    the factorization or the plain step does, does the damping grow.  The two
    curvature probes and the plain trial share one stacked evaluation, so
    only the accelerated trial is composed on its own.  ``equations`` is
    what ``normal_equations`` returned at ``x``.  Returns
    (x, loss, lam, step_norm, accepted), with the gain-ratio damping for
    the next iteration; on failure the incoming state comes back unchanged
    with the damping that exceeded the cap.
    """
    diff, jtj, g, jtv = equations
    solver = problem.solver
    while True:
        delta = solver.solve(-g) if solver.factor(jtj, lam * diag) else None
        if delta is not None:
            # the Gauss-Newton model's decrease of the loss for the plain step
            predicted = float(delta.dot(lam * diag * delta - g))
            h = _ACCEL_PROBE
            ahead, behind, plain_loss = problem.probes_and_trial(x, delta, h)
            fvv = (ahead - 2.0 * diff + behind) / (h * h)
            acc = solver.solve(-jtv(fvv))
            if acc is not None and _norm(acc) <= 2.0 * _ACCEL_RATIO_LIMIT * _norm(delta):
                step = delta + 0.5 * acc
                trial = x + step
                trial_loss = problem.loss_of(trial)
                if trial_loss < current:
                    lam = _gain_damping(lam, current, trial_loss, predicted)
                    return trial, trial_loss, lam, _norm(step), True
            if plain_loss < current:
                lam = _gain_damping(lam, current, plain_loss, predicted)
                return x + delta, plain_loss, lam, _norm(delta), True
        lam *= _DAMPING_FACTOR
        if not lam <= _DAMPING_MAX:  # a NaN damping gives up too
            return x, current, lam, 0.0, False


@dataclass
class _RunOutcome:
    x: np.ndarray
    loss: float
    iterations: int
    status: str


def _minimize(problem: _Problem, x0: np.ndarray, options: LmaOptions) -> _RunOutcome:
    x = np.asarray(x0, dtype=float).copy()
    current = problem.loss_of(x)
    if current < options.target_loss:
        return _RunOutcome(x, current, 0, "target")
    if x.size == 0:
        return _RunOutcome(x, current, 0, "no-free-parameters")

    lam = None
    iterations = 0
    polishing = False
    polish_left = _POLISH_ITERATIONS
    status = "maxiter"
    while iterations < options.max_iterations:
        equations = problem.normal_equations(x)
        _, jtj, g, _ = equations
        if not polishing and float(np.abs(g).max()) < _OPTIMALITY_TOLERANCE:
            status = "gtol"
            break
        diag = np.maximum(np.diagonal(jtj), 1e-30)
        if lam is None:
            lam = _DAMPING_SCALE * float(diag.max())
        x, new_loss, lam, step, accepted = _attempt_step(
            problem, x, current, equations, diag, lam
        )
        if not accepted:
            status = "target" if polishing else "stalled"
            break
        previous, current = current, new_loss
        iterations += 1
        if polishing:
            polish_left -= 1
            if polish_left <= 0 or current > 0.1 * previous:
                status = "target"
                break
            continue
        if current < options.target_loss:
            if polish_left <= 0:
                status = "target"
                break
            polishing = True
            continue
        if abs(previous - current) <= _FUNCTION_TOLERANCE * current:
            status = "ftol"
            break
        if step <= _STEP_TOLERANCE * (_norm(x) + _STEP_TOLERANCE):
            status = "xtol"
            break
    return _RunOutcome(x, current, iterations, status)


def _initial_free_values(
    program: PhaseProgram, init: FromVector | None, restart_seed: int
) -> np.ndarray:
    """Start of one restart: fresh i.i.d. U[0, 2 pi) phases when ``init`` is
    None, else ``init``'s grid jittered by its fraction."""
    if init is None:
        grid = uniform_phases(program.layers, program.ports, restart_seed)
    else:
        base = init.phases.reshape(program.layers, program.ports)
        grid = jitter_phases(base, init.jitter_fraction, restart_seed)
    return grid[program.free_mask]


def fit(
    circuit: InterlacedCircuit,
    target,
    options: LmaOptions | None = None,
    init: FromVector | None = None,
    seed: int = 0,
) -> FitResult:
    """Best-of-restarts phase fit of the circuit to a target unitary.

    Up to ``options.restarts`` independent descents run from fresh seeded
    initializations (uniform phases, or ``init`` jittered); the loop stops
    early once the loss target is met.
    Frozen (faulty) phases are never modified.  The returned loss is
    recomputed from the composed transfer matrix, so it is consistent
    with ``loss(compose(...), target)`` by construction.
    """
    options = options if options is not None else LmaOptions()
    target = as_complex_matrix(target)
    program = circuit.program
    mixers = circuit.mixer_stack()
    problem = _Problem(mixers, program, target)

    best: _RunOutcome | None = None
    restarts_used = 0
    for k in range(options.restarts):
        restarts_used = k + 1
        x0 = _initial_free_values(program, init, derive_seed(seed, "lma-restart", k))
        outcome = _minimize(problem, x0, options)
        if best is None or outcome.loss < best.loss:
            best = outcome
        if best.loss < options.target_loss:
            break

    phases = program.with_free_values(best.x)
    final_loss = loss(transfer_matrix(mixers, phases.theta), target)
    if not np.array_equal(phases.theta[program.fixed], program.theta[program.fixed]):
        raise AssertionError("optimizer modified frozen phase entries")
    return FitResult(
        phases=phases,
        loss=final_loss,
        iterations=best.iterations,
        restarts_used=restarts_used,
        converged=final_loss < options.target_loss,
        seed=seed,
        status=best.status,
    )

