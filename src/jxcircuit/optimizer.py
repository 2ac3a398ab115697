"""Levenberg-Marquardt fitting of circuit phases to a target unitary.

The damped normal equations ``(J'J + lambda diag(J'J)) delta = -J'r`` are
solved per step; a step is accepted only if it lowers the loss, in which
case ``lambda`` follows Nielsen's gain-ratio update (H. B. Nielsen, 1999:
it shrinks by up to 3x when the loss falls as the Gauss-Newton model
predicts, and grows by up to 2x when it falls far less); otherwise it grows
by ``damping_factor`` and the solve is retried.
Each candidate step carries an optional geodesic-acceleration correction
(a second-order term from the directional curvature of the residuals,
estimated with two extra residual evaluations); the plain step is tried
as a fallback at the same damping before the damping grows; both
curvature probes and the plain trial are composed in one stacked pass.
On this model class the acceleration lifts the per-descent success rate
of truncated runs substantially, because random starts otherwise crawl
through narrow curved valleys.

Termination mirrors the usual trio of tolerances (function, step,
optimality) plus a hard loss target and an iteration cap; ``fit`` wraps
the descent in independent seeded restarts and ``recalibrate`` re-runs it
with a truncated iteration budget against perturbed mixers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .circuit import (
    FitResult,
    InterlacedCircuit,
    PhaseProgram,
    loss,
    residuals_and_jacobian,
    transfer_matrices,
    transfer_matrix,
)
from .numerics import as_complex_matrix
from .sampling import derive_seed, jitter_phases, uniform_phases

__all__ = [
    "LmaOptions",
    "RandomUniform",
    "FromVector",
    "InitStrategy",
    "fit",
    "recalibrate",
]


#: relative length of the probe used for the curvature (acceleration) estimate
_ACCEL_PROBE = 0.1
#: acceleration is skipped when ||acc|| exceeds this multiple of 2 ||delta||
_ACCEL_RATIO_LIMIT = 0.75


@dataclass(frozen=True)
class LmaOptions:
    """Tolerances and budgets for the damped least-squares descent."""

    function_tolerance: float = 1e-6
    step_tolerance: float = 1e-6
    optimality_tolerance: float = 1e-10
    max_iterations: int = 400
    restarts: int = 100
    target_loss: float = 1e-10
    damping_initial: float | None = None  # None: 1e-3 * max(diag J'J) at first step
    damping_factor: float = 2.0  # growth on rejection; the gain ratio sets lambda on acceptance
    damping_max: float = 1e10
    acceleration: bool = True  # geodesic second-order step correction
    polish_iterations: int = 3  # extra steps after target_loss to reach noise floor

    def __post_init__(self):
        for name in ("function_tolerance", "step_tolerance", "optimality_tolerance",
                     "target_loss"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.damping_factor <= 1:
            raise ValueError("damping_factor must exceed 1")
        if self.damping_initial is not None and not self.damping_initial > 0:
            raise ValueError("damping_initial must be positive when given")
        if self.polish_iterations < 0:
            raise ValueError("polish_iterations must be >= 0")

    def truncated(self, max_iterations: int = 50) -> "LmaOptions":
        """Copy with the truncated iteration cap used for recalibration."""
        return dataclasses.replace(self, max_iterations=max_iterations)


@dataclass(frozen=True)
class RandomUniform:
    """Fresh i.i.d. U[0, 2 pi) phases for every restart."""


@dataclass(frozen=True)
class FromVector:
    """Start at a given phase grid, optionally jittered by a relative fraction."""

    phases: np.ndarray
    jitter_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must lie in [0, 1)")


InitStrategy = Union[RandomUniform, FromVector]


class _Problem:
    """Least-squares view of one phase fit: free vector -> loss/residuals.

    Instances keep a scratch phase grid, so a single instance must not be
    evaluated from two threads at once (each fit owns its own instance).
    """

    def __init__(self, mixers: np.ndarray, program: PhaseProgram, target: np.ndarray):
        self.mixers = mixers
        self.free = program.free_mask
        self.target = target
        self._theta = program.theta.copy()
        self._nsq = program.ports * program.ports

    def theta_of(self, x: np.ndarray) -> np.ndarray:
        self._theta[self.free] = x
        return self._theta

    def loss_of(self, x: np.ndarray) -> float:
        u = transfer_matrix(self.mixers, self.theta_of(x))
        diff = (u - self.target).ravel()
        return float(np.vdot(diff, diff).real) / self._nsq

    def residuals_jacobian(self, x: np.ndarray):
        return residuals_and_jacobian(
            self.mixers, self.theta_of(x), self.free, self.target
        )

    def probes_and_trial(self, x: np.ndarray, delta: np.ndarray, h: float):
        """Residuals at ``x + h delta`` and ``x - h delta`` and the loss at
        ``x + delta`` from one stacked composition, bitwise as
        ``circuit.residual_vector`` and ``loss_of`` give them one by one."""
        thetas = np.repeat(self._theta[None], 3, axis=0)
        thetas[:, self.free] = (x + h * delta, x - h * delta, x + delta)
        diff = transfer_matrices(self.mixers, thetas) - self.target
        probes = diff[:2] / self.target.shape[0]
        ahead, behind = np.concatenate(
            [probes.real.reshape(2, -1), probes.imag.reshape(2, -1)], axis=1
        )
        trial = diff[2].ravel()
        return ahead, behind, float(np.vdot(trial, trial).real) / self._nsq


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))  # numpy.linalg.norm's arithmetic, without its overhead


def _solve(a, rhs):
    try:
        step = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return None
    return step if np.isfinite(step).all() else None


def _gain_damping(lam, current, new_loss, predicted):
    """Nielsen's damping after an accepted step: the gain ratio rho of the
    actual to the predicted decrease scales lambda by 1 - (2 rho - 1)^3,
    clipped to [1/3, 2]; a step the model predicts no decrease for counts as
    rho = 1.  An accelerated step is scored against the plain step's model."""
    rho = (current - new_loss) / predicted if predicted > 0 else 1.0
    return max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)


def _attempt_step(problem, x, current, r, jac, jtj, diag, g, lam, options):
    """Grow the damping until a loss-decreasing step is found or give up.

    At each damping value the geodesic-accelerated step is tried first
    (when enabled and its correction is not disproportionate), then the
    plain damped step; only if both fail does the damping grow.  The two
    curvature probes and the plain trial share one stacked evaluation, so
    only the accelerated trial is composed on its own.  Returns
    (x, loss, lam, step_norm, accepted), with the gain-ratio damping for
    the next iteration; on failure the incoming state comes back unchanged
    with the damping that exceeded the cap.
    """
    while True:
        damped = jtj.copy()
        damped.reshape(-1)[:: damped.shape[0] + 1] += lam * diag
        delta = _solve(damped, -g)
        if delta is not None:
            # the Gauss-Newton model's decrease of the loss for the plain step
            predicted = float(delta.dot(lam * diag * delta - g))
            if options.acceleration:
                h = _ACCEL_PROBE
                ahead, behind, plain_loss = problem.probes_and_trial(x, delta, h)
                fvv = (ahead - 2.0 * r + behind) / (h * h)
                acc = _solve(damped, -(jac.T @ fvv))
                if acc is not None and _norm(acc) <= 2.0 * _ACCEL_RATIO_LIMIT * _norm(delta):
                    step = delta + 0.5 * acc
                    trial = x + step
                    trial_loss = problem.loss_of(trial)
                    if trial_loss < current:
                        lam = _gain_damping(lam, current, trial_loss, predicted)
                        return trial, trial_loss, lam, _norm(step), True
            else:
                plain_loss = problem.loss_of(x + delta)
            if plain_loss < current:
                lam = _gain_damping(lam, current, plain_loss, predicted)
                return x + delta, plain_loss, lam, _norm(delta), True
        lam *= options.damping_factor
        if lam > options.damping_max:
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

    lam = options.damping_initial
    iterations = 0
    polishing = False
    polish_left = options.polish_iterations
    status = "maxiter"
    while iterations < options.max_iterations:
        r, jac = problem.residuals_jacobian(x)
        g = jac.T @ r
        if not polishing and float(np.abs(g).max()) < options.optimality_tolerance:
            status = "gtol"
            break
        jtj = jac.T @ jac
        diag = np.maximum(np.diagonal(jtj), 1e-30)
        if lam is None:
            lam = 1e-3 * float(diag.max())
        x, new_loss, lam, step, accepted = _attempt_step(
            problem, x, current, r, jac, jtj, diag, g, lam, options
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
        if abs(previous - current) <= options.function_tolerance * current:
            status = "ftol"
            break
        if step <= options.step_tolerance * (_norm(x) + options.step_tolerance):
            status = "xtol"
            break
    return _RunOutcome(x, current, iterations, status)


def _initial_free_values(
    program: PhaseProgram, init: InitStrategy, restart_seed: int
) -> np.ndarray:
    if isinstance(init, RandomUniform):
        grid = uniform_phases(program.layers, program.ports, restart_seed)
    elif isinstance(init, FromVector):
        base = np.asarray(init.phases, dtype=float).reshape(
            program.layers, program.ports
        )
        grid = jitter_phases(base, init.jitter_fraction, restart_seed)
    else:
        raise TypeError(f"unknown init strategy {init!r}")
    return grid[program.free_mask]


def fit(
    circuit: InterlacedCircuit,
    target,
    options: LmaOptions | None = None,
    init: InitStrategy | None = None,
    seed: int = 0,
) -> FitResult:
    """Best-of-restarts phase fit of the circuit to a target unitary.

    Up to ``options.restarts`` independent descents run from fresh seeded
    initializations; the loop stops early once the loss target is met.
    Frozen (faulty) phases are never modified.  The returned loss is
    recomputed from the composed transfer matrix, so it is consistent
    with ``loss(compose(...), target)`` by construction.
    """
    options = options if options is not None else LmaOptions()
    init = init if init is not None else RandomUniform()
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


def recalibrate(
    circuit: InterlacedCircuit,
    target,
    options: LmaOptions | None = None,
    attempts: int = 10,
    init: InitStrategy | None = None,
    seed: int = 0,
) -> FitResult:
    """Second optimization against (typically perturbed) mixers.

    Runs truncated descents (default cap 50 iterations) up to ``attempts``
    times with fresh perturbation-independent initializations, returning
    the first result below the loss target, else the best seen.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    options = options if options is not None else LmaOptions().truncated()
    return fit(
        circuit,
        target,
        dataclasses.replace(options, restarts=attempts),
        init=init,
        seed=seed,
    )
