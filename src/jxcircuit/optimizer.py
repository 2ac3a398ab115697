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

Each damping trial makes one composition pass, of its trial point alone,
and the normal equations at an accepted point read the prefix products of
that pass, so no point is composed twice.  The descent is a generator that
yields each composition it needs and resumes with the result; one driver
(``_drive``) advances several descents side by side and composes all their
requests in one stacked sweep per tick.

Termination mirrors the usual trio of tolerances (function, step,
optimality) plus a hard loss target and an iteration cap; ``fit`` wraps
the descent in independent seeded restarts, run in batches of such lanes
whose outcomes count in restart order.  Recalibration against perturbed
mixers is a ``fit`` with ``restarts=attempts`` and a truncated
``max_iterations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (
    FitResult,
    InterlacedCircuit,
    PhaseProgram,
    loss,
    normal_equations,
    prefix_products,
    transfer_matrix,
)
from .numerics import SpdSolver, as_complex_matrix
from .sampling import derive_seed, jitter_phases, uniform_phases

__all__ = ["LmaOptions", "FromVector", "fit"]


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
#: restart lanes (below the transition, see _lane_cap): a fit's first batch
#: runs one descent, each next batch this many times as many side by side, up
#: to _MAX_WIDTH and to as many as keep their J'J and damped-solver (P, P)
#: buffers within _LANE_BYTES
_WIDTH_GROWTH = 4
_MAX_WIDTH = 64
_LANE_BYTES = 4 << 20


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


class _Point(NamedTuple):
    """An evaluated point: free values, loss, and the prefix products of the
    composition that gave the loss (a view into a lane's sweep buffer,
    valid until the lane's next composition)."""

    x: np.ndarray
    loss: float
    prefixes: np.ndarray


class _Problem:
    """Least-squares view of one phase fit: free vector -> loss/residuals.

    An instance is one lane of the fit: a descent (``_minimize``) runs on
    it, asking it for compositions.  It keeps the phase grid of its
    requests, the sweep buffer its compositions are written into, J'J and
    the damped solver, all allocated once, so a lane must not be evaluated
    from two threads at once (each fit owns its own).  A composition
    overwrites the prefixes of the lane's previous point, so the normal
    equations at a point are read before its lane composes again.  ``lanes``
    makes more lanes of the same fit, which share the complex Gram buffer
    (scratch of ``normal_equations``), and the first lane answers the
    requests of all (``compose``).  The first lane's G and J'J share one
    block: freeing it lifts glibc's mmap threshold above the next fit's
    buffers, which then reuse resident pages.
    """

    def __init__(self, mixers: np.ndarray, program: PhaseProgram, target: np.ndarray,
                 gram: np.ndarray | None = None):
        self.mixers = mixers
        self.program = program
        self.free = program.free_mask
        self.target = target
        p, m, n = program.free_count, program.layers, program.ports
        self.solver = SpdSolver(p)
        if gram is None:
            block = np.empty(3 * p * p)
            gram = block[:2 * p * p].view(np.complex128).reshape(p, p)
            self._jtj = block[2 * p * p:].reshape(p, p)
        else:
            self._jtj = np.empty((p, p))
        self._gram = gram
        self._grid = program.theta[None].copy()
        self._single = np.empty((m + 1, 1, n, n), dtype=np.complex128)
        self._nsq = n * n
        self._others = []  # not this lane itself: a cycle would outlive the fit
        self._stacked = None

    def lanes(self, count: int) -> list["_Problem"]:
        """``count`` lanes of this fit, this one first, made on first use."""
        while len(self._others) < count - 1:
            self._others.append(_Problem(self.mixers, self.program, self.target, self._gram))
        return [self] + self._others[:count - 1]

    def compose(self, requests: list) -> list:
        """Answer composition requests ``(grids, buffer)`` in one sweep, each
        with ``(U stack, prefixes)`` in its own buffer: one request is swept
        straight into its buffer; several are swept together in a stacked
        buffer, kept for the fit and grown as needed, and copied out."""
        if len(requests) == 1:
            grids, out = requests[0]
            return [(prefix_products(self.mixers, grids, out), out)]
        grids = np.concatenate([grids for grids, _ in requests])
        if self._stacked is None or self._stacked.shape[1] < len(grids):
            self._stacked = np.empty((len(self._single), len(grids)) + self.target.shape,
                                     dtype=np.complex128)
        stacked = self._stacked[:, :len(grids)]
        prefix_products(self.mixers, grids, stacked)
        answers, end = [], 0
        for grids, out in requests:
            start, end = end, end + len(grids)
            np.copyto(out, stacked[:, start:end])
            answers.append((out[-1], out))
        return answers

    def loss_of(self, x: np.ndarray):
        """The evaluated point ``x``, from one single-grid composition (a
        generator, like ``_minimize``)."""
        self._grid[0, self.free] = x
        u, prefixes = yield self._grid, self._single
        diff = (u[0] - self.target).ravel()
        return _Point(x, float(np.vdot(diff, diff).real) / self._nsq, prefixes[:, 0])

    def normal_equations(self, point: _Point):
        """``circuit.normal_equations`` at an evaluated point, from the
        prefixes of its composition, written into this lane's buffers."""
        return normal_equations(point.prefixes, self.free, self.target, self._gram, self._jtj)


def _drive(problem, descents: list, final=lambda value: False) -> list:
    """Run generators side by side and return their values in order.

    Each generator yields a composition request and resumes with its
    answer.  Each tick takes one request from every live generator, in
    order, and ``problem.compose`` answers them all in one sweep.  When a
    generator's value is ``final``, the later ones are dropped and give None.
    """
    results = [None] * len(descents)
    live = dict(enumerate(descents))
    answers = dict.fromkeys(live)
    while live:
        requests = {}
        for i in list(live):
            if i not in live:
                continue
            try:
                requests[i] = live[i].send(answers[i])
            except StopIteration as stop:
                results[i] = stop.value
                del live[i]
                if final(stop.value):
                    live = {j: descent for j, descent in live.items() if j < i}
        if requests:
            answers = dict(zip(requests, problem.compose(list(requests.values()))))
    return results


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))  # numpy.linalg.norm's arithmetic, without its overhead


def _gain_damping(lam, current, new_loss, predicted):
    """Nielsen's damping after an accepted step: the gain ratio rho of the
    actual to the predicted decrease scales lambda by 1 - (2 rho - 1)^3,
    clipped to [1/3, 2]; a step the model predicts no decrease for counts as
    rho = 1."""
    rho = (current - new_loss) / predicted if predicted > 0 else 1.0
    return max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)


@dataclass
class _Descent:
    """State of one descent, and its outcome once it returns: the point
    reached, its damping, accepted steps, rejected damping trials, status."""

    point: _Point
    lam: float | None = None
    iterations: int = 0
    rejected: int = 0
    status: str = "maxiter"


def _attempt_step(problem, descent: _Descent, equations, diag):
    """Grow the damping until a loss-decreasing step is found or give up (a
    generator, like ``_minimize``).

    At each damping value the damped matrix is factored once, the damped
    step solved from it and its trial point composed (``loss_of``); if the
    factorization fails or the loss does not fall, the damping grows.
    ``equations`` is what ``normal_equations`` returned at the descent's
    point.  On success the descent moves to the evaluated trial point, with
    the gain-ratio damping for the next iteration, and the step's length is
    returned; on failure it keeps its point, with the damping that exceeded
    the cap, and None is returned.
    """
    jtj, g = equations
    solver = problem.solver
    current = descent.point.loss
    while True:
        lam = descent.lam
        delta = solver.solve(-g) if solver.factor(jtj, lam * diag) else None
        if delta is not None:
            trial = yield from problem.loss_of(descent.point.x + delta)
            if trial.loss < current:
                # the Gauss-Newton model's decrease of the loss for the step
                predicted = float(delta.dot(lam * diag * delta - g))
                descent.lam = _gain_damping(lam, current, trial.loss, predicted)
                descent.point = trial
                return _norm(delta)
        descent.rejected += 1
        descent.lam = lam * _DAMPING_FACTOR
        if not descent.lam <= _DAMPING_MAX:  # a NaN damping gives up too
            return None


def _minimize(problem, x0: np.ndarray, options: LmaOptions):
    """One descent from ``x0``, as a generator: it yields composition
    requests, resumes with their answers (see ``_drive``) and returns the
    final ``_Descent``."""
    descent = _Descent((yield from problem.loss_of(x0)))
    if descent.point.loss < options.target_loss:
        descent.status = "target"
        return descent
    if x0.size == 0:
        descent.status = "no-free-parameters"
        return descent

    polishing = False
    polish_left = _POLISH_ITERATIONS
    while descent.iterations < options.max_iterations:
        equations = problem.normal_equations(descent.point)
        jtj, g = equations
        if not polishing and float(np.abs(g).max()) < _OPTIMALITY_TOLERANCE:
            descent.status = "gtol"
            break
        diag = np.maximum(np.diagonal(jtj), 1e-30)
        if descent.lam is None:
            descent.lam = _DAMPING_SCALE * float(diag.max())
        previous = descent.point.loss
        step = yield from _attempt_step(problem, descent, equations, diag)
        if step is None:
            descent.status = "target" if polishing else "stalled"
            break
        current = descent.point.loss
        descent.iterations += 1
        if polishing:
            polish_left -= 1
            if polish_left <= 0 or current > 0.1 * previous:
                descent.status = "target"
                break
            continue
        if current < options.target_loss:
            if polish_left <= 0:
                descent.status = "target"
                break
            polishing = True
            continue
        if abs(previous - current) <= _FUNCTION_TOLERANCE * current:
            descent.status = "ftol"
            break
        if step <= _STEP_TOLERANCE * (_norm(descent.point.x) + _STEP_TOLERANCE):
            descent.status = "xtol"
            break
    return descent


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


def _lane_cap(program: PhaseProgram) -> int:
    """Most restarts of a fit on ``program`` to run side by side.

    A uniform shift of a layer with no frozen phase moves U only by a global
    phase, so such layers add one direction between them, and the free
    phases span at most ``P - (layers fully free - 1)`` directions.  With
    fewer than U(N)'s N^2 (the paper's transition, M <= N, or faults
    clustered in few layers) no descent fits exactly, every restart runs,
    and lanes only save.  Above it, descents that a converged earlier
    restart makes moot would run beside it, so the fit stays serial.
    """
    p = program.free_count
    redundant = max(int(program.free_mask.all(axis=1).sum()) - 1, 0)
    if p - redundant >= program.ports ** 2:
        return 1
    return max(1, min(_MAX_WIDTH, _LANE_BYTES // max(16 * p * p, 1)))


def fit(
    circuit: InterlacedCircuit,
    target,
    options: LmaOptions | None = None,
    init: FromVector | None = None,
    seed: int = 0,
) -> FitResult:
    """Best-of-restarts phase fit of the circuit to a target unitary.

    Up to ``options.restarts`` independent descents run from fresh seeded
    initializations (uniform phases, or ``init`` jittered); the fit stops
    early once the loss target is met.  Below the universality transition
    (``_lane_cap``) the descents run in batches of lanes, side by side: the
    first batch holds one, each next one ``_WIDTH_GROWTH`` times as many, up
    to ``_MAX_WIDTH`` and to what ``_LANE_BYTES`` holds.  Their outcomes
    count in restart order, up to the first that meets the target, so the
    result is the serial loop's at any width.
    Frozen (faulty) phases are never modified.  The returned loss is
    recomputed from the composed transfer matrix, so it is consistent
    with ``loss(compose(...), target)`` by construction.
    """
    options = options if options is not None else LmaOptions()
    target = as_complex_matrix(target)
    program = circuit.program
    mixers = circuit.mixer_stack()
    problem = _Problem(mixers, program, target)
    cap = _lane_cap(program)

    def reached(descent):
        return descent.point.loss < options.target_loss

    outcomes: list[_Descent] = []
    width = 1
    while len(outcomes) < options.restarts:
        batch = range(len(outcomes), min(len(outcomes) + width, options.restarts))
        descents = [
            _minimize(lane, _initial_free_values(
                program, init, derive_seed(seed, "lma-restart", k)), options)
            for lane, k in zip(problem.lanes(len(batch)), batch)
        ]
        for outcome in _drive(problem, descents, reached):
            outcomes.append(outcome)
            if reached(outcome):
                break
        if reached(outcomes[-1]):
            break
        width = min(width * _WIDTH_GROWTH, cap)

    best = min(outcomes, key=lambda descent: descent.point.loss)
    phases = program.with_free_values(best.point.x)
    final_loss = loss(transfer_matrix(mixers, phases.theta), target)
    if not np.array_equal(phases.theta[program.fixed], program.theta[program.fixed]):
        raise AssertionError("optimizer modified frozen phase entries")
    return FitResult(
        phases=phases,
        loss=final_loss,
        iterations=best.iterations,
        restarts_used=len(outcomes),
        converged=final_loss < options.target_loss,
        seed=seed,
        status=best.status,
        total_iterations=sum(descent.iterations for descent in outcomes),
        rejected_trials=sum(descent.rejected for descent in outcomes),
    )
