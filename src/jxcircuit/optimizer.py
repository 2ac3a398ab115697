"""Levenberg-Marquardt fitting of circuit phases to target unitaries.

The damped normal equations ``(J'J + lambda diag(J'J)) delta = -J'r`` are
formed from the circuit's prefix products alone (``circuit.normal_equations``:
the mixers are unitary, as ``InterlacedCircuit`` guarantees, so the coupling of two
phases is the squared modulus of the transfer matrix between their layers) and
solved per step, from one Cholesky factorization per damping value
(``numerics.SpdSolver``); a step is accepted only if it lowers the loss, in
which case ``lambda`` follows Nielsen's gain-ratio update (H. B. Nielsen,
1999: it shrinks by up to 3x when the loss falls as the Gauss-Newton model
predicts, and grows by up to 2x when it falls far less); otherwise it grows by
a factor of 2 and the solve is retried (as it is when the damped matrix is not
numerically positive definite).

The restarts of every fit of one circuit run as the lanes of one descent
(``_descend``), a stack of live lanes advanced together in ticks, each
lane against its own fit's target: a fit has at most ``_lane_cap`` lanes
live (1 above the universality transition, up to 64 below it), the
descent at most as many as ``_MAX_WIDTH`` and ``_LANE_BYTES`` allow, and
a stopped lane's slot goes to the next restart of some fit.  One tick
composes every live lane's point in one stacked sweep and takes the
losses, step lengths and predicted decreases as stacked dot products;
forms the normal equations of the lanes that start an iteration from that
sweep's prefix products, as stacked products; and factors and solves the
damped systems of every lane that needs a step, one LAPACK call per lane.
The accept, damping, polish and stop rules run in one scalar pass over the
lanes: the gain-ratio update must round as Python floats do, and on small
arrays a numpy call costs more than the whole pass does per lane.  Each
lane's numbers are bitwise what it would get alone, and no point is
composed twice: the normal equations at an accepted point read the
prefixes of the sweep that composed it.

Termination mirrors the usual trio of tolerances (function, step,
optimality) plus a hard loss target and an iteration cap; each fit's
seeded restarts count in restart order, up to the first that meets the
target, so ``fit_targets`` gives every fit what ``fit`` gives it alone.
Recalibration against perturbed mixers is a ``fit`` with
``restarts=attempts`` and a truncated ``max_iterations``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice

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

__all__ = ["LmaOptions", "FromVector", "fit", "fit_targets"]


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
#: live lanes of a descent (see _lane_budget): at most _MAX_WIDTH, and as
#: many as keep their (P, P) buffers within _LANE_BYTES
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


class _Problem:
    """Least-squares view of the phase fits of one circuit to a stack of
    targets (F, N, N), for up to ``width`` lanes.

    ``seat`` gives each lane its fit's target.  ``losses`` composes one
    free vector per lane in one sweep, and ``normal_equations`` reads the
    prefix products that sweep kept, so the equations at a point are read
    before the next composition overwrites them.  The phase grids, the
    lanes' targets and the sweep buffer have ``width`` slots, allocated
    once and reused, so a problem must not be used from two threads at
    once (each descent owns its own).
    """

    def __init__(self, mixers: np.ndarray, program: PhaseProgram, targets: np.ndarray,
                 width: int):
        m, n = program.layers, program.ports
        self.mixers = mixers
        self.free = program.free_mask
        self.free_count = program.free_count
        self.targets = targets
        self._positions = np.flatnonzero(self.free)  # of the free phases in a flat grid
        self._grids = np.repeat(program.theta[None], width, axis=0)
        self._flat = self._grids.reshape(width, m * n)
        self._lane_targets = np.empty((width, n, n), dtype=np.complex128)
        self._sweep = np.empty((m + 1, width, n, n), dtype=np.complex128)

    def seat(self, fits: list[int]) -> None:
        """Give lane ``l`` the target of fit ``fits[l]``."""
        self._lane_targets[:len(fits)] = self.targets[fits]

    def losses(self, xs: np.ndarray) -> np.ndarray:
        """The loss at each row of ``xs`` (the free values of one lane)
        against its lane's target, from one stacked sweep straight into the
        lanes' slots."""
        count = len(xs)
        self._flat[:count, self._positions] = xs
        u = prefix_products(self.mixers, self._grids[:count], self._sweep[:, :count])
        diff = (u - self._lane_targets[:count]).reshape(count, -1)
        # per row the BLAS dot of np.vdot, so each loss is bitwise a lone lane's
        return np.vecdot(diff, diff).real / diff.shape[1]

    def normal_equations(self, rows, gram: np.ndarray, jtj: np.ndarray) -> np.ndarray:
        """``circuit.normal_equations`` at the points that ``rows`` (a slice
        or positions) picks from the last ``losses``, as stacked products:
        G goes into the scratch ``gram`` and J'J into ``jtj``, and J'D is
        returned."""
        return normal_equations(self._sweep[:, rows], self.free, self._lane_targets[rows],
                                gram, jtj)[1]


def _gain_damping(lam, current, new_loss, predicted):
    """Nielsen's damping after an accepted step: the gain ratio rho of the
    actual to the predicted decrease scales lambda by 1 - (2 rho - 1)^3,
    clipped to [1/3, 2]; a step the model predicts no decrease for counts as
    rho = 1.  Python floats: numpy's vectorized power may round the cube
    differently."""
    rho = (current - new_loss) / predicted if predicted > 0 else 1.0
    return max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)


@dataclass(slots=True)
class _Lane:
    """The scalars of one descent: its fit and restart position, the
    loss at its point, damping, accepted steps, rejected damping trials, the
    polish phase, and why it stopped (empty while it runs).  The point
    itself lives in the stacked arrays of ``_descend``, and in ``x`` once
    the lane stops."""

    fit: int
    index: int
    loss: float
    lam: float = 0.0
    iterations: int = 0
    rejected: int = 0
    polishing: bool = False
    polish_left: int = _POLISH_ITERATIONS
    status: str = ""
    x: np.ndarray | None = None

    def reject(self) -> None:
        """No step at this damping: grow it, and stop past the cap (a NaN
        damping stops too)."""
        self.rejected += 1
        self.lam *= _DAMPING_FACTOR
        if not self.lam <= _DAMPING_MAX:
            self.status = "target" if self.polishing else "stalled"

    def accept(self, new_loss: float, predicted: float, step: float, norm: float,
               options: LmaOptions) -> None:
        """Move to the trial point (its loss ``new_loss``, the model's
        predicted decrease, the step's length and the new point's norm),
        then apply the polish and stop rules."""
        previous = self.loss
        self.lam = _gain_damping(self.lam, previous, new_loss, predicted)
        self.loss = new_loss
        self.iterations += 1
        if self.polishing:
            self.polish_left -= 1
            if self.polish_left <= 0 or new_loss > 0.1 * previous:
                self.status = "target"
        elif new_loss < options.target_loss:
            self.polishing = True
        elif abs(previous - new_loss) <= _FUNCTION_TOLERANCE * new_loss:
            self.status = "ftol"
        elif step <= _STEP_TOLERANCE * (norm + _STEP_TOLERANCE):
            self.status = "xtol"
        if not self.status and self.iterations >= options.max_iterations:
            self.status = "maxiter"


def _rows(positions: list, count: int):
    """Index of ``positions`` among ``count`` lanes: a slice when it is all
    of them, so that indexing makes views, not copies."""
    return slice(None, count) if len(positions) == count else np.array(positions, dtype=int)


def _descend(problem, queues, options: LmaOptions, width: int, depth: int):
    """Descents of several fits: ``queues`` holds each fit's start vectors,
    one per restart, and they are advanced together in ticks as up to
    ``width`` live lanes, at most ``depth`` of them per fit.  Returns each
    fit's stopped lanes in restart order, up to the first that meets the
    loss target, and each fit's share of the descent's time: every tick's
    time is split equally among the lanes it advanced.

    Each fit's restarts open in order: on the first tick as many as fit,
    fits in order, then each in the slot of a lane that stopped, its start
    composed in the next tick's sweep; once one meets the target, no later
    restart of its fit opens and its fit's live lanes after it are dropped.
    A tick composes every live lane's point in one sweep (``problem.losses``,
    each lane against its fit's target, ``problem.seat``) and, when a trial
    lowered some lane's loss, takes the predicted decreases, step lengths
    and point norms as stacked dot products.  One pass over the lanes
    accepts each trial that lowers the loss, or rejects it, and applies the
    damping, polish and stop rules.  The lanes that open or start an
    iteration get their normal equations as stacked products
    (``problem.normal_equations``), and every lane that needs a step has its
    damped system factored and solved, one LAPACK call per lane; one whose
    matrix fails to factor grows its damping and is solved again, until it
    steps or passes the cap.  Live lanes hold the first positions of every
    stacked array; the solver and the G/J'J block have ``width`` slots.
    """
    goal, p = options.target_loss, problem.free_count
    queues = [enumerate(starts) for starts in queues]
    outcomes: list[list[_Lane | None]] = [[] for _ in queues]
    cuts, seconds = [math.inf] * len(queues), [0.0] * len(queues)
    waiting = list(range(len(queues)))  # the fits that may open another restart
    # the lanes' complex G and their J'J share one block: freeing it lifts
    # glibc's mmap threshold above the next descent's buffers, which then
    # reuse resident pages instead of faulting in fresh ones
    block = np.empty(3 * width * p * p)
    gram = block[:2 * width * p * p].view(np.complex128).reshape(width, p, p)
    jtj = block[2 * width * p * p:].reshape(width, p, p)
    solver = SpdSolver(p, width)
    x = delta = g = shift = np.empty((0, p))
    lanes: list[_Lane] = []
    stopped, fresh = [], []
    clock = time.perf_counter()
    while True:
        if stopped or not lanes:  # record the stopped lanes and refill their slots
            for i in stopped:
                lane = lanes[i]
                lane.x = x[i].copy()
                outcomes[lane.fit][lane.index] = lane
                if lane.loss < goal:
                    cuts[lane.fit] = min(cuts[lane.fit], lane.index)
            keep = [i for i, lane in enumerate(lanes)
                    if not lane.status and lane.index < cuts[lane.fit]]
            live = [0] * len(queues)
            for i in keep:
                live[lanes[i].fit] += 1
            room, still = width - len(keep), []
            for f in waiting:
                if cuts[f] < math.inf:
                    continue
                take = min(room, depth - live[f])
                opened = list(islice(queues[f], take)) if take else []
                fresh += [(f, k, start) for k, start in opened]
                outcomes[f] += [None] * len(opened)
                room -= len(opened)
                if len(opened) == take:  # a shorter batch drained the queue
                    still.append(f)
            waiting = still
            if not keep and not fresh:
                break
            admitted, zeros = [start for *_, start in fresh], np.zeros((len(fresh), p))
            trial = np.vstack([x[keep] + delta[keep], *admitted])
            x = np.vstack([x[keep], *admitted])
            delta, g, shift = (np.vstack([a[keep], zeros]) for a in (delta, g, shift))
            jtj[:len(keep)] = jtj[keep]
            lanes, count = [lanes[i] for i in keep], len(x)
            problem.seat([lane.fit for lane in lanes] + [f for f, *_ in fresh])
        else:
            trial = x + delta
        new = problem.losses(trial).tolist()
        accepted = [i for i, lane in enumerate(lanes) if new[i] < lane.loss]
        if accepted:
            # the Gauss-Newton model's decrease of the loss for each step
            predicted = np.vecdot(delta, shift * delta - g).tolist()
            steps = np.vecdot(delta, delta).tolist()
            norms = np.vecdot(trial, trial).tolist()
        for i, lane in enumerate(lanes):
            if new[i] < lane.loss:
                lane.accept(new[i], predicted[i], math.sqrt(steps[i]),
                            math.sqrt(norms[i]), options)
            else:
                lane.reject()
        if len(accepted) == len(lanes):  # the admitted lanes' trials are their starts
            x = trial
        elif accepted:
            x[accepted] = trial[accepted]
        begin = [i for i in accepted if not lanes[i].status]
        opening = len(begin)  # begin[opening:] open on this tick
        if fresh:
            for i, (f, k, _) in enumerate(fresh, len(lanes)):
                lanes.append(_Lane(f, k, new[i]))
                if new[i] < goal:
                    lanes[i].status = "target"
                elif p == 0:
                    lanes[i].status = "no-free-parameters"
                else:
                    begin.append(i)
            fresh = []

        if begin:
            rows = _rows(begin, count)
            if isinstance(rows, slice):  # every lane: J'J straight into its slots
                g = problem.normal_equations(rows, gram[rows], jtj[rows])
            else:
                equations = np.empty((len(begin), p, p))
                g[rows] = problem.normal_equations(rows, gram[:len(begin)], equations)
                jtj[rows] = equations
            if opening < len(begin):  # first damping: a multiple of the largest diag J'J
                diagonals = np.maximum(jtj.diagonal(0, 1, 2)[begin[opening:]], SpdSolver.floor)
                scales = _DAMPING_SCALE * np.maximum.reduce(diagonals, axis=1)
                for i, scale in zip(begin[opening:], scales.tolist()):
                    lanes[i].lam = scale
            small = np.maximum.reduce(np.abs(g[rows]), axis=1) < _OPTIMALITY_TOLERANCE
            for i, flat in zip(begin, small.tolist()):
                if flat and not lanes[i].polishing:
                    lanes[i].status = "gtol"

        pending = [i for i, lane in enumerate(lanes) if not lane.status]
        while pending:
            rows = _rows(pending, count)
            lam = np.array([[lanes[i].lam] for i in pending])
            solved, shift[rows] = solver.solve(jtj[rows], lam, g[rows])
            delta[rows] = solved
            # a sum is finite only if every term is (an overflowing one falls
            # through to the test by rows)
            if math.isfinite(np.add.reduce(solved, axis=None)):
                break
            finite = np.isfinite(solved).all(axis=1).tolist()
            pending = [i for i, ok in zip(pending, finite) if not ok]
            for i in pending:
                lanes[i].reject()
            pending = [i for i in pending if not lanes[i].status]
        stopped = [i for i, lane in enumerate(lanes) if lane.status]
        now = time.perf_counter()
        share, clock = (now - clock) / count, now
        for lane in lanes:
            seconds[lane.fit] += share

    for fit_outcomes in outcomes:
        for k, outcome in enumerate(fit_outcomes):
            if outcome.loss < goal:
                del fit_outcomes[k + 1:]
                break
    return outcomes, seconds


def _initial_free_values(
    program: PhaseProgram, init: FromVector | None, restart_seed: int
) -> np.ndarray:
    """Start of one restart: fresh i.i.d. U[0, 2 pi) phases when ``init`` is
    None, else ``init``'s grid (of a shape ``fit_targets`` checked) jittered
    by its fraction."""
    if init is None:
        grid = uniform_phases(program.layers, program.ports, restart_seed)
    else:
        base = init.phases.reshape(program.layers, program.ports)
        grid = jitter_phases(base, init.jitter_fraction, restart_seed)
    return grid[program.free_mask]


def _lane_budget(p: int) -> int:
    """Most live lanes of one descent over ``p`` free phases: each lane keeps
    its own complex G, J'J and damped matrix, 32 P^2 bytes, and the live
    lanes share ``_LANE_BYTES``; never more than ``_MAX_WIDTH``."""
    return max(1, min(_MAX_WIDTH, _LANE_BYTES // max(32 * p * p, 1)))


def _lane_cap(program: PhaseProgram) -> int:
    """Most restarts of a fit on ``program`` to run side by side.

    A uniform shift of a layer with no frozen phase moves U only by a global
    phase, so such layers add one direction between them, and the free
    phases span at most ``P - (layers fully free - 1)`` directions.  With
    fewer than U(N)'s N^2 (the paper's transition, M <= N, or faults
    clustered in few layers) no descent fits exactly, every restart runs,
    and lanes only save.  Above it, descents that a converged earlier
    restart makes moot would run beside it, so the fit runs one lane at a
    time.
    """
    p = program.free_count
    redundant = max(int(program.free_mask.all(axis=1).sum()) - 1, 0)
    if p - redundant >= program.ports ** 2:
        return 1
    return _lane_budget(p)


def _restart_starts(program: PhaseProgram, init: FromVector | None, seed: int, count: int):
    """The start vectors of a fit's ``count`` restarts, drawn as they open."""
    for k in range(count):
        yield _initial_free_values(program, init, derive_seed(seed, "lma-restart", k))


def fit_targets(
    circuit: InterlacedCircuit,
    targets,
    options: LmaOptions,
    seeds,
    init: FromVector | None = None,
) -> list[FitResult]:
    """Best-of-restarts phase fits of the circuit to each target unitary of
    ``targets``, fit ``i`` seeded by ``seeds[i]``.

    Each fit runs up to ``options.restarts`` independent descents from fresh
    seeded initializations (uniform phases, or ``init`` jittered: its grid is
    the circuit's (M, N) phase grid or that grid flattened layer-major) and
    stops early once the loss target is met.  The descents of all the fits
    run as the lanes of one ``_descend``: each fit has as many live at once
    as ``_lane_cap`` allows (one above the universality transition), the
    descent as many as ``_lane_budget`` allows, and each stopped lane's slot
    goes to the next restart.  A fit's outcomes count in restart order, up
    to the first that meets the target, so each result is the serial loop's
    at any width and alongside any other fits.  A target that is not N x N
    or not finite, a seed count that differs from the target count, or a
    start grid of another shape, raises ``ValueError`` before anything is
    composed.  Frozen (faulty) phases are never modified.  Each returned
    loss is recomputed from the composed transfer matrix, so it is
    consistent with ``loss(compose(...), target)`` by construction.  Each
    result's ``seconds`` is its fit's share of the descent's ticks plus its
    own final composition, so the results' seconds add up to the call's
    wall time.
    """
    program = circuit.program
    m, n = program.layers, program.ports
    stack = np.empty((len(targets), n, n), dtype=np.complex128)
    for i, target in enumerate(targets):
        target = as_complex_matrix(target)
        if target.shape != (n, n):
            raise ValueError(f"target shape {target.shape} does not match the circuit's "
                             f"{(n, n)} transfer matrix")
        if not np.isfinite(target).all():
            raise ValueError("target has non-finite entries")
        stack[i] = target
    if len(seeds) != len(stack):
        raise ValueError(f"{len(seeds)} seeds for {len(stack)} targets")
    if init is not None and init.phases.shape not in ((m, n), (m * n,)):
        raise ValueError(f"start grid shape {init.phases.shape} is neither the circuit's "
                         f"phase grid {(m, n)} nor its flat form {(m * n,)}")
    mixers = circuit.mixers
    depth = min(_lane_cap(program), options.restarts)
    width = min(_lane_budget(program.free_count), depth * len(stack))
    queues = [_restart_starts(program, init, seed, options.restarts) for seed in seeds]
    outcomes, seconds = _descend(_Problem(mixers, program, stack, width), queues, options,
                                 width, depth)

    results = []
    for target, fit_outcomes, share in zip(stack, outcomes, seconds):
        t0 = time.perf_counter()
        best = min(fit_outcomes, key=lambda outcome: outcome.loss)
        phases = program.with_free_values(best.x)
        final_loss = loss(transfer_matrix(mixers, phases.theta), target)
        if not np.array_equal(phases.theta[program.fixed], program.theta[program.fixed]):
            raise AssertionError("optimizer modified frozen phase entries")
        results.append(FitResult(
            phases=phases,
            loss=final_loss,
            iterations=best.iterations,
            restarts_used=len(fit_outcomes),
            converged=final_loss < options.target_loss,
            status=best.status,
            total_iterations=sum(outcome.iterations for outcome in fit_outcomes),
            rejected_trials=sum(outcome.rejected for outcome in fit_outcomes),
            seconds=share + time.perf_counter() - t0,
        ))
    return results


def fit(
    circuit: InterlacedCircuit,
    target,
    options: LmaOptions,
    init: FromVector | None = None,
    *,
    seed: int,
) -> FitResult:
    """Best-of-restarts phase fit of the circuit to one target unitary:
    ``fit_targets`` with that one target and seed."""
    return fit_targets(circuit, [target], options, [seed], init)[0]
