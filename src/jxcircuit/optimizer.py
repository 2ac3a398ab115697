"""Levenberg-Marquardt fitting of circuit phases to target unitaries.

The damped normal equations ``(J'J + (lambda / N^2) I) delta = -J'r`` are
Marquardt's, since every free phase's diag(J'J) is 1 / N^2.  They are
formed from the circuit's prefix products alone (``circuit.normal_equations``:
the mixers are unitary, as ``InterlacedCircuit`` guarantees, so the coupling of two
phases is the squared modulus of the transfer matrix between their layers) and
solved per step, from one Cholesky factorization per damping value
(``numerics.SpdSolver``); a step is accepted only if it lowers the loss, in
which case ``lambda`` (first 1e-3, a first shift of 1e-3 / N^2) follows
Nielsen's gain-ratio update (H. B. Nielsen, 1999: it shrinks by up to 3x
when the loss falls as the Gauss-Newton model predicts, and grows by up to
2x when it falls far less); otherwise it grows by a factor of 2 and the
solve is retried (as it is when the damped matrix is not numerically
positive definite).

The restarts of every fit of a ``fit_targets`` call run as the lanes of
one descent (``_descend``), a stack of live lanes advanced together in
ticks, each lane on a copy of its own fit's mixers and against its own
fit's target (the fits share their frozen phases): a fit has at most
``_lane_cap`` lanes live (1 above the universality transition), and the
descent as many as ``_LANE_BYTES`` allows (``_lane_budget``).  A lane
stays in one slot of the stacked arrays from the tick it opens to the
tick it stops, and the next restart of some fit takes that slot in place.
One tick composes every live lane's point in one stacked sweep and takes
the losses, step lengths and predicted decreases as stacked dot products;
forms the normal equations of the lanes that start an iteration from that
sweep's prefix products, as stacked products; and gathers, factors and
solves the damped systems of the lanes that need a step, one LAPACK call each.
The accept, damping, polish and stop rules run in one scalar pass over the
lanes: the gain-ratio update must round as Python floats do, and on small
arrays a numpy call costs more than the whole pass does per lane.  Each
lane's numbers are bitwise what it would get alone, and no point is
composed twice: the normal equations at an accepted point read the
prefixes of the sweep that composed it.

Termination mirrors the usual trio of tolerances (function, step,
optimality) plus a hard loss target and an iteration cap.  A fit is one
``(circuit, target, seed, start)`` request: its restart 0 opens at the
start grid if one is given, every other restart at seeded uniform phases,
and its restarts count in restart order, up to the first that meets the
target, so ``fit_targets`` gives every fit what it gets alone.
Recalibration against perturbed mixers is a second ``fit_targets`` call
of a study's job, one fit per row on that row's perturbed circuit, with
``restarts=attempts`` and a truncated ``max_iterations``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (
    FitResult,
    InterlacedCircuit,
    PhaseProgram,
    loss,
    normal_equations,
    prefix_products,
)
from .numerics import SpdSolver, as_complex_matrix
from .sampling import derive_seed, uniform_phases

__all__ = ["LmaOptions", "fit", "fit_targets"]


#: stopping tolerances: relative loss change, relative step length, gradient entries
_FUNCTION_TOLERANCE = 1e-6
_STEP_TOLERANCE = 1e-6
_OPTIMALITY_TOLERANCE = 1e-10
#: first damping lambda, in units of diag(J'J); growth on rejection; give-up cap
_DAMPING_SCALE = 1e-3
_DAMPING_FACTOR = 2.0
_DAMPING_MAX = 1e10
#: extra steps after target_loss to reach the noise floor
_POLISH_ITERATIONS = 3
#: live lanes of a descent (see _lane_budget): as many as keep their
#: buffers within _LANE_BYTES
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


class _Problem:
    """Least-squares view of the phase fits of one phase program to a stack
    of targets (F, N, N), fit ``f`` on the (M+1, N, N) mixers ``mixers[f]``,
    in up to ``width`` slots.

    ``seat`` gives slots the targets of their fits and copies each slot's
    fit's mixers into an (M+1, width, N, N) buffer, so every slot holds
    mixers of its own.  ``losses`` composes one free vector per slot in one
    sweep, and ``normal_equations`` reads the prefix products that sweep
    kept, before the next composition overwrites them.  ``diagonal`` is
    each free phase's diag(J'J), 1 / N^2.  The phase grids, the slots'
    targets and mixers and the sweep buffer are allocated once and reused,
    so a problem must not be used from two threads at once (each descent
    owns its own).
    """

    def __init__(self, mixers: list[np.ndarray], program: PhaseProgram, targets: np.ndarray,
                 width: int):
        m, n = program.layers, program.ports
        self.mixers = mixers
        self.free = program.free_mask
        self.free_count = program.free_count
        self.diagonal = 1.0 / (n * n)
        self.targets = targets
        self._positions = np.flatnonzero(self.free)  # of the free phases in a flat grid
        self._grids = np.repeat(program.theta[None], width, axis=0)
        self._flat = self._grids.reshape(width, m * n)
        self._lane_targets = np.empty((width, n, n), dtype=np.complex128)
        self._lane_mixers = np.empty((m + 1, width, n, n), dtype=np.complex128)
        self._sweep = np.empty((m + 1, width, n, n), dtype=np.complex128)

    def seat(self, slots: list[int], fits: list[int]) -> None:
        """Give slot ``slots[i]`` the target and a copy of the mixers of fit
        ``fits[i]``."""
        self._lane_targets[slots] = self.targets[fits]
        for s, f in zip(slots, fits):
            self._lane_mixers[:, s] = self.mixers[f]

    def losses(self, xs: np.ndarray) -> np.ndarray:
        """The loss at each row of ``xs`` (the free values of the slot of
        that row) against its slot's target, from one stacked sweep straight
        into the slots."""
        count = len(xs)
        self._flat[:count, self._positions] = xs
        return loss(prefix_products(self._lane_mixers[:, :count], self._grids[:count],
                                    self._sweep[:, :count]), self._lane_targets[:count])

    def normal_equations(self, rows, gram: np.ndarray, jtj: np.ndarray) -> np.ndarray:
        """``circuit.normal_equations`` at the points that ``rows`` (a slice
        or slots) picks from the last ``losses``, as stacked products: G goes
        into the scratch ``gram`` and J'J into ``jtj``, and J'D is
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
    lam: float
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


def _descend(problem, queues, options: LmaOptions, width: int, depth: int):
    """Descents of several fits: ``queues`` holds each fit's start vectors,
    one per restart, and they are advanced together in ticks as up to
    ``width`` live lanes, at most ``depth`` of them per fit.  Returns each
    fit's stopped lanes in restart order, up to the first that meets the
    loss target, and each fit's share of the descent's time: every tick's
    time is split equally among the lanes it advanced.

    A lane keeps one slot of every stacked array (point ``x``, step
    ``delta``, gradient ``g``, J'J, and its target and mixers in
    ``problem``) from the tick it opens to the tick it stops.  Restarts open
    from one queue of tokens, ``depth`` per fit, fits in order: the free
    slots, in order, each take the next token's fit's next restart (its
    start as the point and a zero step, so every tick composes
    ``x + delta``), and a lane that stops hands its fit's token back.  The
    token of a fit with no restart left, or of one whose restart met the
    target, is dropped; and once one meets it, the fit's live lanes after
    that restart are dropped too.
    A slot that no restart may take gets a lane from past the live count,
    so the live lanes fill the first slots.

    A tick composes every live lane's point in one sweep (``problem.losses``,
    each lane on its fit's mixers and against its fit's target,
    ``problem.seat``) and, when a trial lowered some lane's loss, takes the
    predicted decreases, step lengths and point norms as stacked dot
    products.  One pass over the lanes accepts each trial that lowers the
    loss, or rejects it, and applies the damping, polish and stop rules.
    The lanes that open or start an iteration get their normal equations as
    stacked products (``problem.normal_equations``), and every lane that
    needs a step has its damped system (its damping times
    ``problem.diagonal`` added to the diagonal) factored and solved, one
    LAPACK call per lane, on the solver's gather of those lanes' slots; one
    whose matrix fails to factor grows its damping and is solved again,
    until it steps or passes the cap.  The normal equations pick slots by
    index only where some live lanes take no part.
    """
    goal, p, diagonal = options.target_loss, problem.free_count, problem.diagonal
    queues = [iter(starts) for starts in queues]
    outcomes: list[list[_Lane | None]] = [[] for _ in queues]
    cuts, seconds = [math.inf] * len(queues), [0.0] * len(queues)
    tokens = deque(f for f in range(len(queues)) for _ in range(depth))
    # the lanes' complex G and their J'J share one block: freeing it lifts
    # glibc's mmap threshold above the next descent's buffers, which then
    # reuse resident pages instead of faulting in fresh ones
    block = np.empty(3 * width * p * p)
    gram = block[:2 * width * p * p].view(np.complex128).reshape(width, p, p)
    jtj = block[2 * width * p * p:].reshape(width, p, p)
    solver = SpdSolver(p, width)
    x, delta, g, trials = np.zeros((4, width, p))
    lanes, stopped = [], []  # the lane in each live slot, the slots that stopped
    clock = time.perf_counter()
    while True:
        fresh: list[int] = []  # the slots whose lanes open on this tick
        if stopped or not lanes:  # record the stopped lanes and reopen their slots
            for s in stopped:
                lane = lanes[s]
                lane.x = x[s].copy()
                outcomes[lane.fit][lane.index] = lane
                tokens.append(lane.fit)
                if lane.loss < goal:
                    cuts[lane.fit] = min(cuts[lane.fit], lane.index)
            lanes = [lane if not lane.status and lane.index < cuts[lane.fit] else None
                     for lane in lanes] + [None] * (width - len(lanes))
            free = [s for s, lane in enumerate(lanes) if lane is None]
            while tokens and len(fresh) < len(free):
                f = tokens.popleft()
                start = next(queues[f], None) if cuts[f] == math.inf else None
                if start is None:  # the fit met the target or drained: drop its token
                    continue
                s = free[len(fresh)]
                fresh.append(s)
                lanes[s] = _Lane(f, len(outcomes[f]), math.nan, _DAMPING_SCALE)
                outcomes[f].append(None)
                x[s], delta[s], g[s] = start, 0.0, 0.0
            count = width - len(free) + len(fresh)
            holes = [s for s in free[len(fresh):] if s < count]  # no restart may take them
            # the live lanes past count fill exactly the holes, one each
            movers = [s for s in range(count, width) if lanes[s]]
            for a in (x, delta, g, jtj):
                a[holes] = a[movers]
            for hole, s in zip(holes, movers):
                lanes[hole] = lanes[s]
            del lanes[count:]
            problem.seat(fresh + holes, [lanes[s].fit for s in fresh + holes])
            if not lanes:
                break
        trial = np.add(x[:count], delta[:count], out=trials[:count])
        new = problem.losses(trial).tolist()
        # an opening lane's loss is NaN until its start is composed
        accepted = np.fromiter((s for s, lane in enumerate(lanes) if new[s] < lane.loss), np.intp)
        if accepted.size:
            mu = np.array([lane.lam for lane in lanes])[:, None] * diagonal
            predicted = np.vecdot(delta[:count], mu * delta[:count] - g[:count]).tolist()
            lengths = np.vecdot(delta[:count], delta[:count]).tolist()
            norms = np.vecdot(trial, trial).tolist()
        opening, begin = set(fresh), []
        for s, lane in enumerate(lanes):
            if s in opening:
                lane.loss = new[s]
                lane.status = "target" if new[s] < goal else "" if p else "no-free-parameters"
            elif new[s] < lane.loss:
                lane.accept(new[s], predicted[s], math.sqrt(lengths[s]),
                            math.sqrt(norms[s]), options)
            else:
                lane.reject()
                continue
            if not lane.status:
                begin.append(s)
        x[accepted] = trial[accepted]

        if begin:
            if len(begin) == count:  # every lane: J'J straight into its slots
                g[:count] = problem.normal_equations(slice(count), gram[:count], jtj[:count])
            else:
                equations = np.empty((len(begin), p, p))
                g[begin] = problem.normal_equations(begin, gram[:len(begin)], equations)
                jtj[begin] = equations
            small = np.maximum.reduce(np.abs(g[begin]), axis=1) < _OPTIMALITY_TOLERANCE
            for s, flat in zip(begin, small.tolist()):
                if flat and not lanes[s].polishing:
                    lanes[s].status = "gtol"

        pending = [s for s, lane in enumerate(lanes) if not lane.status]
        while pending:
            rows = np.array(pending)  # converted once, for the solver's gathers and the copy
            mu = np.array([lanes[s].lam for s in pending])[:, None] * diagonal
            delta[rows] = solved = solver.solve(jtj, rows, mu, g)
            finite = np.isfinite(solved).all(axis=1).tolist()
            if all(finite):
                break
            pending = [s for s, ok in zip(pending, finite) if not ok]
            for s in pending:
                lanes[s].reject()
            pending = [s for s in pending if not lanes[s].status]
        stopped = [s for s, lane in enumerate(lanes) if lane.status]
        now = time.perf_counter()
        share, clock = (now - clock) / count, now
        for lane in lanes:
            seconds[lane.fit] += share

    # every restart before a cut ran, and the one at it is the first to meet the target
    return [o if c == math.inf else o[:c + 1] for o, c in zip(outcomes, cuts)], seconds


def _lane_budget(program: PhaseProgram) -> int:
    """Most live lanes of one descent on ``program`` within ``_LANE_BYTES``: a
    lane's complex G, J'J and damped matrix take 32 P^2 bytes, and it is
    charged at least its sweep slot and its copy of its fit's mixers,
    32 (M+1) N^2 bytes (so P = 0 is bounded)."""
    p, m, n = program.free_count, program.layers, program.ports
    return max(1, _LANE_BYTES // (32 * max(p * p, (m + 1) * n * n)))


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
    return _lane_budget(program)


def _restart_starts(program: PhaseProgram, start: np.ndarray | None, seed: int, count: int):
    """The free values of a fit's ``count`` restarts, drawn as they open:
    restart 0 starts at the (M, N) grid ``start`` if one is given, and every
    other restart k at fresh i.i.d. U[0, 2 pi) phases seeded by
    ``derive_seed(seed, "lma-restart", k)``."""
    for k in range(count):
        grid = start if k == 0 and start is not None else uniform_phases(
            program.layers, program.ports, derive_seed(seed, "lma-restart", k))
        yield grid[program.free_mask]


def fit_targets(requests: Sequence[tuple], options: LmaOptions) -> list[FitResult]:
    """Best-of-restarts phase fits, one per ``(circuit, target, seed, start)``
    request: of the circuit to the target unitary, seeded by ``seed``.

    The circuits share N, M, the frozen mask and the frozen values; each may
    have its own mixers.  A fit runs up to ``options.restarts`` descents until
    one meets the loss target: restart 0 from ``start``, an (M, N) phase grid
    or None, and the others (all of them when ``start`` is None) from seeded
    uniform phases (``_restart_starts``).  All the fits' descents run
    as lanes of one ``_descend``, each on its fit's mixers and target, at
    most ``_lane_cap`` per fit and ``_lane_budget`` in all; a fit's outcomes
    count in restart order, so each result is what the fit gets alone.
    A circuit unlike the first (named by its position), a target not N x N
    or not finite, or a start grid of another shape or not finite raise
    ``ValueError`` before anything is composed.  Frozen phases are never
    modified.  A result is its fit's best lane, its loss from the descent's
    sweep (bitwise ``loss(transfer_matrix(mixers, theta), target)``); each
    ``seconds`` is the fit's share of the ticks, adding up to the wall time.
    """
    if not requests:
        return []
    program = requests[0][0].program
    m, n = program.layers, program.ports
    stack = np.empty((len(requests), n, n), dtype=np.complex128)
    queues = []
    for k, (circuit, target, seed, start) in enumerate(requests):
        frozen = circuit.program.fixed
        if not (np.array_equal(frozen, program.fixed)
                and np.array_equal(circuit.program.theta[frozen], program.theta[frozen])):
            raise ValueError(f"circuit {k} differs from circuit 0 in N, M, frozen mask "
                             "or frozen values")
        target = as_complex_matrix(target)
        if target.shape != (n, n):
            raise ValueError(f"target shape {target.shape} does not match the circuit's "
                             f"{(n, n)} transfer matrix")
        if not np.isfinite(target).all():
            raise ValueError("target has non-finite entries")
        if start is not None:
            start = np.asarray(start, dtype=float)
            if start.shape != (m, n):
                raise ValueError(f"start grid shape {start.shape} is not the circuit's "
                                 f"phase grid {(m, n)}")
            if not np.isfinite(start).all():
                raise ValueError("start phases contain non-finite values")
        stack[k] = target
        queues.append(_restart_starts(program, start, seed, options.restarts))
    depth = min(_lane_cap(program), options.restarts)
    width = min(_lane_budget(program), depth * len(stack))
    problem = _Problem([request[0].mixers for request in requests], program, stack, width)
    outcomes, seconds = _descend(problem, queues, options, width, depth)

    results = []
    for fit_outcomes, share in zip(outcomes, seconds):
        best = min(fit_outcomes, key=lambda outcome: outcome.loss)
        phases = program.with_free_values(best.x)
        if not np.array_equal(phases.theta[program.fixed], program.theta[program.fixed]):
            raise AssertionError("optimizer modified frozen phase entries")
        results.append(FitResult(
            phases=phases,
            loss=best.loss,
            iterations=best.iterations,
            restarts_used=len(fit_outcomes),
            converged=best.loss < options.target_loss,
            status=best.status,
            total_iterations=sum(outcome.iterations for outcome in fit_outcomes),
            rejected_trials=sum(outcome.rejected for outcome in fit_outcomes),
            seconds=share,
        ))
    return results


def fit(circuit: InterlacedCircuit, target, options: LmaOptions, *, seed: int) -> FitResult:
    """Best-of-restarts phase fit of the circuit to one target unitary from
    random starts: ``fit_targets`` with that one request."""
    return fit_targets([(circuit, target, seed, None)], options)[0]
