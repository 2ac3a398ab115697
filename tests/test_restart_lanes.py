"""Restart lanes and compose-once: what a fit gets does not depend on how
many of its descents run side by side, nor on the fits that share its
descent, and no point is composed twice.

``fit`` runs its restarts through one descent of up to ``_lane_cap`` live
lanes, advanced together in ticks: each tick composes every live lane's
point in one stacked sweep, forms the normal equations of the lanes that
open or start an iteration as stacked products and solves every lane's
damped system, and a stopped lane's slot goes to the next restart.  Its
result must be the serial loop's: here the default widths are compared
with the cap pinned to 1 (one lane at a time), on loss targets that some
restarts reach and others do not.  ``fit_targets`` runs the restarts of
several fits through one such descent, each lane on its own fit's circuit
(the circuits share their frozen phases) and against its own fit's target,
and each of its results must be what that fit gets alone.  The normal
equations at a point are read from the prefix products of the sweep that
composed it, and every lane's slice of a stacked tick must equal what that
lane alone gets, bitwise.
"""

import gc
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jxcircuit import optimizer
from jxcircuit.circuit import (
    InterlacedCircuit,
    PhaseProgram,
    apply_fault_plan,
    ideal_circuit,
    loss,
    normal_equations,
    prefix_products,
    transfer_matrix,
)
from jxcircuit.numerics import SpdSolver
from jxcircuit.optimizer import LmaOptions, _Lane, _Problem, fit, fit_targets
from jxcircuit.sampling import derive_seed, haar_unitary, uniform_phases
from jacobian_reference import evaluate


def haar_circuit(n, m, seed, fixed):
    mixers = [haar_unitary(n, derive_seed(seed, "slot", k)) for k in range(m + 1)]
    return InterlacedCircuit(mixers, PhaseProgram(np.zeros((m, n)), fixed))


@st.composite
def fits(draw):
    """(circuit, target, options, init, seed): N 1-5, M 1-6, any mask,
    restarts 1-12, 1-40 iterations per descent, and seeded uniform starts
    or an (M, N) start grid for restart 0.  The loss target is either
    drawn log-uniformly from [1e-10, 1], or a fraction (0.5-1) of the loss
    the first restart reaches, so that restart fails and a later one may
    not."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    fixed = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    circuit = haar_circuit(n, m, seed, fixed.reshape(m, n))
    target = haar_unitary(n, derive_seed(seed, "target"))
    options = LmaOptions(max_iterations=draw(st.integers(1, 40)),
                         restarts=draw(st.integers(1, 12)),
                         target_loss=10.0 ** draw(st.floats(-10.0, 0.0)))
    init = uniform_phases(m, n, derive_seed(seed, "start")) if draw(st.booleans()) else None
    fraction = draw(st.none() | st.floats(0.5, 1.0))
    if fraction is not None:
        first = fit_alone(circuit, target, replace(options, restarts=1), init, seed=seed).loss
        options = replace(options, target_loss=max(first * fraction, 1e-300))
    return circuit, target, options, init, seed


def fit_alone(circuit, target, options, init=None, *, seed):
    """The one fit of ``circuit`` to ``target`` from the start grid ``init``
    (``fit`` when that is None)."""
    return fit_targets([(circuit, target, seed, init)], options)[0]


def seeded(circuit, targets):
    """Requests to fit ``circuit`` to each of ``targets`` from random
    starts, fit ``k`` seeded by ``k``."""
    return [(circuit, target, k, None) for k, target in enumerate(targets)]


def fit_at_width_one(*args, **kwargs):
    with mock.patch.object(optimizer, "_lane_cap", lambda program: 1):
        return fit_alone(*args, **kwargs)


def fit_in_lanes(*args, **kwargs):
    """``fit_alone`` with lanes on either side of the transition, as many as
    the descent's budget allows."""
    with mock.patch.object(optimizer, "_lane_cap", optimizer._lane_budget):
        return fit_alone(*args, **kwargs)


def budget_of(lanes, p):
    """A ``_LANE_BYTES`` that fits exactly ``lanes`` lanes of ``p`` free
    phases on a small grid (where the (P, P) buffers outweigh the sweep slot)."""
    return lanes * 32 * p * p


def recorded_descents(monkeypatch):
    """Record what every ``_descend`` call returns."""
    descents = []
    descend = optimizer._descend

    def recorded(*args):
        descents.append(descend(*args))
        return descents[-1]

    monkeypatch.setattr(optimizer, "_descend", recorded)
    return descents


def assert_same_fit(wide, serial):
    assert np.array_equal(wide.phases.theta, serial.phases.theta)
    for field in ("loss", "iterations", "restarts_used", "status", "converged",
                  "total_iterations", "rejected_trials"):
        assert getattr(wide, field) == getattr(serial, field), field


@settings(max_examples=150, deadline=None)
@given(fits())
def test_lanes_give_the_serial_fit(case):
    circuit, target, options, init, seed = case
    serial = fit_at_width_one(circuit, target, options, init, seed=seed)
    assert_same_fit(fit_alone(circuit, target, options, init, seed=seed), serial)
    assert_same_fit(fit_in_lanes(circuit, target, options, init, seed=seed), serial)


def lone_lane(circuit, target, options, start):
    """The stopped lane of one descent from ``start``, run alone."""
    problem = _Problem([circuit.mixers], circuit.program, target[None], 1)
    ((lane,),), _ = optimizer._descend(problem, [[start]], options, 1, 1)
    return lane


def test_lanes_that_stop_on_different_ticks_give_the_serial_fit(monkeypatch):
    # with the step and gradient tests off and a function tolerance near
    # rounding, the five lanes of the fit's one descent stop on at least
    # three different ticks and by more than one rule (the cap, ftol or a
    # stall), each as its restart's descent stops alone
    monkeypatch.setattr(optimizer, "_FUNCTION_TOLERANCE", 3e-16)
    monkeypatch.setattr(optimizer, "_STEP_TOLERANCE", 0.0)
    monkeypatch.setattr(optimizer, "_OPTIMALITY_TOLERANCE", 0.0)
    circuit, target, seed = ideal_circuit(3, 3), haar_unitary(3, 1), 11
    options = LmaOptions(restarts=5, max_iterations=36)
    starts = list(optimizer._restart_starts(circuit.program, None, seed, 5))
    lone = [lone_lane(circuit, target, options, start) for start in starts]
    assert len({lone_sweeps(circuit, target, options, seed, start) for start in starts}) >= 3
    assert len({lane.status for lane in lone}) >= 2
    descents = recorded_descents(monkeypatch)
    wide = fit(circuit, target, options, seed=seed)
    (((lanes,), _),) = descents
    assert [(lane.status, lane.iterations, lane.rejected) for lane in lanes] == [
        (lane.status, lane.iterations, lane.rejected) for lane in lone]
    assert_same_fit(wide, fit_at_width_one(circuit, target, options, seed=seed))


@pytest.mark.parametrize("n, m, faults, lanes", [
    (4, 4, [], True),  # M = N: 16 phases, 3 of them global-phase shifts
    (4, 5, [], False),
    (8, 8, [], True),
    (8, 9, [], False),
    (4, 5, [(2, p, 0.5) for p in range(4)], True),  # clustered: one layer frozen
    (4, 5, [(k, k, 0.5) for k in range(4)], False),  # spread: 16 independent phases
    (1, 3, [], False),
])
def test_lanes_run_only_below_the_transition(n, m, faults, lanes):
    program = apply_fault_plan(PhaseProgram.zeros(m, n), faults)
    assert (optimizer._lane_cap(program) > 1) == lanes


@st.composite
def frozen_programs(draw):
    """(program, seed): N 1-6, M N-1..N+1 (M >= 1), any frozen mask, and
    every phase, frozen or not, drawn uniform in [0, 2 pi) from the seed,
    as ``_random_fault_plan`` draws a fault's value."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(max(n - 1, 1), n + 1))
    fixed = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    seed = draw(st.integers(0, 2**32 - 1))
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (m, n))
    return PhaseProgram(theta, fixed.reshape(m, n)), seed


def jtj_rank(mixers, program, seed):
    """The numerical rank of J'J (eigenvalues above 1e-9 of the largest),
    the best of 3 random points of the free phases."""
    m, n, p = program.layers, program.ports, program.free_count
    if p == 0:
        return 0
    rng = np.random.default_rng(derive_seed(seed, "points"))
    prefixes = np.empty((m + 1, 1, n, n), dtype=np.complex128)
    gram, jtj = np.empty((p, p), dtype=np.complex128), np.empty((p, p))
    best = 0
    for _ in range(3):
        theta = program.with_free_values(rng.uniform(0.0, 2 * np.pi, p)).theta
        prefix_products(mixers[:, None], theta[None], prefixes)
        normal_equations(prefixes[:, 0], program.free_mask, np.eye(n), gram, jtj)
        w = np.linalg.eigvalsh(jtj)
        best = max(best, int((w > 1e-9 * w[-1]).sum()))
    return best


@settings(max_examples=200, deadline=None)
@given(frozen_programs())
# one direction short of U(2)'s 4: two fully free layers around a frozen one
@example((PhaseProgram(uniform_phases(3, 2, 1), [[0, 0], [1, 1], [0, 0]]), 1))
def test_the_lane_cap_counts_the_directions_of_the_free_phases(case):
    """On ideal mixers the free phases span min(P - max(F - 1, 0), N^2)
    directions, F the layers with no frozen phase, and ``_lane_cap`` runs
    one lane at a time exactly when that reaches N^2.

    Frozen values are random.  A fully frozen layer whose phases are all
    equal is a global phase: the mixers on either side of it then compose
    to X @ X, the Jx lattice's mirror permutation up to a global phase, and
    the phases of the layers on either side trade against each other, so
    the count overstates the rank (free layer 0, frozen layers 1 and 3,
    one free phase in layer 2 of N = 3, M = 4: 4 directions counted, J'J
    of rank 3).  That case is left out here.
    """
    program, seed = case
    n = program.ports
    fully_free = int(program.free_mask.all(axis=1).sum())
    directions = min(program.free_count - max(fully_free - 1, 0), n * n)
    assert jtj_rank(ideal_circuit(n, program.layers).mixers, program, seed) == directions
    assert (optimizer._lane_cap(program) == 1) == (directions == n * n)


def test_lane_buffers_stay_within_their_budget():
    # N = 16, M = 16: 256 free phases, so each lane's complex G, J'J and
    # damped matrix take 32 * 256^2 bytes, 2 MiB
    assert optimizer._lane_cap(PhaseProgram.zeros(16, 16)) == optimizer._LANE_BYTES >> 21


def test_a_target_reached_mid_batch_stops_the_fit_there(monkeypatch):
    # below the transition no restart reaches 1e-10; a target between two
    # successive best losses of the serial loop is first reached where the
    # serial loop reaches it, while all 21 restarts run side by side
    circuit, target = ideal_circuit(4, 4), haar_unitary(4, 9)
    best = [fit_at_width_one(circuit, target, LmaOptions(restarts=k, max_iterations=30),
                             seed=3).loss for k in range(1, 6)]
    goals = [np.sqrt(a * b) for a, b in zip(best, best[1:]) if b < a]
    used = []
    for goal in goals:
        options = LmaOptions(restarts=21, max_iterations=30, target_loss=goal)
        wide = fit(circuit, target, options, seed=3)
        serial = fit_at_width_one(circuit, target, options, seed=3)
        assert wide.converged and np.array_equal(wide.phases.theta, serial.phases.theta)
        assert (wide.restarts_used, wide.loss, wide.total_iterations, wide.rejected_trials) == (
            serial.restarts_used, serial.loss, serial.total_iterations, serial.rejected_trials)
        used.append(wide.restarts_used)
    assert {2, 3, 4} & set(used), used  # the live lanes after it were dropped

    sweeps = []
    prefix_products = optimizer.prefix_products

    def counted(mixers, thetas, out):
        sweeps.append(len(thetas))
        return prefix_products(mixers, thetas, out)

    monkeypatch.setattr(optimizer, "prefix_products", counted)
    full = fit(circuit, target, LmaOptions(restarts=21, max_iterations=30), seed=3)
    assert full.restarts_used == 21 and not full.converged
    # every restart opens on the first tick, one grid each
    assert sweeps[0] == max(sweeps) == min(21, optimizer._lane_cap(circuit.program)) == 21


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_normal_equations_from_stored_prefixes_equal_a_fresh_sweep(n, m, seed, data):
    fixed = np.array(data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    circuit = haar_circuit(n, m, seed, fixed.reshape(m, n))
    program, mixers = circuit.program, circuit.mixers
    target = haar_unitary(n, derive_seed(seed, "target"))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2 * np.pi, program.free_count)
    delta = rng.standard_normal(x.size)
    problem = _Problem([mixers], program, target[None], 3)
    problem.seat([0, 1, 2], [0] * 3)

    def check(points, rows, losses):  # before the next sweep overwrites them
        p = program.free_count
        jtj = np.empty((len(points), p, p))
        g = problem.normal_equations(rows, np.empty(jtj.shape, complex), jtj)
        for k, point in enumerate(points):
            theta = program.with_free_values(point).theta
            assert losses[k] == loss(transfer_matrix(mixers, theta), target)
            fresh_jtj, fresh_g = evaluate(mixers, theta, program.free_mask, target)
            assert np.array_equal(jtj[k], fresh_jtj)
            assert np.array_equal(g[k], fresh_g)

    # alone: a one-lane sweep
    check([x], slice(None, 1), problem.losses(x[None]))
    # side by side in one stacked sweep, read all together or picked out
    points = np.stack([x - delta, x + delta, x])
    losses = problem.losses(points)
    check(points, slice(None, 3), losses)
    check(points[[2, 0]], np.array([2, 0]), losses[[2, 0]])


@pytest.mark.parametrize("n, m, lanes", [(1, 1, 1), (3, 2, 4), (4, 5, 7), (6, 3, 3)])
def test_each_seated_slots_loss_is_its_fits_loss_alone(n, m, lanes):
    # slots seated in any order with the mixers and targets of two fits
    fixed = np.zeros((m, n), dtype=bool)
    circuits = [haar_circuit(n, m, 80 + f, fixed) for f in range(2)]
    targets = np.stack([haar_unitary(n, 90 + f) for f in range(2)])
    program = circuits[0].program
    problem = _Problem([c.mixers for c in circuits], program, targets, lanes)
    slots, fits = list(range(lanes))[::-1], [s % 2 for s in range(lanes)]
    problem.seat(slots, fits)
    xs = np.random.default_rng(n).uniform(0.0, 2 * np.pi, (lanes, program.free_count))
    losses = problem.losses(xs)
    for slot, f in zip(slots, fits):
        theta = program.with_free_values(xs[slot]).theta
        assert losses[slot] == loss(transfer_matrix(circuits[f].mixers, theta), targets[f])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 9), st.integers(0, 2**32 - 1), st.data())
def test_each_tick_stacks_the_normal_equations_of_its_lanes(n, m, seed, data):
    # every stacked call of a fit in lanes (up to 21 here, with lanes
    # dropping out as they stop) gives each lane bitwise what
    # circuit.normal_equations gives on that lane's prefixes alone
    fixed = np.array(data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    circuit = haar_circuit(n, m, seed, fixed.reshape(m, n))
    target = haar_unitary(n, derive_seed(seed, "target"))
    options = LmaOptions(restarts=data.draw(st.integers(1, 21)),
                         max_iterations=data.draw(st.integers(1, 8)))
    widths = []

    def stacked(prefixes, free_mask, target, gram, jtj):
        out_jtj, out_g = normal_equations(prefixes, free_mask, target, gram, jtj)
        p = out_jtj.shape[-1]
        widths.append(prefixes.shape[1])
        for lane in range(prefixes.shape[1]):
            alone = np.ascontiguousarray(prefixes[:, lane])
            want_jtj, want_g = normal_equations(alone, free_mask, target[lane],
                                                np.empty((p, p), complex), np.empty((p, p)))
            assert np.array_equal(out_jtj[lane], want_jtj)
            assert np.array_equal(out_g[lane], want_g)
        return out_jtj, out_g

    with mock.patch.object(optimizer, "normal_equations", stacked):
        fit_in_lanes(circuit, target, options, seed=seed)
    assert circuit.program.free_count == 0 or widths


@pytest.mark.parametrize("lanes", [False, True])
def test_every_fit_reads_the_normal_equations_of_its_current_point(monkeypatch, lanes):
    # each tick's sweep writes every live lane's trial point into the lane's
    # slot, so a rejected trial overwrites the prefixes of the lane's current
    # point: the normal equations must be read only at starts and at
    # accepted points, from the slot of the sweep that composed them
    if not lanes:
        monkeypatch.setattr(optimizer, "_lane_cap", lambda program: 1)
    counts = {"rows": 0, "starts": 0, "steps": 0}
    normal_equations, restart_starts, accept = (
        _Problem.normal_equations, optimizer._restart_starts, _Lane.accept)

    def fresh(self, rows, gram, jtj):
        g = normal_equations(self, rows, gram, jtj)
        for k, (grid, mixers) in enumerate(zip(self._grids[rows],
                                               self._lane_mixers[:, rows].swapaxes(0, 1))):
            want_jtj, want_g = evaluate(mixers, grid, self.free, self.targets[0])
            assert np.array_equal(jtj[k], want_jtj) and np.array_equal(g[k], want_g)
        counts["rows"] += len(jtj)
        return g

    def started(*args):
        for start in restart_starts(*args):
            counts["starts"] += 1
            yield start

    def stepped(self, *args):
        accept(self, *args)
        counts["steps"] += not self.status  # the lane starts another iteration

    monkeypatch.setattr(_Problem, "normal_equations", fresh)
    monkeypatch.setattr(optimizer, "_restart_starts", started)
    monkeypatch.setattr(_Lane, "accept", stepped)
    # below the transition every restart runs: 21 side by side, or one at a time
    result = fit(ideal_circuit(4, 4), haar_unitary(4, 9),
                 LmaOptions(restarts=21, max_iterations=30), seed=3)
    assert result.restarts_used == 21 and result.rejected_trials > 0
    assert counts["rows"] == counts["starts"] + counts["steps"]


def count_sweeps_and_factorizations(monkeypatch):
    """Fit N = 4, M = 4 with 6 restarts, counting the grids of every sweep,
    the lanes started and the damped systems solved; the normal equations
    must compose nothing."""
    counts = {"sweeps": [], "starts": 0, "factored": 0}
    prefix_products = optimizer.prefix_products
    normal_equations = optimizer.normal_equations
    restart_starts = optimizer._restart_starts
    solve = SpdSolver.solve

    def sweep(mixers, thetas, out):
        counts["sweeps"].append(len(thetas))
        return prefix_products(mixers, thetas, out)

    def equations(*args):
        before = len(counts["sweeps"])
        out = normal_equations(*args)
        assert len(counts["sweeps"]) == before, "normal_equations composed"
        return out

    def started(*args):
        for start in restart_starts(*args):
            counts["starts"] += 1
            yield start

    def factored(self, *args):
        x = solve(self, *args)
        counts["factored"] += int(np.isfinite(x).all(axis=1).sum())
        return x

    monkeypatch.setattr(optimizer, "prefix_products", sweep)
    monkeypatch.setattr(optimizer, "normal_equations", equations)
    monkeypatch.setattr(optimizer, "_restart_starts", started)
    monkeypatch.setattr(SpdSolver, "solve", factored)
    result = fit(ideal_circuit(4, 4), haar_unitary(4, 8), LmaOptions(restarts=6), seed=4)
    assert result.restarts_used == 6 and not result.converged
    # a descent's start is one grid of a sweep, and so is each damping trial
    # whose factorization succeeds
    assert counts["starts"] == result.restarts_used
    assert sum(counts["sweeps"]) == counts["starts"] + counts["factored"]
    assert counts["factored"] >= result.total_iterations > 0
    return counts["sweeps"]


def test_one_single_grid_sweep_per_start_and_per_successful_factorization(monkeypatch):
    monkeypatch.setattr(optimizer, "_lane_cap", lambda program: 1)
    assert set(count_sweeps_and_factorizations(monkeypatch)) == {1}


def test_one_sweep_slot_per_start_and_per_successful_factorization_in_lanes(monkeypatch):
    # all six restarts open on the first tick, and each tick composes every
    # live lane's point in one sweep
    sweeps = count_sweeps_and_factorizations(monkeypatch)
    assert sweeps[0] == max(sweeps) == 6


@pytest.mark.parametrize("restarts", [1, 6])
def test_totals_count_every_descent_used(restarts):
    circuit, target = ideal_circuit(3, 3), haar_unitary(3, 12)
    result = fit(circuit, target, LmaOptions(restarts=restarts), seed=5)
    assert result.restarts_used == restarts
    assert result.iterations <= result.total_iterations
    if restarts == 1:
        assert result.total_iterations == result.iterations
    else:
        assert result.total_iterations > result.iterations
    assert result.rejected_trials >= 0


def test_a_fit_frees_its_lanes_without_the_cycle_collector():
    # a reference cycle through the lanes would keep each fit's (P, P)
    # buffers alive until the collector runs (at N = 16, 20 MiB more peak RSS)
    gc.collect()
    gc.disable()
    try:
        result = fit(ideal_circuit(3, 3), haar_unitary(3, 2), LmaOptions(restarts=6), seed=1)
        alive = [o for o in gc.get_objects() if isinstance(o, (_Problem, _Lane))]
    finally:
        gc.enable()
    assert result.restarts_used == 6  # one descent of 6 lanes
    assert alive == []


def composed_grids(circuit, target, options, seed):
    """The fit's result and, per sweep, the free values of each grid it composed."""
    sweeps = []
    prefix_products, free = optimizer.prefix_products, circuit.program.free_mask

    def recorded(mixers, thetas, out):
        sweeps.append(thetas[:, free].copy())
        return prefix_products(mixers, thetas, out)

    with mock.patch.object(optimizer, "prefix_products", recorded):
        return fit(circuit, target, options, seed=seed), sweeps


def opening_ticks(sweeps, starts):
    """For each start, the sweeps whose grids include it."""
    return [[t for t, grids in enumerate(sweeps) for grid in grids if np.array_equal(grid, start)]
            for start in starts]


def schedule(ticks, cap):
    """The width of each sweep, and the tick each restart opens on, when
    restarts that take ``ticks`` sweeps each run in order with at most
    ``cap`` live: every tick sweeps min(cap, live + not yet admitted)."""
    widths, opened, live, waiting = [], [], [], list(ticks)
    while live or waiting:
        while len(live) < cap and waiting:
            opened.append(len(widths))
            live.append(waiting.pop(0))
        widths.append(len(live))
        live = [left - 1 for left in live if left > 1]
    return widths, opened


def lone_sweeps(circuit, target, options, seed, start):
    """How many sweeps one descent from ``start`` takes alone."""
    with mock.patch.object(optimizer, "_restart_starts", lambda *args: iter([start])):
        return len(composed_grids(circuit, target, replace(options, restarts=1), seed)[1])


def test_a_stopped_lane_slot_goes_to_the_next_restart(monkeypatch):
    # 11 restarts below the transition with at most 4 live: each lane's
    # tick count (sweeps from its start to its stop) comes from the serial
    # fit, where each restart's sweeps follow the previous one's
    circuit, target, seed = ideal_circuit(4, 4), haar_unitary(4, 140), 2
    starts = list(optimizer._restart_starts(circuit.program, None, seed, 11))
    options = LmaOptions(restarts=11, max_iterations=30)
    with mock.patch.object(optimizer, "_lane_cap", lambda program: 1):
        serial, alone = composed_grids(circuit, target, options, seed)
    opened = [found[0] for found in opening_ticks(alone, starts)]
    ticks = np.diff(opened + [len(alone)]).tolist()
    assert min(ticks) < max(ticks)  # the lanes stop on different ticks

    monkeypatch.setattr(optimizer, "_LANE_BYTES", budget_of(4, 16))
    assert optimizer._lane_cap(circuit.program) == 4
    refilled, sweeps = composed_grids(circuit, target, options, seed)
    assert_same_fit(refilled, serial)
    widths, opens = schedule(ticks, 4)
    assert [len(grids) for grids in sweeps] == widths
    # each start is composed once, on the tick its restart takes a slot
    assert opening_ticks(sweeps, starts) == [[t] for t in opens]

    # a target between the serial loop's best losses after 5 and 6 restarts
    # is met first by restart 7: no later restart opens after it, though
    # slots free up; restart 5 meets it some ticks later, which drops
    # restart 6, and the fit's result is the serial loop's
    best = [fit_at_width_one(circuit, target, replace(options, restarts=k), seed=seed).loss
            for k in (5, 6)]
    goal = replace(options, target_loss=float(np.sqrt(best[0] * best[1])))
    with mock.patch.object(optimizer, "_lane_cap", lambda program: 1):
        serial, alone = composed_grids(circuit, target, goal, seed)
    assert serial.converged and serial.restarts_used == 6
    last = len(alone) - opening_ticks(alone, starts[5:6])[0][0]  # restart 5's sweeps
    refilled, sweeps = composed_grids(circuit, target, goal, seed)
    assert_same_fit(refilled, serial)
    opens = opening_ticks(sweeps, starts)
    assert [len(found) for found in opens] == [1] * 8 + [0] * 3
    # the ticks restarts 7 and 5 met the target on
    met = opens[7][0] + lone_sweeps(circuit, target, goal, seed, starts[7]) - 1
    stop = opens[5][0] + last - 1
    assert max(found[0] for found in opens[:8]) < met < met + 3 <= stop < len(sweeps) - 1
    # lanes 4, 5 and 6 run three wide after tick ``met``, and restart 4
    # alone after restart 5 stops
    assert [len(grids) for grids in sweeps] == (
        [4] * (met + 1) + [3] * (stop - met) + [1] * (len(sweeps) - stop - 1))


def test_a_lane_keeps_its_slot_while_restarts_are_queued(monkeypatch):
    # 11 restarts below the transition with at most 4 live: each lane's
    # grids are found, by its serial trajectory, in the rows of the wide
    # descent's sweeps; a lane stays in one row from the tick it opens to
    # the tick it stops, except that once the last restart has opened, the
    # last lane moves down into a row that a stopped lane left free
    circuit, target, seed = ideal_circuit(4, 4), haar_unitary(4, 2), 4
    starts = list(optimizer._restart_starts(circuit.program, None, seed, 11))
    options = LmaOptions(restarts=11, max_iterations=30)
    with mock.patch.object(optimizer, "_lane_cap", lambda program: 1):
        _, alone = composed_grids(circuit, target, options, seed)
    opened = [found[0] for found in opening_ticks(alone, starts)] + [len(alone)]
    trajectories = [alone[a:b] for a, b in zip(opened, opened[1:])]

    monkeypatch.setattr(optimizer, "_LANE_BYTES", budget_of(4, 16))
    assert optimizer._lane_cap(circuit.program) == 4
    _, sweeps = composed_grids(circuit, target, options, seed)
    drained = opening_ticks(sweeps, starts[-1:])[0][0]  # the tick the last restart opens
    moved = 0
    for (start,), trajectory in zip(opening_ticks(sweeps, starts), trajectories):
        rows = []
        for tick, (grid,) in enumerate(trajectory, start):
            found = [r for r, other in enumerate(sweeps[tick]) if np.array_equal(other, grid)]
            assert len(found) == 1
            rows += found
        if start + len(rows) - 1 <= drained:  # stopped while restarts were queued
            assert set(rows) == {rows[0]}
        changes = [t for t in range(1, len(rows)) if rows[t] != rows[t - 1]]
        assert all(start + t > drained and rows[t] < rows[t - 1] for t in changes)
        moved += bool(changes)
    assert moved  # the tail compacted


@pytest.mark.parametrize("n, m, restarts, max_iterations", [
    (4, 4, 1, 30), (4, 4, 6, 30), (4, 4, 70, 5),  # below the transition: cap 512
    (4, 5, 1, 3), (4, 5, 5, 3),  # above it: cap 1, and no restart converges
])
def test_a_fit_builds_one_solver_for_its_live_lanes(monkeypatch, n, m, restarts, max_iterations):
    made = []

    class Counted(SpdSolver):
        def __init__(self, size, slots):
            made.append((size, slots))
            super().__init__(size, slots)

    monkeypatch.setattr(optimizer, "SpdSolver", Counted)
    circuit = ideal_circuit(n, m)
    result = fit(circuit, haar_unitary(n, 2), LmaOptions(restarts=restarts,
                                                         max_iterations=max_iterations),
                 seed=0)
    assert result.restarts_used == restarts
    cap = optimizer._lane_cap(circuit.program)
    assert made == [(circuit.program.free_count, min(cap, restarts))]


# -- lanes across fits: one descent for the fits of one call -----------------


#: four faults in one layer of a 4 x 6 grid: still above the transition
#: (20 free phases, 4 of them global-phase shifts), but some targets now
#: take more than one restart
CLUSTERED = [(2, 0, 0.5), (2, 1, 1.0), (2, 2, 2.0), (2, 3, 0.3)]


@pytest.mark.parametrize("m, faults, restarts, used", [
    (4, [], 7, {7}),  # below the transition: every restart of every fit runs
    (6, [], 5, {1}),  # above it: each fit converges on its first restart
    (6, CLUSTERED, 6, {1, 2, 3, 4}),  # above it, some fits need more restarts
])
def test_fits_of_one_circuit_share_one_descent_and_keep_their_serial_results(
        monkeypatch, m, faults, restarts, used):
    program = apply_fault_plan(PhaseProgram.zeros(m, 4), faults)
    circuit = ideal_circuit(4, m).with_program(program)
    targets = [haar_unitary(4, derive_seed(5, "t", i)) for i in range(8)]
    options = LmaOptions(restarts=restarts, max_iterations=100)
    alone = [fit(circuit, target, options, seed=k) for k, target in enumerate(targets)]
    descents = recorded_descents(monkeypatch)
    batched = fit_targets(seeded(circuit, targets), options)
    assert len(descents) == 1 and len(batched) == 8
    for wide, serial in zip(batched, alone):
        assert_same_fit(wide, serial)
    assert {result.restarts_used for result in batched} == used


@settings(max_examples=60, deadline=None)
@given(fits(), st.integers(1, 5), st.booleans(), st.data())
def test_a_shared_descent_gives_every_fit_its_serial_result(case, count, serial, data):
    # any circuit, mask, budget and start, with up to five targets whose
    # fits stop after different restarts; every fit after the first runs on
    # the first fit's circuit or on mixers of its own (with the same frozen
    # phases), from random starts or a start grid of its own; against
    # fits run alone, one lane at a time or with the default lanes
    circuit, target, options, init, seed = case
    n, m = circuit.ports, circuit.program.layers
    circuits, targets, inits = [circuit], [target], [init]
    for k in range(1, count):
        own = haar_circuit(n, m, derive_seed(seed, "own", k), circuit.program.fixed).mixers
        circuits.append(InterlacedCircuit(own, circuit.program)
                        if data.draw(st.booleans()) else circuit)
        targets.append(haar_unitary(n, derive_seed(seed, "more", k)))
        inits.append(uniform_phases(m, n, derive_seed(seed, "start", k))
                     if data.draw(st.booleans()) else None)
    seeds = [derive_seed(seed, "fit", k) for k in range(count)]
    one = fit_at_width_one if serial else fit_alone
    alone = [one(c, t, options, i, seed=s) for c, t, i, s in zip(circuits, targets, inits, seeds)]
    wides = fit_targets(list(zip(circuits, targets, seeds, inits)), options)
    for wide, want in zip(wides, alone):
        assert_same_fit(wide, want)


def test_fit_targets_refuses_mismatched_circuits_targets_and_starts(monkeypatch):
    circuit, target, options = ideal_circuit(3, 3), haar_unitary(3, 1), LmaOptions()
    frozen = [circuit.with_program(apply_fault_plan(PhaseProgram.zeros(3, 3), [(1, 2, value)]))
              for value in (0.5, 0.7)]
    # only the free values of their programs differ: accepted
    moved = circuit.with_program(PhaseProgram(np.ones((3, 3)), np.zeros((3, 3), bool)))
    pair = fit_targets([(circuit, target, 4, None), (moved, target, 4, None)],
                       LmaOptions(restarts=2))
    assert_same_fit(pair[1], fit(circuit, target, LmaOptions(restarts=2), seed=4))
    assert_same_fit(pair[0], pair[1])

    monkeypatch.setattr(optimizer, "prefix_products", lambda *args: pytest.fail("composed"))
    with pytest.raises(ValueError, match=r"target shape \(2, 2\)"):
        fit_targets(seeded(circuit, [target, np.eye(2)]), options)
    # a circuit of another N or M, another frozen mask, or other frozen values
    for first, other in [(circuit, ideal_circuit(2, 3)), (circuit, ideal_circuit(3, 4)),
                         (circuit, frozen[0]), (frozen[0], frozen[1])]:
        with pytest.raises(ValueError, match="circuit 2 differs from circuit 0"):
            fit_targets([(c, target, 1, None) for c in (first, first, other, other)],
                        options)
    with pytest.raises(ValueError, match=r"start grid shape \(3, 4\)"):
        fit_targets([(circuit, target, 1, None), (circuit, target, 2, np.zeros((3, 4)))],
                    options)
    assert fit_targets([], LmaOptions()) == []


@pytest.mark.parametrize("n, m, restarts, count, width, depth", [
    (16, 16, 3, 3, 2, 2),  # below the transition: 2 MiB a lane, so 2 lanes in all
    (16, 18, 2, 3, 1, 1),  # 288 free phases: one lane, as univ-n16 runs
    (4, 6, 3, 30, 30, 1),  # above the transition: one lane per fit, 30 side by side
    (4, 4, 5, 30, 150, 5),  # below it: 5 lanes per fit, all 150 in one wave
])
def test_a_shared_descent_keeps_its_lanes_within_their_budget(
        monkeypatch, n, m, restarts, count, width, depth):
    made, seated = [], []

    class Counted(SpdSolver):
        def __init__(self, size, slots):
            made.append((size, slots))
            super().__init__(size, slots)

    losses = _Problem.losses

    def recorded(self, xs):
        # the fits of the live slots of a tick, each known by its target
        fit_of = {target.tobytes(): f for f, target in enumerate(self.targets)}
        seated.append([fit_of[target.tobytes()] for target in self._lane_targets[:len(xs)]])
        return losses(self, xs)

    monkeypatch.setattr(optimizer, "SpdSolver", Counted)
    monkeypatch.setattr(_Problem, "losses", recorded)
    circuit = ideal_circuit(n, m)
    targets = [haar_unitary(n, derive_seed(7, "t", i)) for i in range(count)]
    results = fit_targets(seeded(circuit, targets),
                          LmaOptions(restarts=restarts, max_iterations=2))
    assert len(results) == count
    assert made == [(circuit.program.free_count, width)]
    assert max(len(fits) for fits in seated) == width
    assert max(fits.count(f) for fits in seated for f in fits) == depth
    if n == 16 and m == 16:
        assert width == optimizer._LANE_BYTES >> 21


def test_a_descent_wider_than_64_lanes_gives_every_fit_its_serial_result(monkeypatch):
    # below the transition 30 fits of 5 restarts open together, 150 lanes in
    # one wave; each fit's result is bitwise what it gets one lane at a time
    circuit = ideal_circuit(4, 4)
    targets = [haar_unitary(4, derive_seed(8, "t", i)) for i in range(30)]
    options = LmaOptions(restarts=5, max_iterations=40)
    serial = [fit_at_width_one(circuit, target, options, seed=k)
              for k, target in enumerate(targets)]
    widths = []
    losses = _Problem.losses

    def recorded(self, xs):
        widths.append(len(xs))
        return losses(self, xs)

    monkeypatch.setattr(_Problem, "losses", recorded)
    wide = fit_targets(seeded(circuit, targets), options)
    assert widths[0] == max(widths) == 150
    for one, want in zip(wide, serial):
        assert_same_fit(one, want)
        assert one.restarts_used == 5


def test_a_program_with_no_free_phase_keeps_its_lanes_within_their_budget(monkeypatch):
    # every shifter frozen: no lane has (P, P) buffers, but each is charged
    # its sweep slot and its copy of its fit's mixers, so 20 fits of 50
    # restarts do not open 1000 lanes at once
    n, m = 8, 9
    made = []

    class Counted(SpdSolver):
        def __init__(self, size, slots):
            made.append((size, slots))
            super().__init__(size, slots)

    monkeypatch.setattr(optimizer, "SpdSolver", Counted)
    program = PhaseProgram(uniform_phases(m, n, 3), np.ones((m, n), dtype=bool))
    circuit = ideal_circuit(n, m).with_program(program)
    targets = [haar_unitary(n, derive_seed(4, "t", i)) for i in range(20)]
    results = fit_targets(seeded(circuit, targets), LmaOptions(restarts=50))
    assert {result.status for result in results} == {"no-free-parameters"}
    assert {result.restarts_used for result in results} == {50}
    ((size, slots),) = made
    assert size == 0 and 1 < slots < 20 * 50
    assert slots * 32 * (m + 1) * n * n <= optimizer._LANE_BYTES


@pytest.mark.parametrize("faults, count, lanes, options", [
    ([], 30, None, LmaOptions(restarts=5, max_iterations=40)),
    # fits that need several restarts, in 4 slots: a fit's next restart
    # waits for a slot, and the token of a fit that met the target or ran
    # out of restarts opens nothing
    (CLUSTERED, 8, 4, LmaOptions(restarts=6, max_iterations=100)),
])
def test_no_lane_step_is_wasted_above_the_transition(monkeypatch, faults, count, lanes, options):
    # at M = 6 a fit runs one restart at a time, alone or beside the others,
    # so the grids composed over the batch are the sum over serial fits
    circuit = ideal_circuit(4, 6).with_program(apply_fault_plan(PhaseProgram.zeros(6, 4), faults))
    targets = [haar_unitary(4, derive_seed(9, "t", i)) for i in range(count)]
    grids = []
    prefix_products = optimizer.prefix_products

    def counted(mixers, thetas, out):
        grids.append(len(thetas))
        return prefix_products(mixers, thetas, out)

    monkeypatch.setattr(optimizer, "prefix_products", counted)
    alone = [fit(circuit, target, options, seed=k) for k, target in enumerate(targets)]
    serial, grids[:] = sum(grids), []
    if lanes:
        monkeypatch.setattr(optimizer, "_LANE_BYTES", budget_of(lanes, circuit.program.free_count))
        assert max(result.restarts_used for result in alone) > 1
    fit_targets(seeded(circuit, targets), options)
    assert sum(grids) == serial and max(grids) == (lanes or count)


def test_a_fit_is_timed_by_its_share_of_the_ticks():
    circuit = ideal_circuit(4, 4)
    targets = [haar_unitary(4, derive_seed(3, "t", i)) for i in range(6)]
    options = LmaOptions(restarts=4, max_iterations=20)
    t0 = time.perf_counter()
    results = fit_targets(seeded(circuit, targets), options)
    elapsed = time.perf_counter() - t0
    shares = [result.seconds for result in results]
    assert min(shares) > 0 and 0.5 * elapsed < sum(shares) <= elapsed


# -- one shared mixer stack, or a copy per slot -------------------------------


def copy_of(circuit):
    """The circuit on a mixer stack of its own, equal to its own one."""
    return InterlacedCircuit(circuit.mixers, circuit.program)


@pytest.mark.parametrize("m, faults, restarts, count", [
    (4, [], 7, 12),  # below the transition: 7 lanes per fit, 84 in all
    (6, [], 5, 30),  # above it: one lane per fit, 30 side by side
    (6, CLUSTERED, 6, 8),  # above it, with fits that need several restarts
])
def test_fits_on_one_stack_or_on_equal_copies_get_the_same_results(
        m, faults, restarts, count):
    # every slot copies its fit's mixers, whether the fits share one stack
    # or each has a distinct copy of it
    circuit = ideal_circuit(4, m).with_program(
        apply_fault_plan(PhaseProgram.zeros(m, 4), faults))
    targets = [haar_unitary(4, derive_seed(6, "t", i)) for i in range(count)]
    options = LmaOptions(restarts=restarts, max_iterations=60)
    shared = fit_targets(seeded(circuit, targets), options)
    copies = fit_targets([(copy_of(circuit), target, k, None)
                          for k, target in enumerate(targets)], options)
    for one, other in zip(shared, copies):
        assert_same_fit(one, other)



def test_every_slot_holds_a_copy_of_its_fits_mixers():
    # one layout whether fits share a stack or not: seating copies each
    # slot's fit's mixers and target into the slot, and a slot seated again
    # holds its new fit's
    circuit, width = ideal_circuit(3, 4), 5
    stacks = [circuit.mixers, copy_of(circuit).mixers, circuit.mixers]
    targets = np.stack([haar_unitary(3, k) for k in range(3)])
    problem = _Problem(stacks, circuit.program, targets, width)
    assert problem.mixers is stacks
    assert problem._lane_mixers.shape == (4 + 1, width, 3, 3)
    slots, fits = [4, 0, 2], [0, 2, 1]
    problem.seat(slots, fits)
    problem.seat([0], [1])
    fits[1] = 1
    for slot, f in zip(slots, fits):
        assert np.array_equal(problem._lane_mixers[:, slot], stacks[f])
        assert np.array_equal(problem._lane_targets[slot], targets[f])
    assert not any(np.shares_memory(problem._lane_mixers, stack) for stack in stacks)
