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
several fits of one circuit through one such descent, each lane against
its own fit's target, and each of its results must be what ``fit`` gives
that target alone.  The normal equations at a point are read from the
prefix products of the sweep that composed it, and every lane's slice of
a stacked tick must equal what that lane alone gets, bitwise.
"""

import gc
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit import optimizer
from jxcircuit.circuit import (
    InterlacedCircuit,
    PhaseProgram,
    apply_fault_plan,
    ideal_circuit,
    loss,
    normal_equations,
    transfer_matrix,
)
from jxcircuit.numerics import SpdSolver
from jxcircuit.optimizer import FromVector, LmaOptions, _Lane, _Problem, fit, fit_targets
from jxcircuit.sampling import derive_seed, haar_unitary, uniform_phases
from jacobian_reference import evaluate


def haar_circuit(n, m, seed, fixed):
    mixers = [haar_unitary(n, derive_seed(seed, "slot", k)) for k in range(m + 1)]
    return InterlacedCircuit(mixers, PhaseProgram(np.zeros((m, n)), fixed))


@st.composite
def fits(draw):
    """(circuit, target, options, init, seed): N 1-5, M 1-6, any mask,
    restarts 1-12, 1-40 iterations per descent, and seeded uniform starts
    or a jittered start grid (as a grid or flat).  The loss target is either
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
    init = None
    if draw(st.booleans()):
        grid = uniform_phases(m, n, derive_seed(seed, "start"))
        init = FromVector(grid.ravel() if draw(st.booleans()) else grid,
                          draw(st.floats(0.0, 0.5)))
    fraction = draw(st.none() | st.floats(0.5, 1.0))
    if fraction is not None:
        first = fit(circuit, target, replace(options, restarts=1), init, seed=seed).loss
        options = replace(options, target_loss=max(first * fraction, 1e-300))
    return circuit, target, options, init, seed


def fit_at_width_one(*args, **kwargs):
    with mock.patch.object(optimizer, "_lane_cap", lambda program: 1):
        return fit(*args, **kwargs)


def fit_in_lanes(*args, **kwargs):
    """``fit`` with lanes on either side of the transition."""
    with mock.patch.object(optimizer, "_lane_cap", lambda program: optimizer._MAX_WIDTH):
        return fit(*args, **kwargs)


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
    assert_same_fit(fit(circuit, target, options, init, seed=seed), serial)
    assert_same_fit(fit_in_lanes(circuit, target, options, init, seed=seed), serial)


def test_lanes_that_stop_on_different_ticks_give_the_serial_fit(monkeypatch):
    # with the step and gradient tests off and a function tolerance near
    # rounding, the five lanes of the fit's one descent stop by ftol after
    # 35, 27 and 33 steps, stall after 27, and hit the cap of 36
    monkeypatch.setattr(optimizer, "_FUNCTION_TOLERANCE", 3e-16)
    monkeypatch.setattr(optimizer, "_STEP_TOLERANCE", 0.0)
    monkeypatch.setattr(optimizer, "_OPTIMALITY_TOLERANCE", 0.0)
    descents = recorded_descents(monkeypatch)
    circuit, target = ideal_circuit(3, 3), haar_unitary(3, 1)
    options = LmaOptions(restarts=5, max_iterations=36)
    wide = fit(circuit, target, options, seed=0)
    (((lanes,), _),) = descents
    assert [(lane.status, lane.iterations) for lane in lanes] == [
        ("ftol", 35), ("ftol", 27), ("stalled", 27), ("ftol", 33), ("maxiter", 36)]
    assert_same_fit(wide, fit_at_width_one(circuit, target, options, seed=0))


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
    problem = _Problem(mixers, program, target[None], 3)
    problem.seat([0] * 3)

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
    normal_equations, initial, accept = (
        _Problem.normal_equations, optimizer._initial_free_values, _Lane.accept)

    def fresh(self, rows, gram, jtj):
        g = normal_equations(self, rows, gram, jtj)
        for k, grid in enumerate(self._grids[rows]):
            want_jtj, want_g = evaluate(self.mixers, grid, self.free, self.targets[0])
            assert np.array_equal(jtj[k], want_jtj) and np.array_equal(g[k], want_g)
        counts["rows"] += len(jtj)
        return g

    def started(*args):
        counts["starts"] += 1
        return initial(*args)

    def stepped(self, *args):
        accept(self, *args)
        counts["steps"] += not self.status  # the lane starts another iteration

    monkeypatch.setattr(_Problem, "normal_equations", fresh)
    monkeypatch.setattr(optimizer, "_initial_free_values", started)
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
    initial = optimizer._initial_free_values
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
        counts["starts"] += 1
        return initial(*args)

    def factored(self, *args):
        x, shift = solve(self, *args)
        counts["factored"] += int(np.isfinite(x).all(axis=1).sum())
        return x, shift

    monkeypatch.setattr(optimizer, "prefix_products", sweep)
    monkeypatch.setattr(optimizer, "normal_equations", equations)
    monkeypatch.setattr(optimizer, "_initial_free_values", started)
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


def test_a_stopped_lane_slot_goes_to_the_next_restart(monkeypatch):
    # 11 restarts below the transition with at most 4 live: each lane's
    # tick count (sweeps from its start to its stop) comes from the serial
    # fit, where each restart's sweeps follow the previous one's
    circuit, target, seed = ideal_circuit(4, 4), haar_unitary(4, 2), 4
    starts = [optimizer._initial_free_values(circuit.program, None,
                                             derive_seed(seed, "lma-restart", k))
              for k in range(11)]
    options = LmaOptions(restarts=11, max_iterations=30)
    with mock.patch.object(optimizer, "_lane_cap", lambda program: 1):
        serial, alone = composed_grids(circuit, target, options, seed)
    opened = [found[0] for found in opening_ticks(alone, starts)]
    ticks = np.diff(opened + [len(alone)]).tolist()
    assert min(ticks) < max(ticks)  # the lanes stop on different ticks

    monkeypatch.setattr(optimizer, "_MAX_WIDTH", 4)
    assert optimizer._lane_cap(circuit.program) == 4
    refilled, sweeps = composed_grids(circuit, target, options, seed)
    assert_same_fit(refilled, serial)
    widths, opens = schedule(ticks, 4)
    assert [len(grids) for grids in sweeps] == widths
    # each start is composed once, on the tick its restart takes a slot
    assert opening_ticks(sweeps, starts) == [[t] for t in opens]

    # a target between the serial loop's best losses after 5 and 6 restarts
    # is met first, on tick 49, by restart 7: no later restart opens after
    # it, though slots free up; restart 5 then meets it too, which drops
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
    stop = opens[5][0] + last - 1  # the tick restart 5 met the target on
    assert max(found[0] for found in opens[:8]) < 49 < stop < len(sweeps) - 1
    # lanes 4, 5 and 6 run on three wide after tick 49, and restart 4 alone
    # after restart 5 stops
    assert [len(grids) for grids in sweeps] == (
        [4] * 50 + [3] * (stop - 49) + [1] * (len(sweeps) - stop - 1))


@pytest.mark.parametrize("n, m, restarts, max_iterations", [
    (4, 4, 1, 30), (4, 4, 6, 30), (4, 4, 70, 5),  # below the transition: cap 64
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


# -- lanes across fits: one descent for the fits of one circuit ---------------


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
    batched = fit_targets(circuit, targets, options, list(range(8)))
    assert len(descents) == 1 and len(batched) == 8
    for wide, serial in zip(batched, alone):
        assert_same_fit(wide, serial)
    assert {result.restarts_used for result in batched} == used


@settings(max_examples=60, deadline=None)
@given(fits(), st.integers(1, 5), st.booleans())
def test_a_shared_descent_gives_every_fit_its_serial_result(case, count, serial):
    # any circuit, mask, budget and start, with up to five targets whose
    # fits stop after different restarts; against fits run one lane at a
    # time, or with the default lanes
    circuit, target, options, init, seed = case
    n = circuit.ports
    targets = [target] + [haar_unitary(n, derive_seed(seed, "more", k)) for k in range(1, count)]
    seeds = [derive_seed(seed, "fit", k) for k in range(count)]
    one = fit_at_width_one if serial else fit
    alone = [one(circuit, t, options, init, seed=s) for t, s in zip(targets, seeds)]
    for wide, want in zip(fit_targets(circuit, targets, options, seeds, init), alone):
        assert_same_fit(wide, want)


def test_fit_targets_refuses_mismatched_seeds_and_targets():
    circuit = ideal_circuit(3, 3)
    with pytest.raises(ValueError, match="2 seeds for 1 targets"):
        fit_targets(circuit, [haar_unitary(3, 1)], LmaOptions(), [1, 2])
    with pytest.raises(ValueError, match=r"target shape \(2, 2\)"):
        fit_targets(circuit, [haar_unitary(3, 1), np.eye(2)], LmaOptions(), [1, 2])
    assert fit_targets(circuit, [], LmaOptions(), []) == []


@pytest.mark.parametrize("n, m, restarts, count, width, depth", [
    (16, 16, 3, 3, 2, 2),  # below the transition: 2 MiB a lane, so 2 lanes in all
    (16, 18, 2, 3, 1, 1),  # 288 free phases: one lane, as univ-n16 runs
    (4, 6, 3, 30, 30, 1),  # above the transition: one lane per fit, 30 side by side
    (4, 4, 5, 30, 64, 5),  # below it: 5 lanes per fit, at most 64 in all
])
def test_a_shared_descent_keeps_its_lanes_within_their_budget(
        monkeypatch, n, m, restarts, count, width, depth):
    made, seated = [], []

    class Counted(SpdSolver):
        def __init__(self, size, slots):
            made.append((size, slots))
            super().__init__(size, slots)

    seat = _Problem.seat

    def recorded(self, fits):
        seated.append(list(fits))
        seat(self, fits)

    monkeypatch.setattr(optimizer, "SpdSolver", Counted)
    monkeypatch.setattr(_Problem, "seat", recorded)
    circuit = ideal_circuit(n, m)
    targets = [haar_unitary(n, derive_seed(7, "t", i)) for i in range(count)]
    results = fit_targets(circuit, targets, LmaOptions(restarts=restarts, max_iterations=2),
                          list(range(count)))
    assert len(results) == count
    assert made == [(circuit.program.free_count, width)]
    assert max(len(fits) for fits in seated) == width
    assert max(fits.count(f) for fits in seated for f in fits) == depth
    if n == 16 and m == 16:
        assert width == optimizer._LANE_BYTES >> 21


def test_no_lane_step_is_wasted_above_the_transition(monkeypatch):
    # at M = 6 a fit runs one restart at a time, alone or beside 29 others,
    # so the grids composed over the batch are the sum over serial fits
    circuit = ideal_circuit(4, 6)
    targets = [haar_unitary(4, derive_seed(9, "t", i)) for i in range(30)]
    options = LmaOptions(restarts=5, max_iterations=40)
    grids = []
    prefix_products = optimizer.prefix_products

    def counted(mixers, thetas, out):
        grids.append(len(thetas))
        return prefix_products(mixers, thetas, out)

    monkeypatch.setattr(optimizer, "prefix_products", counted)
    for k, target in enumerate(targets):
        fit(circuit, target, options, seed=k)
    serial, grids[:] = sum(grids), []
    fit_targets(circuit, targets, options, list(range(30)))
    assert sum(grids) == serial and max(grids) == 30


def test_a_fit_is_timed_by_its_share_of_the_ticks():
    circuit = ideal_circuit(4, 4)
    targets = [haar_unitary(4, derive_seed(3, "t", i)) for i in range(6)]
    options = LmaOptions(restarts=4, max_iterations=20)
    t0 = time.perf_counter()
    results = fit_targets(circuit, targets, options, list(range(6)))
    elapsed = time.perf_counter() - t0
    shares = [result.seconds for result in results]
    assert min(shares) > 0 and 0.5 * elapsed < sum(shares) <= elapsed
