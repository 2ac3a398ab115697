"""Restart lanes and compose-once: what a fit gets does not depend on how its
descents are batched, and no point is composed twice.

``fit`` runs its restarts in batches of lanes, side by side, each tick
composing every live lane's request in one stacked sweep.  Its result must
be the serial loop's: here the default widths are compared with width
pinned to 1 (``_WIDTH_GROWTH = 1``), on loss targets that some restarts of
a batch reach and others do not.  The normal equations at a point are read
from the prefix products of the composition that gave the point, which
must equal those of a fresh sweep bitwise.
"""

import gc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit import optimizer
from jxcircuit.circuit import InterlacedCircuit, PhaseProgram, apply_fault_plan, ideal_circuit
from jxcircuit.lattice import MixingLayer
from jxcircuit.numerics import SpdSolver
from jxcircuit.optimizer import LmaOptions, _drive, _Problem, fit
from jxcircuit.sampling import derive_seed, haar_unitary
from jacobian_reference import evaluate


def haar_circuit(n, m, seed, fixed):
    layers = tuple(MixingLayer(haar_unitary(n, derive_seed(seed, "slot", k)))
                   for k in range(m + 1))
    return InterlacedCircuit(layers, PhaseProgram(np.zeros((m, n)), fixed))


@st.composite
def fits(draw):
    """(circuit, target, options, seed): N 1-5, M 1-6, any mask, restarts
    1-12, 1-40 iterations per descent.  The loss target is either drawn
    log-uniformly from [1e-10, 1], or a fraction (0.5-1) of the loss the
    first restart reaches, so that restart fails and a later one may not."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    fixed = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    circuit = haar_circuit(n, m, seed, fixed.reshape(m, n))
    target = haar_unitary(n, derive_seed(seed, "target"))
    options = LmaOptions(max_iterations=draw(st.integers(1, 40)),
                         restarts=draw(st.integers(1, 12)),
                         target_loss=10.0 ** draw(st.floats(-10.0, 0.0)))
    fraction = draw(st.none() | st.floats(0.5, 1.0))
    if fraction is not None:
        first = fit(circuit, target, replace(options, restarts=1), seed=seed).loss
        options = replace(options, target_loss=max(first * fraction, 1e-300))
    return circuit, target, options, seed


def fit_at_width_one(*args, **kwargs):
    with mock.patch.object(optimizer, "_WIDTH_GROWTH", 1):
        return fit(*args, **kwargs)


def fit_in_lanes(*args, **kwargs):
    """``fit`` with lanes on either side of the transition."""
    with mock.patch.object(optimizer, "_lane_cap", lambda program: optimizer._MAX_WIDTH):
        return fit(*args, **kwargs)


@settings(max_examples=150, deadline=None)
@given(fits())
def test_lanes_give_the_serial_fit(case):
    circuit, target, options, seed = case
    serial = fit_at_width_one(circuit, target, options, seed=seed)
    for wide in (fit(circuit, target, options, seed=seed),
                 fit_in_lanes(circuit, target, options, seed=seed)):
        assert np.array_equal(wide.phases.theta, serial.phases.theta)
        for field in ("loss", "iterations", "restarts_used", "status", "converged",
                      "total_iterations", "rejected_trials"):
            assert getattr(wide, field) == getattr(serial, field), field


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
    # N = 16, M = 16: 256 free phases, so J'J and the solver's matrix take
    # 1 MiB per lane
    assert optimizer._lane_cap(PhaseProgram.zeros(16, 16)) == optimizer._LANE_BYTES >> 20


def test_a_target_reached_mid_batch_stops_the_fit_there(monkeypatch):
    # below the transition no restart reaches 1e-10; a target between two
    # successive best losses of the serial loop is first reached where the
    # serial loop reaches it, inside the 4-wide second batch (restarts 2-5)
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
    assert {2, 3, 4} & set(used), used  # later lanes of the batch were dropped

    sweeps = []
    prefix_products = optimizer.prefix_products

    def counted(mixers, thetas, out):
        sweeps.append(len(thetas))
        return prefix_products(mixers, thetas, out)

    monkeypatch.setattr(optimizer, "prefix_products", counted)
    full = fit(circuit, target, LmaOptions(restarts=21, max_iterations=30), seed=3)
    assert full.restarts_used == 21 and not full.converged
    assert max(sweeps) == 16  # the third batch: 16 lanes, one grid each


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_normal_equations_from_stored_prefixes_equal_a_fresh_sweep(n, m, seed, data):
    fixed = np.array(data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    circuit = haar_circuit(n, m, seed, fixed.reshape(m, n))
    program, mixers = circuit.program, circuit.mixer_stack()
    target = haar_unitary(n, derive_seed(seed, "target"))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2 * np.pi, program.free_count)
    delta = rng.standard_normal(x.size)
    problem = _Problem(mixers, program, target)
    lane = problem.lanes(2)[1]

    def check(owner, point):  # before the owner's next request overwrites it
        jtj, g = owner.normal_equations(point)
        theta = program.with_free_values(point.x).theta
        fresh_jtj, fresh_g = evaluate(mixers, theta, program.free_mask, target)
        assert np.array_equal(jtj, fresh_jtj)
        assert np.array_equal(g, fresh_g)

    # alone: a single-grid pass
    check(problem, _drive(problem, [problem.loss_of(x)])[0])
    # side by side in one stacked sweep, copied out to each lane's buffers
    behind, ahead = _drive(problem, [lane.loss_of(x - delta), problem.loss_of(x + delta)])
    check(lane, behind)
    check(problem, ahead)


@pytest.mark.parametrize("lanes", [False, True])
def test_every_fit_reads_the_normal_equations_of_its_current_point(monkeypatch, lanes):
    # a lane's compositions share one sweep buffer, so a rejected trial
    # overwrites the prefixes its current point views; every call of the
    # normal equations during a fit must still see the current point's
    if not lanes:
        monkeypatch.setattr(optimizer, "_WIDTH_GROWTH", 1)
    checked = []
    normal_equations = _Problem.normal_equations

    def fresh(self, point):
        jtj, g = normal_equations(self, point)
        theta = self.program.with_free_values(point.x).theta
        want_jtj, want_g = evaluate(self.mixers, theta, self.free, self.target)
        assert np.array_equal(jtj, want_jtj) and np.array_equal(g, want_g)
        checked.append(self)
        return jtj, g

    monkeypatch.setattr(_Problem, "normal_equations", fresh)
    # below the transition every restart runs: 21 in batches of 1, 4 and 16
    result = fit(ideal_circuit(4, 4), haar_unitary(4, 9),
                 LmaOptions(restarts=21, max_iterations=30), seed=3)
    assert result.restarts_used == 21 and result.rejected_trials > 0
    assert len(set(map(id, checked))) == (16 if lanes else 1)


def test_one_single_grid_sweep_per_start_and_per_successful_factorization(monkeypatch):
    # at width 1: a descent's start is one single-grid sweep, and so is each
    # damping trial whose factorization succeeds; the normal equations
    # sweep nothing
    monkeypatch.setattr(optimizer, "_WIDTH_GROWTH", 1)
    counts = {"sweeps": [], "starts": 0, "factored": 0}
    prefix_products = optimizer.prefix_products
    normal_equations = optimizer.normal_equations
    minimize = optimizer._minimize
    factor = SpdSolver.factor

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
        return minimize(*args)

    def factored(self, *args):
        ok = factor(self, *args)
        counts["factored"] += ok
        return ok

    monkeypatch.setattr(optimizer, "prefix_products", sweep)
    monkeypatch.setattr(optimizer, "normal_equations", equations)
    monkeypatch.setattr(optimizer, "_minimize", started)
    monkeypatch.setattr(SpdSolver, "factor", factored)
    result = fit(ideal_circuit(4, 4), haar_unitary(4, 8), LmaOptions(restarts=3), seed=4)
    assert result.restarts_used == 3 and not result.converged
    sweeps = counts["sweeps"]
    assert set(sweeps) == {1}
    assert counts["starts"] == result.restarts_used
    assert len(sweeps) == counts["starts"] + counts["factored"]
    assert counts["factored"] >= result.total_iterations > 0


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
        alive = [o for o in gc.get_objects() if isinstance(o, _Problem)]
    finally:
        gc.enable()
    assert result.restarts_used == 6  # two batches, the second of 4 lanes
    assert alive == []
