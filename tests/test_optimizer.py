import dataclasses

import numpy as np
import pytest

from jxcircuit.circuit import PhaseProgram, compose, ideal_circuit, jacobian, loss, residuals
from jxcircuit.optimizer import (
    FromVector,
    LmaOptions,
    RandomUniform,
    _minimize,
    fit,
    recalibrate,
)
from jxcircuit.circuit import perturbed_circuit
from jxcircuit.sampling import derive_seed, haar_unitary, uniform_phases


class LinearProblem:
    """Synthetic zero-residual linear least squares: r(x) = A x - b."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def loss_of(self, x):
        r = self.a @ x - self.b
        return float(r @ r)

    def residual_of(self, x):
        return self.a @ x - self.b

    def residuals_jacobian(self, x):
        return self.a @ x - self.b, self.a


def test_options_validation():
    with pytest.raises(ValueError):
        LmaOptions(restarts=0)
    with pytest.raises(ValueError):
        LmaOptions(function_tolerance=0.0)
    with pytest.raises(ValueError):
        LmaOptions(damping_factor=1.0)
    with pytest.raises(ValueError):
        FromVector(np.zeros((1, 1)), jitter_fraction=1.0)
    assert LmaOptions().truncated().max_iterations == 50


def test_gauss_newton_exact_on_linear_problem():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    x_true = rng.standard_normal(4)
    problem = LinearProblem(a, a @ x_true)
    options = dataclasses.replace(LmaOptions(), damping_initial=1e-12)
    out = _minimize(problem, np.zeros(4), options)
    assert out.loss < 1e-10
    assert np.abs(out.x - x_true).max() < 1e-8
    assert out.iterations <= 1 + LmaOptions().polish_iterations


def test_step_at_converged_point_keeps_loss():
    circ = ideal_circuit(3, 4)
    target = haar_unitary(3, 21)
    result = fit(circ, target, LmaOptions(restarts=20), seed=2)
    assert result.converged
    # unreachable loss and gradient targets make the one allowed iteration try a step
    one_step = LmaOptions(restarts=1, max_iterations=1, target_loss=1e-300,
                          optimality_tolerance=1e-300)
    stepped = fit(circ, target, one_step, FromVector(result.phases.theta), seed=3)
    assert stepped.loss <= result.loss * (1 + 1e-12) + 1e-25
    delta = np.abs(stepped.phases.theta - result.phases.theta).max()
    assert delta < LmaOptions().step_tolerance


def test_accepted_steps_never_increase_loss():
    circ = ideal_circuit(4, 5)
    target = haar_unitary(4, 33)
    start = uniform_phases(5, 4, 3)
    losses = [loss(compose(circ.with_program(PhaseProgram.free_grid(start))), target)]
    # the descent is deterministic, so a cap of k iterations stops after the
    # k-th accepted step of the same path
    for cap in range(1, 31):
        options = LmaOptions(restarts=1, max_iterations=cap)
        losses.append(fit(circ, target, options, FromVector(start), seed=0).loss)
        assert losses[-1] <= losses[-2]
    assert losses[-1] < losses[0]


def test_fit_recovers_known_phases():
    for n in (2, 4):
        m = n + 1
        circ = ideal_circuit(n, m)
        known = PhaseProgram.free_grid(uniform_phases(m, n, 10 + n))
        target = compose(circ.with_program(known))
        result = fit(circ, target, LmaOptions(restarts=30), seed=4)
        assert result.converged
        assert result.loss < 1e-10


def test_fit_haar_target_above_transition():
    target = haar_unitary(4, 77)
    result = fit(ideal_circuit(4, 5), target, LmaOptions(restarts=100), seed=5)
    assert result.loss < 1e-10
    assert result.converged


def test_fit_haar_target_below_transition_plateaus():
    target = haar_unitary(4, 78)
    result = fit(ideal_circuit(4, 4), target, LmaOptions(restarts=10), seed=6)
    assert not result.converged
    assert result.loss > 1e-8


def test_gradient_small_at_converged_optimum():
    circ = ideal_circuit(4, 5)
    target = haar_unitary(4, 90)
    result = fit(circ, target, LmaOptions(restarts=30), seed=7)
    assert result.converged
    at_optimum = circ.with_program(result.phases)
    grad = jacobian(at_optimum, target).T @ residuals(at_optimum, target)
    assert np.abs(grad).max() < 1e-8


def test_fixed_phases_preserved_bitwise():
    from jxcircuit.circuit import apply_fault_plan

    program = apply_fault_plan(
        PhaseProgram.zeros(5, 4), [(0, 1, 1.234567890123), (3, 2, 0.777)]
    )
    circ = ideal_circuit(4, 5).with_program(program)
    result = fit(circ, haar_unitary(4, 55), LmaOptions(restarts=20), seed=8)
    assert result.phases.theta[0, 1] == 1.234567890123
    assert result.phases.theta[3, 2] == 0.777
    assert np.array_equal(result.phases.fixed, program.fixed)


def test_fit_deterministic():
    circ = ideal_circuit(3, 4)
    target = haar_unitary(3, 60)
    a = fit(circ, target, LmaOptions(restarts=5), seed=9)
    b = fit(circ, target, LmaOptions(restarts=5), seed=9)
    assert a.loss == b.loss
    assert a.iterations == b.iterations
    assert a.restarts_used == b.restarts_used
    assert np.array_equal(a.phases.theta, b.phases.theta)


def test_fit_loss_matches_recomposition():
    circ = ideal_circuit(3, 3)
    target = haar_unitary(3, 61)
    result = fit(circ, target, LmaOptions(restarts=3), seed=10)
    recomputed = loss(compose(circ.with_program(result.phases)), target)
    assert abs(result.loss - recomputed) < 1e-14


def test_recalibrate_returns_original_when_already_optimal():
    n, m = 4, 5
    ideal = ideal_circuit(n, m)
    target = haar_unitary(n, 70)
    fitted = fit(ideal, target, LmaOptions(restarts=20), seed=11)
    assert fitted.converged
    perturbed = perturbed_circuit(n, m, 0.0, seed=12).with_program(fitted.phases)
    result = recalibrate(
        perturbed, target, attempts=3, init=FromVector(fitted.phases.theta, 0.0),
        seed=13,
    )
    assert np.array_equal(result.phases.theta, fitted.phases.theta)
    assert result.loss < 1e-10
    assert result.iterations == 0


def test_recalibrate_fixes_perturbed_circuit():
    n, m = 4, 5
    target = haar_unitary(n, 71)
    fitted = fit(ideal_circuit(n, m), target, LmaOptions(restarts=20), seed=14)
    perturbed = perturbed_circuit(n, m, 0.004, seed=15).with_program(fitted.phases)
    before = loss(compose(perturbed), target)
    assert before > 1e-6
    result = recalibrate(perturbed, target, attempts=10, seed=16)
    assert result.loss < 1e-10


def test_init_strategies_differ_per_restart():
    from jxcircuit.optimizer import _initial_free_values

    program = PhaseProgram.zeros(3, 3)
    a = _initial_free_values(program, RandomUniform(), derive_seed(1, "r", 0))
    b = _initial_free_values(program, RandomUniform(), derive_seed(1, "r", 1))
    assert not np.array_equal(a, b)
    base = uniform_phases(3, 3, 5)
    c = _initial_free_values(program, FromVector(base, 0.0), 123)
    assert np.array_equal(c, base.ravel())
    d = _initial_free_values(program, FromVector(base, 0.1), 124)
    assert np.abs(d / base.ravel() - 1.0).max() <= 0.1
