import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import jxcircuit
from jxcircuit import optimizer
from jxcircuit.circuit import (
    PhaseProgram,
    compose,
    ideal_circuit,
    loss,
    perturbed_circuit,
)
from jxcircuit import numerics
from jxcircuit.numerics import CholeskySolver, LuSolver, SpdSolver
from jxcircuit.optimizer import FromVector, LmaOptions, _descend, fit
from jxcircuit.sampling import derive_seed, haar_unitary, uniform_phases
from jacobian_reference import residuals_and_jacobian


class LinearProblem:
    """Synthetic zero-residual linear least squares: r(x) = A x - b, so J is A.

    It answers a descent of one fit as ``optimizer._Problem`` does:
    ``losses`` evaluates a stack of points and keeps their residuals, where
    a circuit keeps its prefix products, and ``normal_equations`` reads
    them.
    """

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.free_count = a.shape[1]

    def seat(self, fits):
        assert set(fits) == {0}

    def losses(self, xs):
        self.residuals = xs @ self.a.T - self.b
        return np.vecdot(self.residuals, self.residuals)

    def normal_equations(self, rows, gram, jtj):
        jtj[...] = self.a.T @ self.a
        return self.residuals[rows] @ self.a


def descend(problem, x0, options):
    """The stopped lane of one descent, run alone."""
    ((out,),), _ = _descend(problem, [x0[None]], options, 1, 1)
    return out


def test_options_validation():
    with pytest.raises(ValueError, match="restarts"):
        LmaOptions(restarts=0)
    with pytest.raises(ValueError, match="max_iterations"):
        LmaOptions(max_iterations=0)
    for bad in (0.0, -1e-10, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="target_loss must be finite and positive"):
            LmaOptions(target_loss=bad)
    with pytest.raises(ValueError):
        FromVector(np.zeros((1, 1)), jitter_fraction=1.0)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_start_phases_are_refused(bad):
    theta = np.zeros((4, 3))
    theta[2, 1] = bad
    with pytest.raises(ValueError, match="start phases contain non-finite values"):
        FromVector(theta)


def test_nan_damping_gives_up_instead_of_looping():
    # a NaN start phase in the first layer makes every later prefix product,
    # diag(J'J) and so the damping NaN; the damping loop counts a NaN as over
    # the cap, since NaN > cap is never true
    circ = ideal_circuit(3, 4)
    problem = optimizer._Problem(circ.mixers, circ.program, haar_unitary(3, 1)[None], 1)
    x0 = np.zeros(circ.program.free_count)
    x0[0] = np.nan
    with deadline(20):
        out = descend(problem, x0, LmaOptions(restarts=1, max_iterations=5))
    assert out.status == "stalled" and out.iterations == 0


def test_gauss_newton_exact_on_linear_problem(monkeypatch):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    x_true = rng.standard_normal(4)
    problem = LinearProblem(a, a @ x_true)
    # almost undamped, so the first step is the Gauss-Newton step
    monkeypatch.setattr(optimizer, "_DAMPING_SCALE", 1e-13)
    out = descend(problem, np.zeros(4), LmaOptions())
    assert out.loss < 1e-10
    assert np.abs(out.x - x_true).max() < 1e-8
    assert out.iterations <= 1 + optimizer._POLISH_ITERATIONS


def test_accepted_exact_step_shrinks_damping_threefold(monkeypatch):
    # on a linear problem the Gauss-Newton model is exact, so the gain ratio
    # is 1 and Nielsen's update takes the smallest factor, 1/3
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 4))
    problem = LinearProblem(a, a @ rng.standard_normal(4))
    updates = []
    gain_damping = optimizer._gain_damping

    def recording(lam, *args):
        updates.append((lam, gain_damping(lam, *args)))
        return updates[-1][1]

    monkeypatch.setattr(optimizer, "_gain_damping", recording)
    descend(problem, np.zeros(4), LmaOptions())
    first, after = updates[0]
    # the first damping, so the first trial was accepted
    assert first == optimizer._DAMPING_SCALE * np.diagonal(a.T @ a).max()
    assert after == first * (1.0 / 3.0)


def test_n16_fit_pays_few_solves_per_jacobian(monkeypatch):
    # every rejected damping trial costs one O(P^3) factorization; the
    # gain-ratio update keeps rejections rare after accepted steps
    calls = {"factor": 0, "jacobian": 0}
    solve, normal_equations = SpdSolver.solve, optimizer._Problem.normal_equations

    def solving(self, a, lam, rhs):
        calls["factor"] += len(a)
        return solve(self, a, lam, rhs)

    def equations(self, rows, gram, jtj):
        calls["jacobian"] += len(jtj)
        return normal_equations(self, rows, gram, jtj)

    monkeypatch.setattr(SpdSolver, "solve", solving)
    monkeypatch.setattr(optimizer._Problem, "normal_equations", equations)
    fit(ideal_circuit(16, 18), haar_unitary(16, 5), LmaOptions(restarts=1), seed=1)
    assert calls["factor"] <= 3.5 * calls["jacobian"], calls


@pytest.mark.skipif(SpdSolver is not CholeskySolver,
                    reason="numpy.linalg's LAPACK exports no dpotrf here")
def test_indefinite_damped_matrix_grows_damping():
    # J'J with a zero diagonal stays indefinite for every damping below the
    # cap, so each trial's factorization fails, no step is tried and the
    # descent gives up where it started
    problem = LinearProblem(np.eye(2), np.ones(2))
    normal_equations, losses = problem.normal_equations, problem.losses
    composed = []

    def indefinite(rows, gram, jtj):
        g = normal_equations(rows, gram, jtj)
        jtj[...] = [[0.0, 1.0], [1.0, 0.0]]
        return g

    def evaluated(xs):
        composed.append(xs.copy())
        return losses(xs)

    problem.normal_equations, problem.losses = indefinite, evaluated
    x = np.zeros(2)
    out = descend(problem, x, LmaOptions())
    assert len(composed) == 1, "a step was tried"
    assert out.status == "stalled" and out.iterations == 0
    assert np.array_equal(out.x, x) and out.loss == losses(x[None])[0]
    assert out.lam > optimizer._DAMPING_MAX
    # the damping doubled from its first value (diag J'J is floored at
    # 1e-30) once per failed factorization, until it passed the cap
    lam, doublings = optimizer._DAMPING_SCALE * 1e-30, 0
    while lam <= optimizer._DAMPING_MAX:
        lam, doublings = lam * optimizer._DAMPING_FACTOR, doublings + 1
    assert out.rejected == doublings and out.lam == lam


def test_fits_run_on_the_lu_fallback(monkeypatch):
    # where numpy's LAPACK exports no dpotrf the damped systems are solved
    # by numpy.linalg.solve; both sides of the transition still fit
    monkeypatch.setattr(numerics, "_LAPACK", None)
    monkeypatch.setattr(optimizer, "SpdSolver", LuSolver)
    with pytest.raises(RuntimeError, match="dpotrf"):
        CholeskySolver(3, 1)
    above = fit(ideal_circuit(4, 5), haar_unitary(4, 77), LmaOptions(restarts=20), seed=5)
    assert above.converged and above.status == "target"
    below = fit(ideal_circuit(4, 4), haar_unitary(4, 78), LmaOptions(restarts=6), seed=6)
    assert below.restarts_used == 6 and not below.converged
    assert below.loss > 1e-8 and below.total_iterations > below.iterations


def test_fit_imports_no_scipy():
    # the damped solve binds LAPACK through numpy; importing scipy.linalg
    # would cost tens of MiB of resident memory in every worker
    src = str(Path(jxcircuit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, jxcircuit; "
            "jxcircuit.fit(jxcircuit.ideal_circuit(3, 4), jxcircuit.haar_unitary(3, 1), "
            "jxcircuit.LmaOptions(restarts=2), seed=0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_step_at_converged_point_keeps_loss(monkeypatch):
    circ = ideal_circuit(3, 4)
    target = haar_unitary(3, 21)
    result = fit(circ, target, LmaOptions(restarts=20), seed=2)
    assert result.converged
    # unreachable loss and gradient targets make the one allowed iteration try a step
    monkeypatch.setattr(optimizer, "_OPTIMALITY_TOLERANCE", 1e-300)
    one_step = LmaOptions(restarts=1, max_iterations=1, target_loss=1e-300)
    stepped = fit(circ, target, one_step, FromVector(result.phases.theta), seed=3)
    assert stepped.loss <= result.loss * (1 + 1e-12) + 1e-25
    delta = np.abs(stepped.phases.theta - result.phases.theta).max()
    assert delta < optimizer._STEP_TOLERANCE


def test_accepted_steps_never_increase_loss():
    circ = ideal_circuit(4, 5)
    target = haar_unitary(4, 33)
    start = uniform_phases(5, 4, 3)
    free = PhaseProgram(start, np.zeros(start.shape, bool))
    losses = [loss(compose(circ.with_program(free)), target)]
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
        known = PhaseProgram(uniform_phases(m, n, 10 + n), np.zeros((m, n), bool))
        target = compose(circ.with_program(known))
        result = fit(circ, target, LmaOptions(restarts=30), seed=4)
        assert result.converged
        assert result.loss < 1e-10


def test_fit_haar_target_above_transition():
    target = haar_unitary(4, 77)
    result = fit(ideal_circuit(4, 5), target, LmaOptions(restarts=100), seed=5)
    assert result.loss < 1e-10
    assert result.converged
    assert result.status == "target"


def test_fit_haar_target_below_transition_plateaus():
    target = haar_unitary(4, 78)
    result = fit(ideal_circuit(4, 4), target, LmaOptions(restarts=10), seed=6)
    assert not result.converged
    assert result.loss > 1e-8
    assert result.status in ("ftol", "xtol", "gtol", "maxiter", "stalled")


def test_gradient_small_at_converged_optimum():
    circ = ideal_circuit(4, 5)
    target = haar_unitary(4, 90)
    result = fit(circ, target, LmaOptions(restarts=30), seed=7)
    assert result.converged
    r, jac = residuals_and_jacobian(circ.mixers, result.phases.theta,
                                    result.phases.free_mask, target)
    grad = jac.T @ r
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


def test_fit_from_an_exact_start_keeps_it_without_iterating():
    n, m = 4, 5
    ideal = ideal_circuit(n, m)
    target = haar_unitary(n, 70)
    fitted = fit(ideal, target, LmaOptions(restarts=20), seed=11)
    assert fitted.converged
    perturbed = perturbed_circuit(n, m, 0.0, seed=12).with_program(fitted.phases)
    result = fit(perturbed, target, LmaOptions(max_iterations=50, restarts=3),
                 FromVector(fitted.phases.theta, 0.0), seed=13)
    assert np.array_equal(result.phases.theta, fitted.phases.theta)
    assert result.loss < 1e-10
    assert result.iterations == 0


def test_truncated_restarts_refit_a_perturbed_circuit():
    n, m = 4, 5
    target = haar_unitary(n, 71)
    fitted = fit(ideal_circuit(n, m), target, LmaOptions(restarts=20), seed=14)
    perturbed = perturbed_circuit(n, m, 0.004, seed=15).with_program(fitted.phases)
    before = loss(compose(perturbed), target)
    assert before > 1e-6
    result = fit(perturbed, target, LmaOptions(max_iterations=50, restarts=10), seed=16)
    assert result.loss < 1e-10


def test_initial_free_values_are_seeded_draws_or_a_jittered_grid():
    from jxcircuit.optimizer import _initial_free_values

    program = PhaseProgram.zeros(3, 3)
    a = _initial_free_values(program, None, derive_seed(1, "r", 0))
    b = _initial_free_values(program, None, derive_seed(1, "r", 1))
    assert not np.array_equal(a, b)
    base = uniform_phases(3, 3, 5)
    c = _initial_free_values(program, FromVector(base, 0.0), 123)
    assert np.array_equal(c, base.ravel())
    d = _initial_free_values(program, FromVector(base, 0.1), 124)
    assert np.abs(d / base.ravel() - 1.0).max() <= 0.1


def refuse_compositions(monkeypatch):
    def composed(*args):
        pytest.fail("a fit with a refused input composed its circuit")

    monkeypatch.setattr(optimizer, "prefix_products", composed)
    monkeypatch.setattr(optimizer, "transfer_matrix", composed)


@pytest.mark.parametrize("shape", [(4, 1), (1, 4), (1, 1), (5, 5)])
def test_a_wrong_shaped_target_is_refused_before_any_composition(monkeypatch, shape):
    refuse_compositions(monkeypatch)
    target = np.eye(*shape, dtype=complex)
    with pytest.raises(ValueError, match=rf"target shape \({shape[0]}, {shape[1]}\).*\(4, 4\)"):
        fit(ideal_circuit(4, 6), target, LmaOptions(restarts=3), seed=0)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                   complex(1, -np.inf)])
def test_a_non_finite_target_is_refused_before_any_composition(monkeypatch, entry):
    # a NaN loss is never below a trial's, so every restart would reject
    # every step until its damping passed the cap
    refuse_compositions(monkeypatch)
    target = haar_unitary(4, 1)
    target[0, 0] = entry
    with pytest.raises(ValueError, match="target has non-finite entries"):
        fit(ideal_circuit(4, 5), target, LmaOptions(restarts=10), seed=0)


@pytest.mark.parametrize("shape", [(4, 6), (7, 4), (3, 8), (6, 4, 1), (23,)])
def test_a_wrong_shaped_start_grid_is_refused_before_any_composition(monkeypatch, shape):
    # a 6 x 4 circuit takes its (6, 4) grid or the flat 24 phases; a
    # transposed, taller or reshaped grid of the same size would be read
    # layer-major as some other grid
    refuse_compositions(monkeypatch)
    init = FromVector(np.zeros(shape))
    with pytest.raises(ValueError, match=r"start grid shape .*\(6, 4\).*\(24,\)"):
        fit(ideal_circuit(4, 6), haar_unitary(4, 1), LmaOptions(restarts=2), init, seed=0)


def test_a_start_grid_may_be_flat():
    circ, target = ideal_circuit(4, 6), haar_unitary(4, 2)
    grid = uniform_phases(6, 4, 3)
    options = LmaOptions(restarts=2, max_iterations=20)
    as_grid = fit(circ, target, options, FromVector(grid, 0.1), seed=4)
    as_vector = fit(circ, target, options, FromVector(grid.ravel(), 0.1), seed=4)
    assert np.array_equal(as_grid.phases.theta, as_vector.phases.theta)
    assert as_grid.loss == as_vector.loss
