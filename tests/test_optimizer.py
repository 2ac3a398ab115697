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
    apply_fault_plan,
    compose,
    ideal_circuit,
    loss,
    perturbed_circuit,
    transfer_matrix,
)
from jxcircuit import numerics
from jxcircuit.numerics import SpdSolver
from jxcircuit.optimizer import LmaOptions, _descend, fit, fit_targets
from jxcircuit.sampling import derive_seed, haar_unitary, uniform_phases
from jacobian_reference import residuals_and_jacobian


class LinearProblem:
    """Synthetic zero-residual linear least squares: r(x) = A x - b, so J is A.

    It answers a descent of one fit as ``optimizer._Problem`` does:
    ``losses`` evaluates a stack of points and keeps their residuals, where
    a circuit keeps its prefix products, and ``normal_equations`` reads
    them.  Its damping is in units of the largest entry of diag(A'A).
    """

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.free_count = a.shape[1]
        self.diagonal = float(np.diagonal(a.T @ a).max())

    def seat(self, slots, fits):
        assert set(slots) <= {0} and set(fits) <= {0}

    def losses(self, xs):
        self.residuals = xs @ self.a.T - self.b
        return np.vecdot(self.residuals, self.residuals)

    def normal_equations(self, rows, gram, jtj):
        jtj[...] = self.a.T @ self.a
        return self.residuals[rows] @ self.a


def fit_from(circuit, target, options, start, seed):
    """The fit of ``circuit`` to ``target`` from the start grid ``start``."""
    return fit_targets([(circuit, target, seed, start)], options)[0]


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
def test_non_finite_start_phases_are_refused(monkeypatch, bad):
    refuse_compositions(monkeypatch)
    theta = np.zeros((4, 3))
    theta[2, 1] = bad
    with pytest.raises(ValueError, match="start phases contain non-finite values"):
        fit_from(ideal_circuit(3, 4), haar_unitary(3, 1), LmaOptions(restarts=2), theta, 0)


def test_nan_damping_gives_up_instead_of_looping():
    # a NaN start phase in the first layer makes every later prefix product
    # and so J'J NaN: no damped matrix factors, and the damping doubles past
    # the cap
    circ = ideal_circuit(3, 4)
    problem = optimizer._Problem([circ.mixers], circ.program, haar_unitary(3, 1)[None], 1)
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
    assert first == optimizer._DAMPING_SCALE
    assert after == first * (1.0 / 3.0)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_first_shift_is_marquardts_scaled_damping(monkeypatch, n):
    # the first lambda is _DAMPING_SCALE in units of diag(J'J) = 1 / N^2, so
    # the first shift is 1e-3 / N^2, with diag(J'J) applied once
    shifts = []
    solve = SpdSolver.solve

    def solving(self, jtj, rows, mu, g):
        shifts.append(mu.copy())
        return solve(self, jtj, rows, mu, g)

    monkeypatch.setattr(SpdSolver, "solve", solving)
    fit(ideal_circuit(n, n + 1), haar_unitary(n, 3), LmaOptions(restarts=1), seed=2)
    assert shifts[0].tolist() == [[optimizer._DAMPING_SCALE * (1.0 / n**2)]]


def test_n16_fit_pays_few_solves_per_jacobian(monkeypatch):
    # every rejected damping trial costs one O(P^3) factorization; the
    # gain-ratio update keeps rejections rare after accepted steps, and a
    # first shift of 1e-3 / N^2 keeps them rare at the start: this fit
    # takes 23 factorizations for 20 Jacobians (31 for 20 when the first
    # shift was 1e-3 / N^4)
    calls = {"factor": 0, "jacobian": 0}
    solve, normal_equations = SpdSolver.solve, optimizer._Problem.normal_equations

    def solving(self, jtj, rows, mu, g):
        calls["factor"] += len(rows)
        return solve(self, jtj, rows, mu, g)

    def equations(self, rows, gram, jtj):
        calls["jacobian"] += len(jtj)
        return normal_equations(self, rows, gram, jtj)

    monkeypatch.setattr(SpdSolver, "solve", solving)
    monkeypatch.setattr(optimizer._Problem, "normal_equations", equations)
    fit(ideal_circuit(16, 18), haar_unitary(16, 5), LmaOptions(restarts=1), seed=1)
    assert calls["factor"] <= 1.3 * calls["jacobian"], calls


@pytest.mark.skipif(numerics._LAPACK is None,
                    reason="numpy.linalg's LAPACK exports no dpotrf here")
def test_indefinite_damped_matrix_grows_damping():
    # J'J with a zero diagonal, shifted by at most the cap times a tiny
    # diagonal scale, stays indefinite, so each trial's factorization fails,
    # no step is tried and the descent gives up where it started
    problem = LinearProblem(np.eye(2), np.ones(2))
    problem.diagonal = 1e-30
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
    # the damping doubled from its first value once per failed
    # factorization, until it passed the cap
    lam, doublings = optimizer._DAMPING_SCALE, 0
    while lam <= optimizer._DAMPING_MAX:
        lam, doublings = lam * optimizer._DAMPING_FACTOR, doublings + 1
    assert out.rejected == doublings and out.lam == lam


def test_fits_run_on_the_lu_fallback(monkeypatch):
    # where numpy's LAPACK exports no dpotrf the damped systems are solved
    # by numpy.linalg.solve; both sides of the transition still fit
    monkeypatch.setattr(numerics, "_LAPACK", None)
    made, solves = [], []
    linalg_solve = np.linalg.solve

    class Recorded(SpdSolver):
        def __init__(self, size, slots):
            super().__init__(size, slots)
            made.append(self)

    def counted(a, b):
        solves.append(len(a))
        return linalg_solve(a, b)

    monkeypatch.setattr(optimizer, "SpdSolver", Recorded)
    monkeypatch.setattr(np.linalg, "solve", counted)
    above = fit(ideal_circuit(4, 5), haar_unitary(4, 77), LmaOptions(restarts=20), seed=5)
    assert above.converged and above.status == "target"
    below = fit(ideal_circuit(4, 4), haar_unitary(4, 78), LmaOptions(restarts=6), seed=6)
    assert below.restarts_used == 6 and not below.converged
    assert below.loss > 1e-8 and below.total_iterations > below.iterations
    # every solver the fits built took the numpy.linalg.solve path
    assert len(made) == 2 and all(solver._posv is None for solver in made)
    assert set(solves) == {20, 16}


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
    stepped = fit_from(circ, target, one_step, result.phases.theta, 3)
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
        losses.append(fit_from(circ, target, options, start, 0).loss)
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


@pytest.mark.parametrize("n, m, faults, sigma, count, options", [
    (3, 3, [], None, 1, LmaOptions(restarts=3)),
    (4, 4, [], None, 1, LmaOptions(restarts=6)),  # below the transition: six lanes
    # four shifters of one layer frozen: some targets take several restarts
    (4, 6, [(2, 0, 0.5), (2, 1, 1.0), (2, 2, 2.0), (2, 3, 0.3)], None, 4,
     LmaOptions(restarts=6, max_iterations=100)),
    # truncated refits, each fit on perturbed mixers of its own
    (4, 5, [], 0.004, 4, LmaOptions(restarts=3, max_iterations=20)),
    (16, 18, [], None, 1, LmaOptions(restarts=1)),
])
def test_fit_loss_matches_recomposition(n, m, faults, sigma, count, options):
    # a result's loss is its best lane's, taken from the descent's stacked
    # sweep and never composed again: it must be bitwise the loss of its
    # phases composed alone, and decide convergence as that loss does
    program = apply_fault_plan(PhaseProgram.zeros(m, n), faults)
    circuits = [(ideal_circuit(n, m) if sigma is None else
                 perturbed_circuit(n, m, sigma, seed=70 + k)).with_program(program)
                for k in range(count)]
    targets = [haar_unitary(n, 61 + k) for k in range(count)]
    results = fit_targets([(circuit, target, 10 + k, None)
                           for k, (circuit, target) in enumerate(zip(circuits, targets))],
                          options)
    for circuit, target, result in zip(circuits, targets, results):
        recomposed = loss(transfer_matrix(circuit.mixers, result.phases.theta), target)
        assert result.loss == recomposed
        assert result.converged == (recomposed < options.target_loss)


def test_fit_from_an_exact_start_keeps_it_without_iterating():
    n, m = 4, 5
    ideal = ideal_circuit(n, m)
    target = haar_unitary(n, 70)
    fitted = fit(ideal, target, LmaOptions(restarts=20), seed=11)
    assert fitted.converged
    perturbed = perturbed_circuit(n, m, 0.0, seed=12).with_program(fitted.phases)
    result = fit_from(perturbed, target, LmaOptions(max_iterations=50, restarts=3),
                      fitted.phases.theta, 13)
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


def test_initial_free_values_are_seeded_draws_or_a_given_grid():
    from jxcircuit.optimizer import _restart_starts

    program = PhaseProgram.zeros(3, 3)
    a, b = _restart_starts(program, None, 1, 2)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, uniform_phases(3, 3, derive_seed(1, "lma-restart", 0)).ravel())
    # restart 0 opens at the given grid, and every later restart k at the
    # draw of a random fit's restart k
    base = uniform_phases(3, 3, 5)
    given = list(_restart_starts(program, base, 124, 4))
    drawn = list(_restart_starts(program, None, 124, 4))
    assert np.array_equal(given[0], base.ravel())
    assert not np.array_equal(given[0], drawn[0])
    for k in range(1, 4):
        assert np.array_equal(given[k], drawn[k])
    # the free values only: a frozen entry of the grid is not a start value
    faulty = apply_fault_plan(program, [(1, 2, 0.5)])
    c, = _restart_starts(faulty, base, 124, 1)
    assert np.array_equal(c, base[faulty.free_mask])


def refuse_compositions(monkeypatch):
    def composed(*args):
        pytest.fail("a fit with a refused input composed its circuit")

    monkeypatch.setattr(optimizer, "prefix_products", composed)


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


@pytest.mark.parametrize("shape", [(4, 6), (7, 4), (3, 8), (6, 4, 1), (23,), (24,)])
def test_a_wrong_shaped_start_grid_is_refused_before_any_composition(monkeypatch, shape):
    # a 6 x 4 circuit takes its (6, 4) grid only; a transposed, taller,
    # flat or reshaped grid of the same size would be read layer-major as
    # some other grid, or not at all
    refuse_compositions(monkeypatch)
    with pytest.raises(ValueError, match=r"start grid shape .*\(6, 4\)"):
        fit_from(ideal_circuit(4, 6), haar_unitary(4, 1), LmaOptions(restarts=2),
                 np.zeros(shape), 0)
