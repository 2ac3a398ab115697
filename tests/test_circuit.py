import numpy as np
import pytest

from jxcircuit.circuit import (
    InterlacedCircuit,
    PhaseProgram,
    apply_fault_plan,
    compose,
    ideal_circuit,
    jacobian,
    loss,
    perturbed_circuit,
    residual_vector,
    residuals,
    transfer_matrix,
)
from jxcircuit.lattice import JxSpec, dfrft, perturbed_mixer
from jxcircuit.numerics import frobenius_norm, unitarity_defect
from jxcircuit.sampling import derive_seed, gaussian_hermitian, haar_unitary, uniform_phases

F2 = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)


def random_circuit(n, m, seed, faults=()):
    circ = ideal_circuit(n, m)
    program = PhaseProgram.free_grid(uniform_phases(m, n, seed))
    if faults:
        program = apply_fault_plan(program, faults)
    return circ.with_program(program)


class TestPhaseProgram:
    def test_shapes_and_counts(self):
        prog = PhaseProgram.zeros(3, 4)
        assert prog.layers == 3 and prog.ports == 4
        assert prog.free_count == 12

    def test_free_values_layer_major(self):
        theta = np.arange(6, dtype=float).reshape(2, 3)
        prog = PhaseProgram.free_grid(theta)
        assert np.array_equal(prog.phase_vector(), np.arange(6))
        assert np.array_equal(prog.free_values(), np.arange(6))

    def test_with_free_values_respects_mask(self):
        prog = apply_fault_plan(PhaseProgram.zeros(2, 2), [(0, 1, 9.0)])
        updated = prog.with_free_values(np.array([1.0, 2.0, 3.0]))
        assert updated.theta[0, 1] == 9.0
        assert np.array_equal(updated.theta, [[1.0, 9.0], [2.0, 3.0]])

    def test_canonical_wraps_into_two_pi(self):
        prog = PhaseProgram.free_grid([[-0.5, 7.0]])
        canon = prog.canonical()
        assert np.all(canon.theta >= 0) and np.all(canon.theta < 2 * np.pi)
        assert abs(canon.theta[0, 0] - (2 * np.pi - 0.5)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseProgram(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))
        with pytest.raises(ValueError):
            PhaseProgram(np.array([[np.nan]]), np.zeros((1, 1), dtype=bool))


class TestCompose:
    def test_zero_phases_give_mixer_power(self):
        for n, m in ((2, 3), (4, 5)):
            circ = ideal_circuit(n, m)
            f = dfrft(JxSpec(n)).matrix
            want = np.linalg.matrix_power(f, m + 1)
            assert frobenius_norm(compose(circ) - want) < 1e-12

    def test_single_port_accumulates_phases(self):
        theta = np.array([[0.3], [1.1], [2.0]])
        circ = ideal_circuit(1, 3).with_program(PhaseProgram.free_grid(theta))
        assert abs(compose(circ)[0, 0] - np.exp(1j * theta.sum())) < 1e-14

    def test_two_port_worked_example(self):
        # brute-force oracle: U = F diag(i, 1) F for theta = (pi/2, 0)
        circ = ideal_circuit(2, 1).with_program(
            PhaseProgram.free_grid([[np.pi / 2, 0.0]])
        )
        want = F2 @ np.diag([1j, 1.0]) @ F2
        assert frobenius_norm(compose(circ) - want) < 1e-13

    def test_unitarity_over_random_configurations(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 7))
            theta = rng.uniform(0, 2 * np.pi, (m, n))
            u = transfer_matrix(ideal_circuit(n, m).mixer_stack(), theta)
            assert unitarity_defect(u) < 1e-11

    def test_global_phase_covariance(self):
        circ = random_circuit(4, 5, seed=2)
        u = compose(circ)
        shifted = circ.program.theta.copy()
        shifted[2] += 0.7  # constant added to every phase of one layer
        u2 = transfer_matrix(circ.mixer_stack(), shifted)
        assert frobenius_norm(u2 - np.exp(1j * 0.7) * u) < 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
        assert abs(abs(np.linalg.det(u2)) - 1.0) < 1e-12

    def test_mixer_count_validated(self):
        layer = dfrft(JxSpec(2))
        with pytest.raises(ValueError):
            InterlacedCircuit((layer,), PhaseProgram.zeros(2, 2))
        with pytest.raises(ValueError):
            InterlacedCircuit((layer,) * 3, PhaseProgram.zeros(2, 3))


class TestLoss:
    def test_zero_for_equal(self):
        u = haar_unitary(3, 0)
        assert loss(u, u) == 0.0

    def test_sign_flip_unitary(self):
        for n in (2, 5):
            u = haar_unitary(n, n)
            assert abs(loss(u, -u) - 4.0 / n) < 1e-14

    def test_diagonal_example(self):
        assert abs(loss(np.eye(2), np.diag([1.0, -1.0])) - 1.0) < 1e-15


class TestResiduals:
    def test_zero_vector_at_target(self):
        circ = random_circuit(3, 4, seed=5)
        target = compose(circ)
        r = residuals(circ, target)
        assert np.abs(r).max() == 0.0

    def test_sum_of_squares_matches_loss(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            circ = random_circuit(int(rng.integers(2, 6)), int(rng.integers(1, 6)),
                                  seed=int(rng.integers(1000)))
            target = haar_unitary(circ.ports, int(rng.integers(1000)))
            r = residuals(circ, target)
            assert abs(float(r @ r) - loss(compose(circ), target)) < 1e-14

    def test_two_port_entries(self):
        circ = random_circuit(2, 1, seed=9)
        target = haar_unitary(2, 10)
        diff = (compose(circ) - target) / 2.0
        want = np.concatenate([diff.real.ravel(), diff.imag.ravel()])
        assert np.array_equal(residuals(circ, target), want)


class TestJacobian:
    def finite_difference(self, circ, target, step=1e-6):
        stack = circ.mixer_stack()
        theta = circ.program.theta
        cols = []
        for mm, pp in np.argwhere(circ.program.free_mask):
            plus, minus = theta.copy(), theta.copy()
            plus[mm, pp] += step
            minus[mm, pp] -= step
            cols.append(
                (residual_vector(transfer_matrix(stack, plus), target)
                 - residual_vector(transfer_matrix(stack, minus), target))
                / (2 * step)
            )
        return np.column_stack(cols)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 7))
            faults = []
            if rng.random() < 0.5:
                mm = int(rng.integers(m))
                pp = int(rng.integers(n))
                faults = [(mm, pp, float(rng.uniform(0, 2 * np.pi)))]
            circ = random_circuit(n, m, seed=int(rng.integers(10_000)), faults=faults)
            target = haar_unitary(n, int(rng.integers(10_000)))
            jac = jacobian(circ, target)
            fd = self.finite_difference(circ, target)
            denom = np.abs(fd).max()
            assert np.abs(jac - fd).max() / denom < 1e-5
            checked += 1

    def test_single_port_chain_rule(self):
        theta = np.array([[0.4], [1.3]])
        circ = ideal_circuit(1, 2).with_program(PhaseProgram.free_grid(theta))
        target = np.array([[np.exp(0.9j)]])
        jac = jacobian(circ, target)
        # d/dtheta of (e^{i sum} - t): both columns i e^{i sum}
        du = 1j * np.exp(1j * theta.sum())
        want = np.array([[du.real, du.real], [du.imag, du.imag]])
        assert np.abs(jac - want).max() < 1e-12


class TestFaultPlans:
    def test_empty_plan_is_identity(self):
        prog = PhaseProgram.zeros(3, 2)
        updated = apply_fault_plan(prog, [])
        assert np.array_equal(updated.theta, prog.theta)
        assert updated.free_count == prog.free_count

    def test_one_fault_per_layer_bookkeeping(self):
        n, m = 4, 5
        prog = PhaseProgram.zeros(m, n)
        faults = [(layer, layer % n, 1.0) for layer in range(n)]
        updated = apply_fault_plan(prog, faults)
        assert updated.free_count == n * (n + 1) - n == n * n

    def test_two_faults_same_layer(self):
        prog = apply_fault_plan(PhaseProgram.zeros(5, 4), [(2, 0, 0.1), (2, 3, 0.2)])
        assert prog.free_count == 18
        assert prog.fixed[2].sum() == 2

    def test_rejections(self):
        prog = PhaseProgram.zeros(2, 2)
        with pytest.raises(ValueError, match="duplicate"):
            apply_fault_plan(prog, [(0, 0, 1.0), (0, 0, 2.0)])
        with pytest.raises(ValueError, match="out of range"):
            apply_fault_plan(prog, [(2, 0, 1.0)])
        frozen = apply_fault_plan(prog, [(0, 0, 1.0)])
        with pytest.raises(ValueError, match="already frozen"):
            apply_fault_plan(frozen, [(0, 0, 2.0)])


class TestBuilders:
    def test_ideal_circuit_layers(self):
        circ = ideal_circuit(3, 4)
        assert len(circ.mixers) == 5

    def test_perturbed_circuit_zero_sigma_matches_ideal(self):
        ideal = ideal_circuit(3, 4)
        pert = perturbed_circuit(3, 4, 0.0, seed=5)
        for a, b in zip(ideal.mixers, pert.mixers):
            assert np.array_equal(a.matrix, b.matrix)

    def test_perturbed_circuit_slots_independent(self):
        circ = perturbed_circuit(4, 3, 0.01, seed=6)
        mats = [layer.matrix for layer in circ.mixers]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert frobenius_norm(mats[i] - mats[j]) > 1e-6

    def test_perturbed_circuit_label_seeds_each_slot(self):
        circ = perturbed_circuit(3, 2, 0.01, 7, label="study/row=1")
        for slot, layer in enumerate(circ.mixers):
            h1 = gaussian_hermitian(3, derive_seed(7, "study/row=1", slot))
            want = perturbed_mixer(JxSpec(3), 0.01, h1).matrix
            assert np.array_equal(layer.matrix, want)
        default = perturbed_circuit(3, 2, 0.01, 7)
        assert not np.array_equal(default.mixers[0].matrix, circ.mixers[0].matrix)

    def test_perturbed_circuit_deterministic(self):
        a = perturbed_circuit(4, 3, 0.01, seed=6)
        b = perturbed_circuit(4, 3, 0.01, seed=6)
        for la, lb in zip(a.mixers, b.mixers):
            assert np.array_equal(la.matrix, lb.matrix)
