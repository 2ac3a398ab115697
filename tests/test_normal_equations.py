"""Property tests: the evaluator's normal equations equal the explicit products.

``circuit.normal_equations`` forms J'J and J'D from the prefix products
of one sweep alone, through the unitarity of the mixers, without forming
J; here J is assembled from both sweeps (``jacobian_reference``, which
assumes no unitarity) and multiplied out.  Both sides agree to rounding
and the mixers' unitarity defect: the bound is 1e-12 relative to the sums
of absolute terms, |J|'|J| and |J|'|v|.  Mixers are Haar-random or
perturbed Jx lattices (the paper's disorder model, sigma_k up to 0.006).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit.circuit import PhaseProgram, perturbed_circuit, transfer_matrix
from jxcircuit.optimizer import LmaOptions, fit
from jxcircuit import optimizer
from jxcircuit.optimizer import _Problem
from jxcircuit.sampling import derive_seed, haar_unitary
from jacobian_reference import evaluate, explicit_jacobian, residual_vector

SETTINGS = settings(max_examples=100, deadline=None)
RTOL = 1e-12


@st.composite
def cases(draw):
    """(ports, layers, seed, frozen mask, sigma_k) with N 1-6, M 1-7, any
    mask; sigma_k None draws Haar mixers."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    fixed = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    sigma_k = draw(st.none() | st.floats(0.0, 0.006))
    return n, m, seed, np.array(fixed).reshape(m, n), sigma_k


def instance(n, m, seed, fixed, sigma_k=None):
    if sigma_k is None:
        mixers = np.stack([haar_unitary(n, derive_seed(seed, "slot", k))
                           for k in range(m + 1)])
    else:
        mixers = perturbed_circuit(n, m, sigma_k, seed).mixers
    rng = np.random.default_rng(seed)
    program = PhaseProgram(rng.uniform(0.0, 2 * np.pi, (m, n)), fixed)
    return mixers, program, haar_unitary(n, derive_seed(seed, "target"))


def assert_close(got, want, scale):
    assert got.shape == want.shape
    assert (np.abs(got - want) <= RTOL * scale).all()


@SETTINGS
@given(cases())
def test_gram_products_equal_explicit_jacobian_products(case):
    n, m, seed, fixed, sigma_k = case
    mixers, program, target = instance(n, m, seed, fixed, sigma_k)
    jtj, g = evaluate(mixers, program.theta, program.free_mask, target)
    p = program.free_count
    assert jtj.shape == (p, p) and jtj.flags.c_contiguous
    # every prefix row has unit norm
    assert (np.abs(np.diagonal(jtj) * n * n - 1.0) <= 1e-13).all()

    jac = explicit_jacobian(mixers, program.theta, program.free_mask)
    r = residual_vector((transfer_matrix(mixers, program.theta) - target) / n)
    assert_close(jtj, jac.T @ jac, np.abs(jac).T @ np.abs(jac))
    assert_close(g, jac.T @ r, np.abs(jac).T @ np.abs(r))


def test_one_fit_writes_every_evaluation_into_one_buffer(monkeypatch):
    written = []
    prefix_products = optimizer.prefix_products

    def sweep(mixers, thetas, out):
        written.append(out)
        return prefix_products(mixers, thetas, out)

    monkeypatch.setattr(optimizer, "prefix_products", sweep)
    # the problem allocates its width's slots at construction, and each
    # sweep writes straight into the slots of its lanes
    mixers, program, target = instance(3, 4, 5, np.eye(4, 3, dtype=bool))
    problem = _Problem(mixers, program, target[None], 3)
    problem.seat([0] * 3)
    sweep_buffer = problem._sweep
    assert sweep_buffer.shape == (5, 3, 3, 3)
    x = program.theta[program.free_mask]
    for lanes in ([x], [x + 0.5], [x] * 3, [x] * 2):
        problem.losses(np.stack(lanes))
    assert problem._sweep is sweep_buffer
    assert [out.shape[1] for out in written] == [1, 1, 3, 2]
    assert all(out.base is sweep_buffer for out in written)
    # a fit of 5 restarts below the transition: 5 slots, one buffer
    written.clear()
    circuit = perturbed_circuit(3, 3, 0.0, 1)
    fit(circuit, haar_unitary(3, 2), LmaOptions(restarts=5, max_iterations=5), seed=1)
    buffers = {id(out.base) for out in written}
    assert len(buffers) == 1 and written[0].base.shape[1] == 5


def test_a_descent_keeps_its_gram_scratch_and_normal_equations_in_one_block(monkeypatch):
    # freeing that one block lifts glibc's mmap threshold above the next
    # descent's buffers, so they reuse resident pages: a study of N = 16
    # fits otherwise faults in every fit's buffers afresh
    blocks = []
    normal_equations = _Problem.normal_equations

    def recorded(self, rows, gram, jtj):
        blocks.append((gram.base, jtj.base))
        return normal_equations(self, rows, gram, jtj)

    monkeypatch.setattr(_Problem, "normal_equations", recorded)
    circuit = perturbed_circuit(3, 3, 0.0, 1)
    fit(circuit, haar_unitary(3, 2), LmaOptions(restarts=5, max_iterations=5), seed=1)
    assert blocks and all(gram is not None and gram is jtj for gram, jtj in blocks)
    assert len({id(gram) for gram, _ in blocks}) == 1  # one descent of 5 lanes
