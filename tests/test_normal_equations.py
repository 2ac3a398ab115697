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
from jxcircuit.optimizer import _Problem, _drive
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
        mixers = perturbed_circuit(n, m, sigma_k, seed).mixer_stack()
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


def test_one_fit_writes_every_evaluation_into_one_buffer():
    mixers, program, target = instance(3, 4, 5, np.eye(4, 3, dtype=bool))
    problem = _Problem(mixers, program, target)
    x = program.theta[program.free_mask]

    def evaluated(point):
        return _drive(problem, [problem.loss_of(point)])[0]

    first_point, second_point = evaluated(x), evaluated(x + 0.5)
    assert first_point.prefixes.base is second_point.prefixes.base is problem._single
    first = problem.normal_equations(first_point)[0]
    second = problem.normal_equations(second_point)[0]
    assert first is second is problem._jtj
    assert problem._jtj.flags.c_contiguous
    assert problem._gram.shape == problem._jtj.shape == (x.size, x.size)
    # the lanes of one fit share the Gram scratch, each with its own J'J
    lanes = problem.lanes(3)
    assert lanes[0] is problem and all(lane._gram is problem._gram for lane in lanes)
    assert len({id(lane._jtj) for lane in lanes}) == 3
