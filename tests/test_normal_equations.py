"""Property tests: the Gram-form normal equations equal the explicit products.

``circuit.normal_equations`` forms J'J and J'D from the rank-one factors of
the Jacobian without forming J; here J is assembled from the returned
factors (``jacobian_reference``) and multiplied out.  Both sides sum the
same terms in another order, so they agree to rounding: the bound is
1e-12 relative to the sums of absolute terms, |J|'|J| and |J|'|v|.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit.circuit import PhaseProgram, transfer_matrix
from jxcircuit.optimizer import _Problem
from jxcircuit.sampling import derive_seed, haar_unitary
from jacobian_reference import evaluate, explicit_jacobian, residual_vector

SETTINGS = settings(max_examples=100, deadline=None)
RTOL = 1e-12


@st.composite
def cases(draw):
    """(ports, layers, seed, frozen mask) with N 1-6, M 1-7, any mask."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    fixed = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    return n, m, seed, np.array(fixed).reshape(m, n)


def instance(n, m, seed, fixed):
    mixers = np.stack([haar_unitary(n, derive_seed(seed, "slot", k)) for k in range(m + 1)])
    rng = np.random.default_rng(seed)
    program = PhaseProgram(rng.uniform(0.0, 2 * np.pi, (m, n)), fixed)
    return mixers, program, haar_unitary(n, derive_seed(seed, "target"))


def assert_close(got, want, scale):
    assert got.shape == want.shape
    assert (np.abs(got - want) <= RTOL * scale).all()


@SETTINGS
@given(cases())
def test_gram_products_equal_explicit_jacobian_products(case):
    n, m, seed, fixed = case
    mixers, program, target = instance(n, m, seed, fixed)
    diff, jtj, g, s_conj, b_conj = evaluate(mixers, program.theta, program.free_mask, target)
    p = program.free_count
    assert s_conj.shape == b_conj.shape == (p, n)
    assert np.array_equal(diff, (transfer_matrix(mixers, program.theta) - target) / n)

    jac = explicit_jacobian(s_conj, b_conj)
    r = residual_vector(diff)
    assert_close(jtj, jac.T @ jac, np.abs(jac).T @ np.abs(jac))
    assert_close(g, jac.T @ r, np.abs(jac).T @ np.abs(r))
    # J'v for any residual matrix, as the optimizer forms J'fvv
    rng = np.random.default_rng(seed + 1)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    jtv = ((s_conj @ v) * b_conj).sum(axis=1).real
    assert_close(jtv, jac.T @ residual_vector(v), np.abs(jac).T @ np.abs(residual_vector(v)))


def test_one_fit_writes_every_evaluation_into_one_buffer():
    mixers, program, target = instance(3, 4, 5, np.eye(4, 3, dtype=bool))
    problem = _Problem(mixers, program, target)
    x = program.theta[program.free_mask]
    first = problem.normal_equations(x)[1]
    second = problem.normal_equations(x + 0.5)[1]
    assert np.shares_memory(first, second)
    assert np.shares_memory(first, problem._gram)
