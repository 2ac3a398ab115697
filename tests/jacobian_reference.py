"""Test-side reference: the explicit residual vector and Jacobian.

``circuit.normal_equations`` never forms the Jacobian; the tests assemble
it here from the rank-one factors it returns, column ``p`` being the
stacked Re/Im entries of ``outer(s_p, b_p)``, and check it against finite
differences and the Gram-form products.
"""

import numpy as np

from jxcircuit.circuit import normal_equations


def evaluate(mixers, theta, free_mask, target):
    """``normal_equations`` on a Gram buffer allocated for this call."""
    p = int(np.count_nonzero(free_mask))
    return normal_equations(mixers, theta, free_mask, target,
                            np.empty((2, p, p), np.complex128))


def residual_vector(diff):
    """The stacked Re/Im entries of a residual matrix (row-major)."""
    return np.concatenate([diff.real.ravel(), diff.imag.ravel()])


def explicit_jacobian(s_conj, b_conj):
    """(2 N^2, P) Jacobian of the stacked residuals from the conjugated factors."""
    p, n = s_conj.shape
    columns = np.conj(s_conj[:, :, None] * b_conj[:, None, :]).reshape(p, n * n)
    return np.concatenate([columns.real, columns.imag], axis=1).T


def residuals_and_jacobian(mixers, theta, free_mask, target):
    """Residual vector and explicit Jacobian w.r.t. the free phases."""
    diff, _, _, s_conj, b_conj = evaluate(mixers, theta, free_mask, target)
    return residual_vector(diff), explicit_jacobian(s_conj, b_conj)
