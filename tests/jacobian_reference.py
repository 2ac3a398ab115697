"""Test-side reference: the explicit residual vector and Jacobian.

``circuit.normal_equations`` never forms the Jacobian, and it derives every
derivative from the prefix products alone, through the unitarity of the
mixers.  The reference here assumes no unitarity: it sweeps the prefix
products B and the suffix products A separately and assembles column
``p`` of the Jacobian as the stacked Re/Im entries of
``i e^{i theta_p} outer(A[:, p], B[p, :]) / N``.  The tests check it
against finite differences and against the evaluator's products.
"""

import numpy as np

from jxcircuit.circuit import normal_equations, prefix_products, transfer_matrix


def evaluate(mixers, theta, free_mask, target):
    """``normal_equations`` at ``theta``, from a sweep of that grid alone,
    on buffers allocated for this call."""
    m, n = theta.shape
    prefixes = np.empty((m + 1, 1, n, n), np.complex128)
    prefix_products(mixers[:, None], theta[None], prefixes)
    p = int(np.count_nonzero(free_mask))
    return normal_equations(prefixes[:, 0], free_mask, target,
                            np.empty((p, p), np.complex128), np.empty((p, p)))


def residual_vector(diff):
    """The stacked Re/Im entries of a residual matrix (row-major)."""
    return np.concatenate([diff.real.ravel(), diff.imag.ravel()])


def rank_one_factors(mixers, theta, free_mask):
    """(P, N) arrays whose rows ``s_p`` and ``b_p`` give the derivative of
    the residual matrix w.r.t. free phase p as ``outer(s_p, b_p)``."""
    m_layers, n = theta.shape
    factors = np.exp(1j * theta)
    prefix = [mixers[0]]  # prefix[ell]: the product up to mixer ell
    for ell in range(m_layers - 1):
        prefix.append(mixers[ell + 1] @ (factors[ell][:, None] * prefix[-1]))
    suffix = [mixers[m_layers]]  # built backwards from the last mixer
    for ell in range(m_layers - 1, 0, -1):
        suffix.append(suffix[-1] @ (factors[ell][:, None] * mixers[ell]))
    suffix.reverse()  # suffix[ell]: the product after phase layer ell
    s = np.stack([(1j / n) * a * f for a, f in zip(suffix, factors)])  # columns scaled
    s = s.transpose(0, 2, 1).reshape(-1, n)[free_mask.ravel()]
    b = np.stack(prefix).reshape(-1, n)[free_mask.ravel()]
    return s, b


def explicit_jacobian(mixers, theta, free_mask):
    """(2 N^2, P) Jacobian of the stacked residuals w.r.t. the free phases."""
    s, b = rank_one_factors(mixers, theta, free_mask)
    p, n = s.shape
    columns = (s[:, :, None] * b[:, None, :]).reshape(p, n * n)
    return np.concatenate([columns.real, columns.imag], axis=1).T


def residuals_and_jacobian(mixers, theta, free_mask, target):
    """Residual vector and explicit Jacobian w.r.t. the free phases."""
    diff = (transfer_matrix(mixers, theta) - target) / theta.shape[1]
    return residual_vector(diff), explicit_jacobian(mixers, theta, free_mask)
