"""Property tests: stacked circuit evaluations equal the per-point ones bitwise.

The optimizer composes the requests of a fit's restart lanes in one
stacked sweep, each lane on its own fit's mixers; records stay
bit-identical only if every slice of such a sweep is exactly what a sweep
of its grid alone gives, wherever the grid sits in the stack and whether
its mixers are shared or its own.  The reference is the per-grid loop
that composed one grid before the sweeps kept their prefix products.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit.circuit import loss, prefix_products, transfer_matrix
from jxcircuit.sampling import derive_seed, haar_unitary

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def cases(draw):
    """(ports, layers, batch, seed) with N 1-6, M 1-7, batch 1-8."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    batch = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, batch, seed


def mixers_and_target(n, m, seed):
    mixers = np.stack([haar_unitary(n, derive_seed(seed, "slot", k)) for k in range(m + 1)])
    return mixers, haar_unitary(n, derive_seed(seed, "target"))


@SETTINGS
@given(cases(), st.booleans())
def test_stacked_slices_equal_single_compositions(case, own):
    # every grid on one shared (M+1, 1, N, N) stack, or each on its own
    # mixers in an (M+1, B, N, N) stack
    n, m, batch, seed = case
    mixers, target = mixers_and_target(n, m, seed)
    stacks = (np.stack([mixers_and_target(n, m, derive_seed(seed, "grid", b))[0]
                        for b in range(batch)], axis=1) if own else mixers[:, None])
    thetas = np.random.default_rng(seed).uniform(-10.0, 10.0, (batch, m, n))
    prefixes = np.empty((m + 1, batch, n, n), dtype=np.complex128)
    stacked = prefix_products(stacks, thetas, prefixes)
    assert stacked.shape == (batch, n, n) and stacked.base is prefixes
    for b, (theta, u) in enumerate(zip(thetas, stacked)):
        grid_mixers = stacks[:, b if own else 0]
        single = grid_mixers[0]  # the per-grid loop
        for ell, factors in enumerate(np.exp(1j * theta)[:, :, None]):
            single = grid_mixers[ell + 1] @ (factors * single)
            assert np.array_equal(prefixes[ell + 1, b], single)
        assert np.array_equal(u, single)
        assert np.array_equal(transfer_matrix(grid_mixers, theta), single)
        assert loss(u, target) == loss(single, target)
        assert np.array_equal(prefixes[0, b], grid_mixers[0])
    if not own:  # a copy of the shared stack per grid composes bitwise the same
        copies = np.empty_like(prefixes)
        prefix_products(np.repeat(stacks, batch, axis=1), thetas, copies)
        assert np.array_equal(copies, prefixes)
