"""Batched generalized eigensolve against a diagonal metric."""

import numpy as np
import pytest

from bochnerlab.errors import NumericalError
from bochnerlab.numerics import gen_eigh


def random_problem(n, batch=64, seed=0):
    """Symmetric P and positive metric diagonals gd, batched."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((batch, n, n))
    gd = rng.uniform(0.1, 10.0, (batch, n))
    return B + np.swapaxes(B, -1, -2), gd


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvalues_match_dense_reference(n):
    P, gd = random_problem(n)
    lam, _ = gen_eigh(P, gd)
    dense = np.stack([np.linalg.eigvals(np.diag(1.0 / g) @ p) for p, g in zip(P, gd)])
    assert np.max(np.abs(dense.imag)) < 1e-12  # similar to a symmetric matrix
    np.testing.assert_allclose(
        lam, np.sort(dense.real, axis=-1), rtol=1e-10, atol=1e-12
    )


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvectors_are_g_orthonormal(n):
    P, gd = random_problem(n, seed=1)
    lam, vecs = gen_eigh(P, gd)
    g = gd[..., :, None] * np.eye(n)
    gram = np.swapaxes(vecs, -1, -2) @ g @ vecs
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(n), gram.shape), atol=1e-12)
    np.testing.assert_allclose(P @ vecs, g @ vecs * lam[..., None, :], atol=1e-10)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_nonpositive_metric_rejected(bad):
    P, gd = random_problem(2)
    gd[5, 1] = bad
    with pytest.raises(NumericalError):
        gen_eigh(P, gd)
