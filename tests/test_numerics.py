"""Batched 2x2 generalized eigensolve against a diagonal metric."""

import numpy as np
import pytest

from bochnerlab.errors import NumericalError, UsageError
from bochnerlab.numerics import gen_eigh


def random_problem(n, batch=64, seed=0):
    """Symmetric P and positive metric diagonals gd, batched."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((batch, n, n))
    gd = rng.uniform(0.1, 10.0, (batch, n))
    return B + np.swapaxes(B, -1, -2), gd


def assert_g_orthonormal(vecs, gd, atol=1e-12):
    g = gd[..., :, None] * np.eye(2)
    gram = np.swapaxes(vecs, -1, -2) @ g @ vecs
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=atol)


# the chart is 2-D, so n = 2 is the only size gen_eigh solves
@pytest.mark.parametrize("n", [2])
def test_eigenvalues_match_dense_reference(n):
    P, gd = random_problem(n)
    lam, _ = gen_eigh(P, gd)
    dense = np.stack([np.linalg.eigvals(np.diag(1.0 / g) @ p) for p, g in zip(P, gd)])
    assert np.max(np.abs(dense.imag)) < 1e-12  # similar to a symmetric matrix
    np.testing.assert_allclose(
        lam, np.sort(dense.real, axis=-1), rtol=1e-10, atol=1e-12
    )


@pytest.mark.parametrize("n", [2])
def test_eigenvectors_are_g_orthonormal(n):
    P, gd = random_problem(n, seed=1)
    lam, vecs = gen_eigh(P, gd)
    assert_g_orthonormal(vecs, gd)
    g = gd[..., :, None] * np.eye(n)
    np.testing.assert_allclose(P @ vecs, g @ vecs * lam[..., None, :], atol=1e-10)


@pytest.mark.parametrize("n", [1, 3])
def test_non_2x2_problem_is_a_usage_error(n):
    P, gd = random_problem(n)
    with pytest.raises(UsageError):
        gen_eigh(P, gd)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_nonpositive_metric_rejected(bad):
    P, gd = random_problem(2)
    gd[5, 1] = bad
    with pytest.raises(NumericalError):
        gen_eigh(P, gd)


@pytest.mark.parametrize(
    "diag", [(0.3, 7.0), (7.0, 0.3)], ids=["ascending", "descending"]
)
def test_diagonal_input_is_returned_bit_for_bit(diag):
    gd = np.array([[1.0, 1.0], [0.7, 3.1], [2.0, 1e-3]])
    P = np.zeros((3, 2, 2))
    P[:, (0, 1), (0, 1)] = diag
    lam, vecs = gen_eigh(P, gd)
    d = 1.0 / np.sqrt(gd)
    scaled = d * np.array(diag) * d  # d_i P_ii d_i, associated as gen_eigh scales
    np.testing.assert_array_equal(lam, np.sort(scaled, axis=-1))
    order = np.argsort(scaled, axis=-1)
    want = np.zeros((3, 2, 2))
    for k in range(3):
        want[k, order[k], (0, 1)] = d[k, order[k]]
    np.testing.assert_array_equal(vecs, want)


def test_conformal_problem_has_a_double_eigenvalue():
    # P = s g: every vector is an eigenvector; the returned pair must
    # still be g-orthonormal
    _, gd = random_problem(2, seed=2)
    s = np.linspace(0.5, 4.0, gd.shape[0])
    P = s[:, None, None] * gd[:, :, None] * np.eye(2)
    lam, vecs = gen_eigh(P, gd)
    np.testing.assert_allclose(lam, np.stack([s, s], axis=-1), rtol=1e-15)
    assert_g_orthonormal(vecs, gd)


def test_rank_one_problem_has_a_zero_eigenvalue():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((256, 2))
    gd = rng.uniform(0.1, 10.0, (256, 2))
    lam, vecs = gen_eigh(u[:, :, None] * u[:, None, :], gd)
    assert np.all(np.abs(lam[:, 0]) <= 1e-15 * lam[:, 1])
    assert_g_orthonormal(vecs, gd)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "b", [1e-300, 5e-324, -1e-300], ids=["1e-300", "subnormal", "negative"]
)
def test_nearly_diagonal_problem_stays_finite(b):
    # |tau| = |c - a| / |2b| is near 1e300, or overflows for a subnormal b
    P = np.array([[[1.0, b], [b, 3.0]], [[3.0, b], [b, 1.0]]])
    gd = np.ones((2, 2))
    lam, vecs = gen_eigh(P, gd)
    np.testing.assert_array_equal(lam, [[1.0, 3.0], [1.0, 3.0]])
    assert np.all(np.isfinite(vecs))
    assert_g_orthonormal(vecs, gd, atol=0.0)
