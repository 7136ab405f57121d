"""Short-axis reductions, and the eigenvalues of the batched 2x2
generalized eigenproblem against a diagonal metric."""

import numpy as np
import pytest

from bochnerlab.errors import NumericalError, UsageError
from bochnerlab.numerics import dot, gen_eigvalsh, norm, per_index, total


def random_problem(n, batch=64, seed=0):
    """Symmetric P and positive metric diagonals gd, batched."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((batch, n, n))
    gd = rng.uniform(0.1, 10.0, (batch, n))
    return B + np.swapaxes(B, -1, -2), gd


# the chart is 2-D, so n = 2 is the only size gen_eigvalsh solves
@pytest.mark.parametrize("n", [2])
def test_eigenvalues_match_dense_reference(n):
    P, gd = random_problem(n)
    lam = gen_eigvalsh(P, gd)
    dense = np.stack([np.linalg.eigvals(np.diag(1.0 / g) @ p) for p, g in zip(P, gd)])
    assert np.max(np.abs(dense.imag)) < 1e-12  # similar to a symmetric matrix
    np.testing.assert_allclose(
        lam, np.sort(dense.real, axis=-1), rtol=1e-10, atol=1e-12
    )


@pytest.mark.parametrize("n", [1, 3])
def test_non_2x2_problem_is_a_usage_error(n):
    P, gd = random_problem(n)
    with pytest.raises(UsageError):
        gen_eigvalsh(P, gd)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_nonpositive_metric_rejected(bad):
    P, gd = random_problem(2)
    gd[5, 1] = bad
    with pytest.raises(NumericalError):
        gen_eigvalsh(P, gd)


@pytest.mark.parametrize(
    "diag", [(0.3, 7.0), (7.0, 0.3)], ids=["ascending", "descending"]
)
def test_diagonal_input_is_returned_bit_for_bit(diag):
    gd = np.array([[1.0, 1.0], [0.7, 3.1], [2.0, 1e-3]])
    P = np.zeros((3, 2, 2))
    P[:, (0, 1), (0, 1)] = diag
    d = 1.0 / np.sqrt(gd)
    scaled = d * np.array(diag) * d  # d_i P_ii d_i, associated as gen_eigvalsh scales
    np.testing.assert_array_equal(gen_eigvalsh(P, gd), np.sort(scaled, axis=-1))


def test_conformal_problem_has_a_double_eigenvalue():
    # P = s g: every vector is an eigenvector
    _, gd = random_problem(2, seed=2)
    s = np.linspace(0.5, 4.0, gd.shape[0])
    P = s[:, None, None] * gd[:, :, None] * np.eye(2)
    np.testing.assert_allclose(gen_eigvalsh(P, gd), np.stack([s, s], axis=-1), rtol=1e-15)


def test_rank_one_problem_has_a_zero_eigenvalue():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((256, 2))
    gd = rng.uniform(0.1, 10.0, (256, 2))
    lam = gen_eigvalsh(u[:, :, None] * u[:, None, :], gd)
    assert np.all(np.abs(lam[:, 0]) <= 1e-15 * lam[:, 1])
    # tau = 0 gives t = 1, and the zero exactly
    lam = gen_eigvalsh(np.ones((1, 2, 2)), np.ones((1, 2)))
    np.testing.assert_array_equal(bits(lam), bits([[0.0, 2.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "b", [1e-300, 5e-324, -1e-300], ids=["1e-300", "subnormal", "negative"]
)
def test_nearly_diagonal_problem_stays_finite(b):
    # |tau| = |c - a| / |2b| is near 1e300, or overflows for a subnormal b
    P = np.array([[[1.0, b], [b, 3.0]], [[3.0, b], [b, 1.0]]])
    gd = np.ones((2, 2))
    np.testing.assert_array_equal(gen_eigvalsh(P, gd), [[1.0, 3.0], [1.0, 3.0]])


def bits(x):
    """The float64 bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("m", range(1, 8))
def test_short_axis_reductions_are_numpys_bit_for_bit(m):
    rng = np.random.default_rng(m)
    X, Y = (rng.standard_normal((512, m)) * np.exp2(rng.integers(-80, 80, (512, m)))
            for _ in range(2))
    X[0, 0], X[1, -1], Y[2, 0], Y[3, -1] = np.inf, np.nan, -np.inf, np.nan
    # signed zeros, mixed: an all-(-0.0) sum is pinned below
    X[4], X[4, :-1], Y[4] = 0.0, -0.0, 1.0
    X[5] = 1e200  # products and squares that overflow
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(bits(dot(X, Y)), bits(np.sum(X * Y, axis=-1)))
        np.testing.assert_array_equal(bits(total(X)), bits(np.sum(X, axis=-1)))
        np.testing.assert_array_equal(bits(norm(X)), bits(np.linalg.norm(X, axis=-1)))


@pytest.mark.parametrize("m", range(1, 8))
def test_an_all_negative_zero_sum_keeps_its_sign(m):
    # numpy's sum starts from +0.0, these from the first term: the one
    # place where they differ below 8 terms
    Z = np.full((2, m), -0.0)
    assert not np.signbit(np.sum(Z, axis=-1)).any()
    assert np.signbit(total(Z)).all()
    assert np.signbit(dot(Z, np.ones((2, m)))).all()
    # squares are +0.0, so the norms agree
    np.testing.assert_array_equal(bits(norm(Z)), bits(np.linalg.norm(Z, axis=-1)))


def axpy(ak, xk, yk, out):
    return np.subtract(yk, ak * xk, out)


@pytest.mark.parametrize("nodes", [(5,), (3, 4), (2, 3, 4)])
def test_per_index_is_the_broadcast_formula_bit_for_bit(nodes):
    rng = np.random.default_rng(9)
    X, Y = rng.standard_normal((2,) + nodes + (6,))
    a = rng.standard_normal(nodes)
    want = Y - a[..., None] * X
    # a node array, the same node array per index, a constant per index
    for got in (per_index(axpy, a[..., None], X, Y),
                per_index(axpy, np.repeat(a[..., None], 6, axis=-1), X, Y)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(bits(got), bits(want))
    c = rng.standard_normal(6)
    np.testing.assert_array_equal(bits(per_index(axpy, c, X, Y)), bits(Y - c * X))


def test_per_index_gives_each_block_its_own_column():
    # an array of p entries along the axis serves the m / p indices of
    # each block, as a product target's factors
    rng = np.random.default_rng(10)
    X, Y = rng.standard_normal((2, 4, 6))
    a = rng.standard_normal((4, 2))
    want = (Y.reshape(4, 2, 3) - a[..., None] * X.reshape(4, 2, 3)).reshape(4, 6)
    np.testing.assert_array_equal(bits(per_index(axpy, a, X, Y, blocks=2)), bits(want))
    r = np.array([2.0, 3.0])
    np.testing.assert_array_equal(bits(per_index(np.divide, X, r, blocks=2)),
                                  bits((X.reshape(4, 2, 3) / r[:, None]).reshape(4, 6)))
    # an axis that matches neither m, the blocks nor 1 is refused, as
    # broadcasting refuses it
    for args, blocks in (((X, r), 1), ((X, np.ones(3)), 2), ((X, np.ones((4, 4))), 4)):
        with pytest.raises(ValueError):
            per_index(np.divide, *args, blocks=blocks)


def test_per_index_broadcasts_node_shapes():
    # one point per node against two columns along a leading axis, and
    # against two columns per node
    rng = np.random.default_rng(11)
    q, V = rng.standard_normal((3, 5, 3)), rng.standard_normal((2, 3, 5, 3))
    got = per_index(lambda qk, vk, out: np.multiply(qk, vk, out), q, V)
    np.testing.assert_array_equal(bits(got), bits(q * V))
    W = np.moveaxis(V, 0, -2)
    got = per_index(lambda qk, wk, out: np.multiply(qk, wk, out), q[..., None, :], W)
    assert got.shape == (3, 5, 2, 3)
    np.testing.assert_array_equal(bits(got), bits(q[..., None, :] * W))
