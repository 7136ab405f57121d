"""Domain manifolds as structured chart grids.

Two built-in compact surfaces: the flat 2-torus and the round 2-sphere.
Each carries a closed-form metric, Christoffel symbols and Ricci tensor
on a periodic (torus) or pole-staggered (sphere) node grid, and a fast
direct solver for (I - dt L) that the heat flow's implicit step calls.

Both charts are orthogonal warped products g = diag(E(u), G(u)), so the
grid forms store only what can be nonzero: the metric and Ricci
diagonals, shape (n1, n2, 2), and the Christoffel symbols
(Gamma^u_vv, Gamma^v_uv = Gamma^v_vu), also (n1, n2, 2).  The dense
point forms metric_at, christoffel_at and ricci_at feed the
finite-difference cross-checks of the test suite.

Sphere grids stagger the latitude nodes so no node sits on a chart
pole; ghost rows continue fields across the pole antipodally, which
keeps stencils of any width central.  The two rows adjacent to the
poles are flagged so sup-norm diagnostics can exclude them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ChartDomainError, UsageError
from .numerics import fejer1_weights, fmt_param

TWO_PI = 2.0 * np.pi


def _wrap(F, axis, width):
    """F with `width` periodic ghost layers on each side of `axis`."""
    if axis == 0:
        return np.concatenate([F[-width:], F, F[:width]], axis=0)
    return np.concatenate([F[:, -width:], F, F[:, :width]], axis=1)


def _mode_symbol(count, h):
    """-eigenvalue of the periodic second difference for modes 0..count-1.

    Mode k has eigenvalue -(2 sin(k h / 2) / h)^2 on a grid of spacing h.
    """
    return (2 * np.sin(np.arange(count) * h / 2) / h) ** 2


def _as_point(p):
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise UsageError(f"chart point must have 2 coordinates, got shape {p.shape}")
    return p


class ChartGrid:
    """Grid code shared by the chart domains (frozen dataclasses below).

    A domain built without n2 takes N2_PER_N1 * n1 longitude nodes.
    """

    n = 2  # intrinsic dimension
    N2_PER_N1 = 1

    def __post_init__(self):
        if self.n2 is None:
            object.__setattr__(self, "n2", self.N2_PER_N1 * self.n1)

    def chart_grid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def with_resolution(self, n1, n2=None):
        return replace(self, n1=n1, n2=n2)

    def inv_metric_diag_grid(self):
        return 1.0 / self.metric_diag_grid()

    def pad(self, F):
        """One ghost layer on each side of both axes, as `extend` continues F."""
        return self.extend(self.extend(F, 0, 1), 1, 1)

    def quad_weight_grid(self):
        h1, h2 = self.spacing
        return self.sqrt_det_grid() * h1 * h2

    def volume(self):
        return float(self.quad_weight_grid().sum())


@dataclass(frozen=True)
class FlatTorus2(ChartGrid):
    """Flat torus with chart (u, v) in [0, 2pi)^2 and metric diag(a^2, b^2)."""

    a: float = 1.0
    b: float = 1.0
    n1: int = 64
    n2: int | None = None

    kind = "torus"

    def __post_init__(self):
        super().__post_init__()
        if self.a <= 0 or self.b <= 0:
            raise UsageError("torus periods must be positive")
        if self.n1 < 4 or self.n2 < 4:
            raise UsageError("torus grid needs at least 4 nodes per axis")

    # -- chart ---------------------------------------------------------------

    @property
    def spacing(self):
        return (TWO_PI / self.n1, TWO_PI / self.n2)

    def axes(self):
        h1, h2 = self.spacing
        return np.arange(self.n1) * h1, np.arange(self.n2) * h2

    def check_point(self, p):
        p = _as_point(p)
        if not (0.0 <= p[0] <= TWO_PI and 0.0 <= p[1] <= TWO_PI):
            raise ChartDomainError(f"point {p} outside torus chart [0, 2pi]^2")
        return p

    def descriptor(self):
        return f"torus:a={fmt_param(self.a)},b={fmt_param(self.b)}"

    # -- metric and curvature ------------------------------------------------

    def metric_at(self, p):
        self.check_point(p)
        return np.diag([self.a**2, self.b**2])

    def metric_diag_grid(self):
        g = np.empty((self.n1, self.n2, 2))
        g[..., 0] = self.a**2
        g[..., 1] = self.b**2
        return g

    def sqrt_det_grid(self):
        return np.full((self.n1, self.n2), self.a * self.b)

    def christoffel_at(self, p):
        self.check_point(p)
        return np.zeros((2, 2, 2))

    def christoffel_grid(self):
        """(Gamma^u_vv, Gamma^v_uv) on the last axis; flat, so zero."""
        return np.zeros((self.n1, self.n2, 2))

    def ricci_at(self, p):
        self.check_point(p)
        return np.zeros((2, 2))

    def ricci_grid(self):
        """Ricci diagonal (Ric_uu, Ric_vv); flat, so zero."""
        return np.zeros((self.n1, self.n2, 2))

    # -- discrete calculus ---------------------------------------------------

    def extend(self, F, axis, width):
        """`width` ghost layers on each side of `axis`, periodic."""
        return _wrap(np.asarray(F), axis, width)

    def laplace_beltrami(self, F):
        """Conservative discrete Laplace-Beltrami of a node field."""
        F = np.asarray(F, dtype=float)
        h1, h2 = self.spacing
        Fp = self.pad(F)
        c = Fp[1:-1, 1:-1]
        d1 = (Fp[2:, 1:-1] - 2 * c + Fp[:-2, 1:-1]) / (self.a**2 * h1**2)
        d2 = (Fp[1:-1, 2:] - 2 * c + Fp[1:-1, :-2]) / (self.b**2 * h2**2)
        return d1 + d2

    def resolvent(self, F, dt):
        """X with (I - dt L) X = F, L the stencil of laplace_beltrami.

        L is periodic with constant coefficients, so the discrete
        Fourier modes diagonalize it.
        """
        h1, h2 = self.spacing
        lam1 = _mode_symbol(self.n1, h1) / self.a**2
        lam2 = _mode_symbol(self.n2 // 2 + 1, h2) / self.b**2
        symbol = 1 + dt * (lam1[:, None] + lam2[None, :])
        Fh = np.fft.rfft2(F, axes=(0, 1))
        Fh /= symbol.reshape(symbol.shape + (1,) * (Fh.ndim - 2))
        return np.fft.irfft2(Fh, s=(self.n1, self.n2), axes=(0, 1))

    def high_order_weight_grid(self):
        """Trapezoid weights, spectrally accurate for periodic fields."""
        return self.quad_weight_grid()

    def flagged_mask(self):
        return np.zeros((self.n1, self.n2), dtype=bool)


@dataclass(frozen=True)
class RoundSphere2(ChartGrid):
    """Round sphere of radius r, chart (theta, phi).

    Latitude nodes are staggered: theta_i = (i + 1/2) pi / n1, so the
    chart poles are never sampled.  n2 must be even so fields can be
    continued across the poles (the ghost row at -theta is the row at
    +theta with phi shifted by pi).
    """

    r: float = 1.0
    n1: int = 64
    n2: int | None = None

    kind = "sphere"
    N2_PER_N1 = 2
    # chart-artifact collar: nodes with theta closer than this to a pole
    # are flagged; the 1/sin(theta) factors of the chart amplify O(h^2)
    # stencil errors to O(h) on any fixed number of rows, so the flag
    # has to cover a fixed angle rather than a fixed row count
    pole_collar = np.pi / 16

    def __post_init__(self):
        super().__post_init__()
        if self.r <= 0:
            raise UsageError("sphere radius must be positive")
        if self.n1 < 4 or self.n2 < 4:
            raise UsageError("sphere grid needs at least 4 nodes per axis")
        if self.n2 % 2 != 0:
            raise UsageError("sphere grid needs an even longitude count")

    # -- chart ---------------------------------------------------------------

    @property
    def spacing(self):
        return (np.pi / self.n1, TWO_PI / self.n2)

    def axes(self):
        h1, h2 = self.spacing
        theta = (np.arange(self.n1) + 0.5) * h1
        phi = np.arange(self.n2) * h2
        return theta, phi

    def check_point(self, p):
        p = _as_point(p)
        if not (0.0 < p[0] < np.pi):
            raise ChartDomainError(f"theta={p[0]} outside (0, pi)")
        if not (0.0 <= p[1] <= TWO_PI):
            raise ChartDomainError(f"phi={p[1]} outside [0, 2pi]")
        return p

    def descriptor(self):
        return f"sphere:r={fmt_param(self.r)}"

    # -- metric and curvature ------------------------------------------------

    def metric_at(self, p):
        self.check_point(p)
        return np.diag([self.r**2, (self.r * np.sin(p[0])) ** 2])

    def metric_diag_grid(self):
        theta, _ = self.axes()
        g = np.empty((self.n1, self.n2, 2))
        g[..., 0] = self.r**2
        g[..., 1] = (self.r * np.sin(theta))[:, None] ** 2
        return g

    def sqrt_det_grid(self):
        theta, _ = self.axes()
        return np.broadcast_to(
            (self.r**2 * np.sin(theta))[:, None], (self.n1, self.n2)
        ).copy()

    def christoffel_at(self, p):
        p = self.check_point(p)
        th = p[0]
        G = np.zeros((2, 2, 2))  # G[k, i, j]
        G[0, 1, 1] = -np.sin(th) * np.cos(th)
        G[1, 0, 1] = G[1, 1, 0] = np.cos(th) / np.sin(th)
        return G

    def christoffel_grid(self):
        """(Gamma^theta_phiphi, Gamma^phi_thetaphi) on the last axis.

        The other symbols of the warped product vanish.
        """
        theta, _ = self.axes()
        G = np.empty((self.n1, self.n2, 2))
        G[..., 0] = (-np.sin(theta) * np.cos(theta))[:, None]
        G[..., 1] = (np.cos(theta) / np.sin(theta))[:, None]
        return G

    def ricci_at(self, p):
        # Ric = (n-1)/r^2 g with n = 2
        return self.metric_at(p) / self.r**2

    def ricci_grid(self):
        """Ricci diagonal: Ric = g / r^2."""
        return self.metric_diag_grid() / self.r**2

    # -- discrete calculus ---------------------------------------------------

    def extend(self, F, axis, width):
        """`width` ghost layers on each side of `axis`.

        Periodic in phi.  In theta the field is continued across each
        pole by the double-Fourier-sphere rule F(-theta, phi) =
        F(theta, phi + pi): the ghost rows are the rows nearest the pole
        in reverse order, rolled by half a turn.  The continued field is
        2n1-periodic in theta, so central stencils of any width apply.
        """
        F = np.asarray(F)
        if axis == 1:
            return _wrap(F, 1, width)
        half = self.n2 // 2
        top = np.roll(F[width - 1::-1], half, axis=1)
        bot = np.roll(F[:-width - 1:-1], half, axis=1)
        return np.concatenate([top, F, bot], axis=0)

    def laplace_beltrami(self, F):
        """Conservative (flux-form) discrete Laplace-Beltrami.

        The theta fluxes carry sin(theta) at cell interfaces; the
        interface at each pole has sin = 0, so the discrete divergence
        theorem holds exactly.
        """
        F = np.asarray(F, dtype=float)
        h1, h2 = self.spacing
        theta, _ = self.axes()
        shape = (self.n1,) + (1,) * (F.ndim - 1)
        s = np.sin(theta).reshape(shape)
        s_up = np.sin(theta + h1 / 2).reshape(shape)
        s_dn = np.sin(theta - h1 / 2).reshape(shape)
        Fp = self.pad(F)
        c = Fp[1:-1, 1:-1]
        flux = s_up * (Fp[2:, 1:-1] - c) - s_dn * (c - Fp[:-2, 1:-1])
        d1 = flux / (self.r**2 * s * h1**2)
        d2 = (Fp[1:-1, 2:] - 2 * c + Fp[1:-1, :-2]) / (self.r**2 * s**2 * h2**2)
        return d1 + d2

    def resolvent(self, F, dt):
        """X with (I - dt L) X = F, L the stencil of laplace_beltrami.

        L has constant coefficients in phi, so a real FFT in phi leaves
        one tridiagonal system in theta per Fourier mode.  The pole
        interfaces carry sin(0) = 0 and sin(pi) ~ 1.2e-16, so their
        ghost couplings are dropped and each system stays tridiagonal.  (I - dt L) is then a strictly diagonally dominant
        M-matrix, and one batched Thomas sweep solves it without pivoting.
        """
        h1, h2 = self.spacing
        theta, _ = self.axes()
        s = np.sin(theta)
        s_up = np.sin(theta + h1 / 2)
        s_dn = np.sin(theta - h1 / 2)
        s_up[-1] = s_dn[0] = 0.0
        w = dt / (self.r**2 * s * h1**2)
        lower, upper = -w * s_dn, -w * s_up
        mu = _mode_symbol(self.n2 // 2 + 1, h2)
        diag = 1 + (w * (s_up + s_dn))[:, None] + dt * mu / (self.r * s)[:, None] ** 2
        Fh = np.fft.rfft(F, axis=1)
        diag = diag.reshape(diag.shape + (1,) * (Fh.ndim - 2))
        ratio = np.empty_like(diag)
        ratio[0] = upper[0] / diag[0]
        Fh[0] /= diag[0]
        for i in range(1, self.n1):
            pivot = diag[i] - lower[i] * ratio[i - 1]
            ratio[i] = upper[i] / pivot
            Fh[i] -= lower[i] * Fh[i - 1]
            Fh[i] /= pivot
        for i in range(self.n1 - 2, -1, -1):
            Fh[i] -= ratio[i] * Fh[i + 1]
        return np.fft.irfft(Fh, n=self.n2, axis=1)

    def high_order_weight_grid(self):
        """r^2 w_i h2 with Fejer's first-rule weights w_i in theta.

        The staggered latitudes are exactly the Fejer-1 nodes, so the
        rule integrates the sin(theta) area factor with the field
        instead of sampling it at the midpoint: smooth fields on the
        sphere are integrated spectrally rather than at O(h^2).
        """
        w = fejer1_weights(self.n1)
        return np.broadcast_to(
            (self.r**2 * w * self.spacing[1])[:, None], (self.n1, self.n2)
        ).copy()

    def flagged_mask(self):
        theta, _ = self.axes()
        rows = (theta < self.pole_collar) | (theta > np.pi - self.pole_collar)
        rows[0] = rows[-1] = True
        return np.broadcast_to(rows[:, None], (self.n1, self.n2)).copy()


def ricci_min(domain):
    """Minimum over the grid nodes of the least eigenvalue of g^{-1} Ric.

    Metric and Ricci tensor are diagonal, so the eigenvalues at a node
    are (d_i Ric_ii) d_i with d = g_ii^{-1/2}, associated as `gen_eigh`
    scales its matrix; no eigensolve is needed.  Returns (value,
    witness chart point).
    """
    U, V = domain.chart_grid()
    pts = np.stack([U.ravel(), V.ravel()], axis=-1)
    d = 1.0 / np.sqrt(domain.metric_diag_grid())
    lam = np.min(d * domain.ricci_grid() * d, axis=-1).ravel()
    k = int(np.argmin(lam))
    return float(lam[k]), pts[k]
