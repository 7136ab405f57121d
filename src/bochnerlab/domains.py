"""Domain manifolds as structured chart grids.

Two built-in compact surfaces: the flat 2-torus and the round 2-sphere.
Each carries a closed-form metric, Christoffel symbols and Ricci tensor
on a periodic (torus) or pole-staggered (sphere) node grid, and a fast
direct solver for (I - dt L) that the heat flow's implicit step calls.

Both charts are orthogonal warped products g = diag(E(u), G(u))
(Bishop & O'Neill 1969), so the grid forms are row profiles, shape
(n1, 1, 2), that broadcast against node fields, and store only what
can be nonzero: the metric and Ricci diagonals and the Christoffel
symbols (Gamma^u_vv, Gamma^v_uv = Gamma^v_vu).  The area element and
the quadrature weights are (n1, 1) profiles.  The dense point forms
that the test suite's finite-difference cross-checks read live in its
chart oracle.

Sphere grids stagger the latitude nodes so no node sits on a chart
pole; ghost rows continue fields across the pole antipodally, which
keeps stencils of any width central.  The rows near the poles are
flagged so sup-norm diagnostics can exclude them.

The Laplace-Beltrami is one kernel, `laplace_beltrami_rows`, on a band
of grid rows continued by one ghost row and column either side;
`maps.laplace_beltrami` runs it over a node field a row band at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError
from .numerics import fejer1_weights, fmt_param

TWO_PI = 2.0 * np.pi
MAX_NODES = 2**24  # 128 times the 256 x 512 sphere grid; refused beyond


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


class ChartGrid:
    """Grid code shared by the chart domains (frozen dataclasses below).

    A domain built without n2 takes N2_PER_N1 * n1 longitude nodes.
    """

    n = 2  # intrinsic dimension
    N2_PER_N1 = 1

    def __post_init__(self):
        if self.n2 is None:
            object.__setattr__(self, "n2", self.N2_PER_N1 * self.n1)
        if self.n1 * self.n2 > MAX_NODES:
            raise UsageError(f"{self.n1} x {self.n2} grid exceeds MAX_NODES = {MAX_NODES}")
        if self.n1 < 4 or self.n2 < 4:
            raise UsageError(f"{self.kind} grid needs at least 4 nodes per axis")
        # the calculus divides by g_ii, g_ii^2 and h_i^2 g_ii at every node
        # (a Python float squared beyond the range raises OverflowError)
        try:
            with np.errstate(all="ignore"):
                g = self.metric_diag_grid()
                g = np.concatenate([g, g * g, g * np.square(self.spacing)])
        except OverflowError:
            g = np.inf
        if not np.all((g >= np.finfo(float).tiny) & (g <= np.finfo(float).max)):
            raise UsageError(f"{self.descriptor()} at {self.n1} x {self.n2} nodes has a metric "
                             "g_ii, g_ii^2 or h_i^2 g_ii that is not a finite normal float")

    def chart_grid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def with_resolution(self, n1, n2=None):
        return replace(self, n1=n1, n2=n2)

    def _row_profile(self, first, second):
        """The (n1, 1, 2) profile of two per-row (or constant) components."""
        out = np.empty((self.n1, 1, 2))
        out[:, 0, 0] = first
        out[:, 0, 1] = second
        return out

    def inv_metric_diag_grid(self):
        return 1.0 / self.metric_diag_grid()

    def quad_weight_grid(self):
        """The quadrature weights sqrt(det g) h1 h2, an (n1, 1) row profile."""
        h1, h2 = self.spacing
        return self.sqrt_det_grid() * h1 * h2

    def volume(self):
        # a contiguous grid: np.sum over the broadcast profile adds in another order
        return float(np.repeat(self.quad_weight_grid(), self.n2, axis=1).sum())


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

    # -- chart ---------------------------------------------------------------

    @property
    def spacing(self):
        return (TWO_PI / self.n1, TWO_PI / self.n2)

    def axes(self):
        h1, h2 = self.spacing
        return np.arange(self.n1) * h1, np.arange(self.n2) * h2

    def descriptor(self):
        return f"torus:a={fmt_param(self.a)},b={fmt_param(self.b)}"

    # -- metric and curvature ------------------------------------------------

    def metric_diag_grid(self):
        return self._row_profile(self.a**2, self.b**2)

    def sqrt_det_grid(self):
        return np.full((self.n1, 1), self.a * self.b)

    def christoffel_grid(self):
        """(Gamma^u_vv, Gamma^v_uv) on the last axis; flat, so zero."""
        return np.zeros((self.n1, 1, 2))

    def ricci_grid(self):
        """Ricci diagonal (Ric_uu, Ric_vv); flat, so zero."""
        return np.zeros((self.n1, 1, 2))

    # -- discrete calculus ---------------------------------------------------

    def extend(self, F, axis, width):
        """`width` ghost layers on each side of `axis`, periodic."""
        return _wrap(np.asarray(F), axis, width)

    def laplace_beltrami_rows(self, Fp, rows):
        """The Laplace-Beltrami on the grid rows `rows`, from Fp: the field
        on them and on one continued ghost row and column either side."""
        h1, h2 = self.spacing
        c = Fp[1:-1, 1:-1]
        d1 = (Fp[2:, 1:-1] - 2 * c + Fp[:-2, 1:-1]) / (self.a**2 * h1**2)
        d2 = (Fp[1:-1, 2:] - 2 * c + Fp[1:-1, :-2]) / (self.b**2 * h2**2)
        return d1 + d2

    def resolvent(self, F, dt):
        """X with (I - dt L) X = F, L the stencil of laplace_beltrami_rows.

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
        return np.zeros(self.n1, dtype=bool)


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

    def descriptor(self):
        return f"sphere:r={fmt_param(self.r)}"

    # -- metric and curvature ------------------------------------------------

    def metric_diag_grid(self):
        theta, _ = self.axes()
        return self._row_profile(self.r**2, (self.r * np.sin(theta)) ** 2)

    def sqrt_det_grid(self):
        theta, _ = self.axes()
        return (self.r**2 * np.sin(theta))[:, None]

    def christoffel_grid(self):
        """(Gamma^theta_phiphi, Gamma^phi_thetaphi) on the last axis.

        The other symbols of the warped product vanish.
        """
        theta, _ = self.axes()
        s, c = np.sin(theta), np.cos(theta)
        return self._row_profile(-s * c, c / s)

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

    def _sin_profiles(self):
        """sin(theta) at the latitude nodes and at the interfaces above
        and below them, shape (n1,) each."""
        h1 = self.spacing[0]
        theta, _ = self.axes()
        return np.sin(theta), np.sin(theta + h1 / 2), np.sin(theta - h1 / 2)

    def laplace_beltrami_rows(self, Fp, rows):
        """Conservative (flux-form) discrete Laplace-Beltrami on the grid
        rows `rows`, from Fp: the field on them and on one continued ghost
        row and column either side.

        The theta fluxes carry sin(theta) at cell interfaces; the
        interface at each pole has sin = 0, so the discrete divergence
        theorem holds exactly.
        """
        h1, h2 = self.spacing
        shape = (-1,) + (1,) * (Fp.ndim - 1)
        s, s_up, s_dn = (x[rows].reshape(shape) for x in self._sin_profiles())
        c = Fp[1:-1, 1:-1]
        flux = s_up * (Fp[2:, 1:-1] - c) - s_dn * (c - Fp[:-2, 1:-1])
        d1 = flux / (self.r**2 * s * h1**2)
        d2 = (Fp[1:-1, 2:] - 2 * c + Fp[1:-1, :-2]) / (self.r**2 * s**2 * h2**2)
        return d1 + d2

    def resolvent(self, F, dt):
        """X with (I - dt L) X = F, L the stencil of laplace_beltrami_rows.

        L has constant coefficients in phi, so a real FFT in phi leaves
        one tridiagonal system in theta per Fourier mode.  The pole
        interfaces carry sin(0) = 0 and sin(pi) ~ 1.2e-16, so their
        ghost couplings are dropped and each system stays tridiagonal.
        (I - dt L) is then a strictly diagonally dominant M-matrix, and
        one batched Thomas sweep solves it without pivoting.
        """
        h1, h2 = self.spacing
        s, s_up, s_dn = self._sin_profiles()
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
        return (self.r**2 * fejer1_weights(self.n1) * self.spacing[1])[:, None]

    def flagged_mask(self):
        """The flagged rows, shape (n1,): field[~mask] drops their nodes."""
        theta, _ = self.axes()
        rows = (theta < self.pole_collar) | (theta > np.pi - self.pole_collar)
        rows[0] = rows[-1] = True
        return rows


def ricci_min(domain):
    """Minimum over the grid nodes of the least eigenvalue of g^{-1} Ric.

    Metric and Ricci tensor are diagonal, so the eigenvalues at a node
    are (d_i Ric_ii) d_i with d = g_ii^{-1/2}, associated as `gen_eigvalsh`
    scales its matrix; no eigensolve is needed.  They depend on the row
    alone.  Returns (value, witness chart point), the witness the first
    node in C order that attains the minimum.
    """
    d = 1.0 / np.sqrt(domain.metric_diag_grid())
    lam = np.min(d * domain.ricci_grid() * d, axis=-1)[:, 0]
    k = int(np.argmin(lam))
    u, v = domain.axes()
    return float(lam[k]), np.array([u[k], v[0]])
