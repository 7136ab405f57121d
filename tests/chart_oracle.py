"""Oracles on the domain charts, for the closed forms the library uses:
the dense point forms of the metric, Christoffel symbols and Ricci
tensor, the symbols and the Ricci tensor again from central differences
of those point forms, the closed-form Jacobian of the radial scaling
map, and the catalog maps' value grids built on chart meshgrids."""

import numpy as np

from bochnerlab.maps import default_basepoint


def metric_at(domain, p):
    """The chart metric at the chart point p, a dense 2 x 2 matrix."""
    p = np.asarray(p, dtype=float)
    if domain.kind == "torus":
        return np.diag([domain.a**2, domain.b**2])
    return np.diag([domain.r**2, (domain.r * np.sin(p[0])) ** 2])


def christoffel_at(domain, p):
    """Christoffel symbols G[k, i, j] = Gamma^k_ij at the chart point p."""
    p = np.asarray(p, dtype=float)
    G = np.zeros((2, 2, 2))
    if domain.kind == "sphere":
        th = p[0]
        G[0, 1, 1] = -np.sin(th) * np.cos(th)
        G[1, 0, 1] = G[1, 1, 0] = np.cos(th) / np.sin(th)
    return G


def ricci_at(domain, p):
    """Ricci tensor at the chart point p: zero on the flat torus, and
    Ric = (n-1)/r^2 g with n = 2 on the sphere."""
    if domain.kind == "torus":
        return np.zeros((2, 2))
    return metric_at(domain, p) / domain.r**2


def christoffel_fd_at(domain, p, h=None):
    """Christoffel symbols from central differences of the metric.

    Cross-check path for the closed forms; O(h^2) in the step.
    """
    p = np.asarray(p, dtype=float)
    if h is None:
        h = min(domain.spacing)
    dg = np.empty((2, 2, 2))  # dg[l, i, j] = d_l g_ij
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        dg[l] = (metric_at(domain, p + e) - metric_at(domain, p - e)) / (2 * h)
    ginv = np.linalg.inv(metric_at(domain, p))
    G = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                G[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                    for l in range(2)
                )
    return G


def ricci_fd_at(domain, p, h=None):
    """Ricci tensor from central differences of the closed-form connection.

    Ric_ab = d_m G^m_ab - d_a G^m_mb + G^m_ml G^l_ab - G^m_al G^l_mb.
    """
    p = np.asarray(p, dtype=float)
    if h is None:
        h = min(domain.spacing)
    dG = np.empty((2, 2, 2, 2))  # dG[c, k, i, j] = d_c G^k_ij
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        dG[c] = (christoffel_at(domain, p + e) - christoffel_at(domain, p - e)) / (2 * h)
    G = christoffel_at(domain, p)
    ric = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            t = 0.0
            for m in range(2):
                t += dG[m][m, a, b] - dG[a][m, m, b]
                for l in range(2):
                    t += G[m, m, l] * G[l, a, b] - G[m, a, l] * G[l, m, b]
            ric[a, b] = t
    return 0.5 * (ric + ric.T)


def analytic_scaling_jacobian(domain, r_target):
    """Closed-form Jacobian of the radial scaling map."""
    TH, PH = domain.chart_grid()
    ct, st = np.cos(TH), np.sin(TH)
    cp, sp = np.cos(PH), np.sin(PH)
    d_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = np.stack([-st * sp, st * cp, np.zeros_like(TH)], axis=-1)
    return r_target * np.stack([d_theta, d_phi], axis=-1)


def catalog_values_on_meshgrid(name, domain, target):
    """The raw value grid of a catalog map, each factor evaluated on the
    chart_grid() meshgrids, before the map's reprojection."""
    kind, _, arg = name.partition(":")
    arg = float(arg.partition("=")[2]) if arg else None
    if kind == "constant":
        return np.broadcast_to(default_basepoint(target), (domain.n1, domain.n2, target.m))
    if kind in ("identity", "scaling"):
        TH, PH = domain.chart_grid()
        s = np.sin(TH)
        return target.r * np.stack([s * np.cos(PH), s * np.sin(PH), np.cos(TH)], axis=-1)
    if kind == "holomorphic":
        k = int(arg)
        TH, PH = domain.chart_grid()
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.tan(TH / 2.0) ** k
            denom = 1.0 + w * w
            sin_tp = 2.0 * w / denom
            cos_tp = (1.0 - w * w) / denom
        return target.r * np.stack(
            [sin_tp * np.cos(k * PH), sin_tp * np.sin(k * PH), cos_tp], axis=-1)
    if kind == "cap":
        U, V = domain.chart_grid()
        s = arg / np.sqrt(2.0)
        disp = np.stack([s * np.sin(U), s * np.sin(V), np.zeros_like(U)], axis=-1)
        v = np.array([0.0, 0.0, 1.0]) + disp
        return target.r * (v / np.linalg.norm(v, axis=-1, keepdims=True))
    raise ValueError(name)
