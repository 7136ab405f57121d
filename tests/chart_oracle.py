"""Oracles on the domain charts, for the closed forms the library uses:
Christoffel symbols and the Ricci tensor from central differences of
the dense point forms, and the closed-form Jacobian of the radial
scaling map."""

import numpy as np


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
        dg[l] = (domain.metric_at(p + e) - domain.metric_at(p - e)) / (2 * h)
    ginv = np.linalg.inv(domain.metric_at(p))
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
        dG[c] = (domain.christoffel_at(p + e) - domain.christoffel_at(p - e)) / (2 * h)
    G = domain.christoffel_at(p)
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
