"""Dickman rho by a fixed-point march on a uniform grid: a test oracle.

Independent of the power series in friabilis.dickman.  The march steps the
integral identity u rho(u) = integral of rho over [u-1, u] node by node,
with fixed-order Gauss-Legendre rules on grid cells and cubic Lagrange
interpolation of stored log rho values, so its error shrinks like h^2
and the series can be checked against it.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from friabilis.errors import DomainError, NumericError, RangeError


@dataclass
class MarchGrid:
    u_max: float
    h: float
    log_rho: np.ndarray  # node i holds log rho(i*h)
    quadrature_order: int


def _lagrange_row(tau: float) -> tuple:
    """Cubic Lagrange weights at local coordinate tau over nodes {0,1,2,3}."""
    t0 = tau
    t1 = tau - 1.0
    t2 = tau - 2.0
    t3 = tau - 3.0
    return (
        -t1 * t2 * t3 / 6.0,
        t0 * t2 * t3 / 2.0,
        -t0 * t1 * t3 / 2.0,
        t0 * t1 * t2 / 6.0,
    )


def _closed_log_rho(u: float) -> float:
    # exact on [0, 2]
    if u <= 1.0:
        return 0.0
    return math.log1p(-math.log(u))


def _panel_closed(a: float, b: float) -> float:
    """Exact integral of rho over [a, b] when b <= 2 (closed-form region)."""
    def F(t):
        if t <= 1.0:
            return t
        # antiderivative of 1 - log t, shifted to match F(1) = 1
        return 2.0 * t - t * math.log(t) - 1.0
    return F(b) - F(a)


def march_grid(u_max: float = 128.0, h: float = 1.0 / 128.0, quadrature_order: int = 4) -> MarchGrid:
    """March the Dickman delay identity on a uniform grid, storing log rho.

    h is snapped to 1/round(1/h) so the one-unit delay window is a whole
    number of grid cells.  At each new node the last cell's integrand involves
    the unknown value through the interpolation stencil, so the node is
    solved by a short fixed-point iteration (contraction factor ~ h/u).
    """
    if not (2.0 <= u_max <= 500.0):
        raise DomainError(f"u_max must lie in [2, 500], got {u_max}")
    if not (1e-4 <= h <= 0.1):
        raise DomainError(f"h must lie in [1e-4, 0.1], got {h}")
    if not (2 <= quadrature_order <= 16):
        raise DomainError(f"quadrature_order must lie in [2, 16], got {quadrature_order}")
    m = int(round(1.0 / h))
    h = 1.0 / m
    n = int(math.ceil(u_max * m - 1e-9))
    u_max = n * h

    lr = np.zeros(n + 1)
    for i in range(m + 1, min(2 * m, n) + 1):
        lr[i] = _closed_log_rho(i * h)

    # panel integrals (as logs); panel j covers [(j-1)h, jh]
    p_log = np.full(n + 1, -np.inf)
    for j in range(1, min(2 * m, n) + 1):
        p_log[j] = math.log(_panel_closed((j - 1) * h, j * h))

    if n <= 2 * m:
        return MarchGrid(u_max=u_max, h=h, log_rho=lr, quadrature_order=quadrature_order)

    gx, gw = leggauss(quadrature_order)
    # last-panel Gauss nodes sit at local coordinate 2..3 of the stencil
    # (i-3, i-2, i-1, i); Lagrange weights are constant across nodes.
    taus = 2.0 + 0.5 * (gx + 1.0)
    wrows = [_lagrange_row(t) for t in taus]
    gw_h = [0.5 * h * w for w in gw]

    for i in range(2 * m + 1, n + 1):
        u_i = i * h
        ref = float(lr[i - 1])
        s_known = float(np.exp(p_log[i - m + 1 : i] - ref).sum())
        a0 = float(lr[i - 3])
        a1 = float(lr[i - 2])
        a2 = ref
        guess = 2.0 * a2 - a1  # linear extrapolation in log space
        p_rel = 0.0
        for _ in range(80):
            p_rel = 0.0
            for (w0, w1, w2, w3), gwk in zip(wrows, gw_h):
                val = w0 * a0 + w1 * a1 + w2 * a2 + w3 * guess
                p_rel += gwk * math.exp(val - ref)
            new = ref + math.log((s_known + p_rel) / u_i)
            if abs(new - guess) <= 1e-14 * max(1.0, abs(new)):
                guess = new
                break
            guess = new
        else:
            raise NumericError(f"rho marching stalled at u = {u_i}")
        lr[i] = guess
        p_log[i] = ref + math.log(p_rel)

    return MarchGrid(u_max=u_max, h=h, log_rho=lr, quadrature_order=quadrature_order)


def march_rho(u: float, grid: MarchGrid) -> float:
    """log rho(u): exact on [0, 2], cubic interpolation of the march beyond."""
    u = float(u)
    if u < 0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u <= 2.0:
        return _closed_log_rho(u)
    if u > grid.u_max * (1.0 + 1e-12):
        raise RangeError(f"u={u} beyond grid u_max {grid.u_max}")
    n = len(grid.log_rho) - 1
    pos = u / grid.h
    j0 = int(pos) - 1
    j0 = min(max(j0, 0), n - 3)
    tau = pos - j0
    w = _lagrange_row(tau)
    lrv = grid.log_rho
    return float(w[0] * lrv[j0] + w[1] * lrv[j0 + 1] + w[2] * lrv[j0 + 2] + w[3] * lrv[j0 + 3])
