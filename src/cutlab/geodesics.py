"""Geodesic integration: RK4 on the geodesic ODE and cubic-Hermite
sampling of the paths."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Backend


class IntegrationError(Exception):
    """Raised when a geodesic integration violates its drift budget."""


DRIFT_BUDGET = 1e-6  # unit-speed drift allowance per unit length


@dataclass
class BatchPaths:
    """Time-sampled batch of geodesics sharing one grid.

    pos/vel have shape (k, n, d); t has shape (n,).
    """

    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    dt: float
    drift: np.ndarray  # per-path max speed drift

    @property
    def n_paths(self) -> int:
        return self.pos.shape[0]

    def split(self, sizes) -> list["BatchPaths"]:
        """The paths in consecutive blocks of the given numbers of rows."""
        ends = np.cumsum(sizes)
        return [BatchPaths(self.t, self.pos[e - n:e], self.vel[e - n:e],
                           self.dt, self.drift[e - n:e])
                for n, e in zip(sizes, ends)]


def hermite_sample(tg: np.ndarray, pos: np.ndarray, vel: np.ndarray, t: float):
    """Cubic Hermite interpolation of (pos, vel) at time t on grid tg."""
    p, v = hermite_batch(tg, pos[None], vel[None], [0], [t])
    return p[0], v[0]


def hermite_batch(tg: np.ndarray, pos: np.ndarray, vel: np.ndarray, J, t):
    """Cubic Hermite interpolation of paths J at times t, element-wise;
    outside the grid the first or last node comes back.

    pos/vel have shape (k, n, d) on the shared grid tg; J and t are 1-D and
    of equal length.
    """
    J = np.asarray(J, dtype=np.int64)[:, None]
    t = np.asarray(t, dtype=float)
    # segment index, clamped to the first/last segment outside the grid
    i = np.searchsorted(tg[1:-1], t, side="right")
    h = tg[i + 1] - tg[i]
    seg = i[:, None] + (0, 1)
    P, V = pos[J, seg], vel[J, seg]
    p, v = _hermite(h[:, None], ((t - tg[i]) / h)[:, None],
                    P[:, 0], P[:, 1], V[:, 0], V[:, 1])
    for end, node in ((t >= tg[-1], -1), (t <= tg[0], 0)):
        if end.any():
            p[end], v[end] = pos[J[end, 0], node], vel[J[end, 0], node]
    return p, v


def _hermite(h, s, p0, p1, v0, v1):
    """Position and velocity of the cubic Hermite segment of width h through
    (p0, v0), (p1, v1) at local coordinate s in [0, 1]."""
    # float_power runs libm pow, as ** on a float64 scalar does; ndarray ** 3
    # takes a SIMD path that can differ in the last bit
    s2, s3 = np.float_power(s, 2), np.float_power(s, 3)
    m0, m1 = v0 * h, v1 * h
    p = ((2 * s3 - 3 * s2 + 1) * p0 + (s3 - 2 * s2 + s) * m0
         + (-2 * s3 + 3 * s2) * p1 + (s3 - s2) * m1)
    v = ((6 * s2 - 6 * s) / h * p0 + (3 * s2 - 4 * s + 1) / h * m0
         + (-6 * s2 + 6 * s) / h * p1 + (3 * s2 - 2 * s) / h * m1)
    return p, v


def _rhs(b: Backend, x: np.ndarray, v: np.ndarray):
    return v, -b.gamma2(x, v)


def integrate_batch(b: Backend, p0: np.ndarray, v0: np.ndarray,
                    t_max: float, dt: float, blocks=None) -> BatchPaths:
    """Classical fixed-step RK4 on (x' = v, v' = -Gamma(x)(v, v)).

    Every step ends in ``b.retract``: an implicit surface re-projects the
    point onto {h = 0} and re-tangentializes the velocity with its
    pre-projection norm restored.

    ``blocks`` stacks independent problems in one run: (backend, rows)
    pairs in row order that cover every row, each backend the one its rows
    have alone, while b carries every row's own metric.  Each block's
    speed drift is audited on its own backend, in order, as integrating it
    alone would audit it.
    """
    if t_max <= 0.0 or dt <= 0.0:
        raise ValueError("t_max and dt must be positive")
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    n_steps = int(np.ceil(t_max / dt - 1e-12))
    tg = np.empty(n_steps + 1)
    tg[:-1] = dt * np.arange(n_steps)
    tg[-1] = t_max
    k, d = p0.shape
    pos = np.empty((k, n_steps + 1, d))
    vel = np.empty((k, n_steps + 1, d))
    pos[:, 0] = p0
    vel[:, 0] = v0
    x, v = p0.copy(), v0.copy()
    for i in range(n_steps):
        h = tg[i + 1] - tg[i]
        k1x, k1v = _rhs(b, x, v)
        k2x, k2v = _rhs(b, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = _rhs(b, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = _rhs(b, x + h * k3x, v + h * k3v)
        x, v = b.retract(x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x),
                         v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v))
        pos[:, i + 1] = x
        vel[:, i + 1] = v
    drift, lo = [], 0
    for bb, rows in blocks or [(b, k)]:
        drift.append(_drift(bb, pos[lo:lo + rows], vel[lo:lo + rows], t_max))
        lo += rows
    return BatchPaths(tg, pos, vel, dt, np.concatenate(drift))


def _drift(b: Backend, pos, vel, t_max: float):
    """Per-path max speed drift; raises an IntegrationError when the worst
    exceeds DRIFT_BUDGET, scaled by t_max and the fastest start speed."""
    k = len(pos)
    speeds = b.norm(pos, vel)
    drift = np.max(np.abs(speeds - speeds[:, :1]), axis=1)
    budget = DRIFT_BUDGET * max(1.0, t_max) * max(1.0, float(np.max(speeds[:, 0])) if k else 1.0)
    if k and np.max(drift) > budget:
        raise IntegrationError(
            f"speed drift {np.max(drift):.3e} exceeds budget {budget:.3e}")
    return drift

