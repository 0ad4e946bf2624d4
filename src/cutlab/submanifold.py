"""Points and closed embedded curves: unit normal frames, shape operators,
principal-curvature bound, foot-point projection, embedding families."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Backend, GeometryError, check_params, wrap_periodic

_DS = 1e-5          # parameter step for curve/normal-field derivatives
CURVATURE_SAFETY = 1.1  # factor on the sampled max |kappa| (Delta)
FOOT_TOL = 1e-8         # bracket width that ends a foot-point search
TUBE_RADIUS = 0.1       # aux distance beyond which d_est is not polished


@dataclass(frozen=True)
class CurveSpec:
    """Closed-curve parametrization c : [0, 1) -> M, smooth and periodic."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s):
        return self.fn(wrap_periodic(s, 1.0))

    def velocity(self, s):
        # differentiate the raw representative: chart curves like (L1 s, y0)
        # are smooth in s but jump under the mod-1 reduction of __call__
        s = np.asarray(s, dtype=float)
        return (self.fn(s + _DS) - self.fn(s - _DS)) / (2.0 * _DS)


def chart_curve(name: str, periods, **params) -> CurveSpec:
    L1, L2 = float(periods[0]), float(periods[1])
    check_params("chart curve", name, params, {
        "horizontal-circle": ("y0",), "chart-circle": ("center", "r")})
    if name == "horizontal-circle":
        y0 = float(params.get("y0", 0.0))

        def fn(s):
            return np.stack([L1 * s, np.full_like(s, y0)], axis=-1)
    elif name == "chart-circle":
        cx, cy = (float(v) for v in params.get("center", (0.5, 0.5)))
        r = float(params.get("r", 0.2))

        def fn(s):
            a = 2.0 * np.pi * s
            return np.stack([cx + r * np.cos(a), cy + r * np.sin(a)], axis=-1)
    return CurveSpec(fn)


def surface_curve(name: str, **params) -> CurveSpec:
    check_params("surface curve", name, params,
                 {"equator": ("radius",), "latitude": ("radius", "z0")})
    r = float(params.get("radius", 1.0))
    z0 = float(params.get("z0", 0.0))
    if name == "latitude" and abs(z0) >= r:
        raise GeometryError("latitude z0 must satisfy |z0| < radius")
    rho = np.sqrt(r * r - z0 * z0)

    def fn(s):
        a = 2.0 * np.pi * s
        return np.stack([rho * np.cos(a), rho * np.sin(a),
                         np.full_like(s, z0)], axis=-1)

    return CurveSpec(fn)


@dataclass(frozen=True)
class SubmanifoldSpec:
    """N as a point (dim 0) or a closed curve (dim 1) with sampling count."""

    dim: int
    point: np.ndarray | None = None
    curve: CurveSpec | None = None
    m_N: int = 256

    def __post_init__(self):
        if self.dim == 0 and self.point is None:
            raise GeometryError("dim-0 submanifold needs a point")
        if self.dim == 1 and self.curve is None:
            raise GeometryError("dim-1 submanifold needs a curve")

    def sample_params(self, m: int | None = None) -> np.ndarray:
        m = self.m_N if m is None else m
        return np.arange(m) / m

    def sample_points(self, m: int | None = None) -> np.ndarray:
        if self.dim == 0:
            return self.point[None, :]
        return self.curve(self.sample_params(m))


def point_submanifold(p, m_N: int = 256) -> SubmanifoldSpec:
    return SubmanifoldSpec(0, point=np.asarray(p, dtype=float), m_N=m_N)


def curve_submanifold(curve: CurveSpec, m_N: int = 256) -> SubmanifoldSpec:
    return SubmanifoldSpec(1, curve=curve, m_N=m_N)


@dataclass(frozen=True)
class NormalFrame:
    """Unit normal at c(s) (or direction angle s at a point), with side."""

    s: float
    side: int
    base: np.ndarray
    n: np.ndarray


def _side_int(side) -> int:
    if side in (1, +1, "+", "plus"):
        return 1
    if side in (-1, "-", "minus"):
        return -1
    raise GeometryError(f"invalid side {side!r}")


def unit_normals(b: Backend, N: SubmanifoldSpec, s, sides):
    """Unit normals of N, the start states of its normal geodesics: arrays
    (base, n) of shape (k, dim), one row per parameter s[i].

    On a curve, row i is the g-unit normal at c(s[i]) on side sides[i]; side
    + is the chart/ambient-oriented left of c'(s).  At a point, row i is the
    g-unit vector at chart/tangent-plane angle s[i] and sides is ignored.

    Raises the GeometryError of the first row, in order, whose curve
    velocity or normal is degenerate.
    """
    s = np.asarray(s, dtype=float)
    if N.dim == 0:
        e1, e2 = b.tangent_basis(N.point[None, :])
        raw = np.cos(s)[:, None] * e1 + np.sin(s)[:, None] * e2
        return (np.broadcast_to(N.point, raw.shape),
                raw / b.norm(N.point, raw)[:, None])
    sgn = np.array([_side_int(side) for side in sides])
    base = N.curve(s)
    tan = N.curve.velocity(s)
    raw = b.left_normal(base, tan)
    slow = b.norm(base, tan) < 1e-10
    nrm = b.norm(base, raw)
    bad = np.flatnonzero(slow | (nrm < 1e-14))
    if bad.size:
        i = bad[0]
        what = "curve velocity" if slow[i] else "normal"
        raise GeometryError(f"degenerate {what} at s={float(s[i])}")
    return base, sgn[:, None] * raw / nrm[:, None]


def frames_for(b: Backend, N: SubmanifoldSpec, m: int) -> list[NormalFrame]:
    """Direction set driving atlases and profiles: m parameters x both sides
    for a curve, m circle directions at equal angles from (1, 0) for a point
    (fixed ordering)."""
    if N.dim == 0:
        s = 2.0 * np.pi * np.arange(m) / m
        sides = np.ones(m, dtype=int)
    else:
        s = np.tile(N.sample_params(m), 2)
        sides = np.repeat([1, -1], m)
    base, n = unit_normals(b, N, s, sides)
    return [NormalFrame(float(si), int(side), p, v)
            for si, side, p, v in zip(s, sides, base, n)]


# ---------------------------------------------------------------------------
# shape operator and curvature bound
# ---------------------------------------------------------------------------

def shape_operators(b: Backend, N: SubmanifoldSpec, s, sides) -> np.ndarray:
    """Scalar shape operator kappa = g(S_n e, e) for the g-unit tangent e at
    every parameter s[i] with side sides[i], via a finite-difference
    covariant derivative of the unit normal field.

    Sign convention: traveling along n, the focal ODE uses y(0) = 1,
    y'(0) = kappa directly.  On a flat chart this makes the inward normal of
    a circle of radius r give kappa = -1/r (focal at the center at t = r).

    Raises the GeometryError of the first degenerate row, as
    ``unit_normals`` does.
    """
    if N.dim != 1:
        raise GeometryError("shape_operators needs a curve")
    s = np.asarray(s, dtype=float)
    sgn = np.array([_side_int(side) for side in sides])
    # the normals at s, s + ds and s - ds of each row, in that order
    s3 = np.stack([s, s + _DS, s - _DS], axis=1).ravel()
    base, n = unit_normals(b, N, s3, np.repeat(sgn, 3))
    base, n0 = base[0::3], n[0::3]
    dn = (n[1::3] - n[2::3]) / (2.0 * _DS)
    tan = N.curve.velocity(s)
    Dn = b.covariant_derivative(base, tan, n0, dn)
    return b.inner(base, Dn, tan) / b.inner(base, tan, tan)


def principal_curvature_bound(b: Backend, N: SubmanifoldSpec) -> float:
    """Delta: max |kappa| over m_N samples and both sides, times
    CURVATURE_SAFETY.  A point has no shape operator; the bound is 0."""
    if N.dim == 0:
        return 0.0
    s = N.sample_params()
    kappa = shape_operators(b, N, np.repeat(s, 2), np.tile([1, -1], len(s)))
    return CURVATURE_SAFETY * float(np.max(np.abs(kappa)))


# ---------------------------------------------------------------------------
# foot point
# ---------------------------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol: float) -> np.ndarray:
    """Golden-section minimisation of f over the brackets [lo, hi], element
    by element.

    ``f(x, idx)`` returns the objective of elements ``idx`` at points ``x``.
    An element whose bracket is no wider than tol is frozen: it is neither
    evaluated nor updated again.  Returns the final bracket midpoints.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    n = a.size
    if not n:
        return a
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    idx = np.arange(n)
    both = f(np.concatenate([c, d]), np.concatenate([idx, idx]))
    fc, fd = both[:n], both[n:]
    while True:
        act = np.nonzero(b - a > tol)[0]
        if not act.size:
            return 0.5 * (a + b)
        left = fc[act] < fd[act]
        L, R = act[left], act[~left]
        b[L], d[L], fd[L] = d[L], c[L], fc[L]
        c[L] = b[L] - _GOLDEN * (b[L] - a[L])
        a[R], c[R], fc[R] = c[R], d[R], fd[R]
        d[R] = a[R] + _GOLDEN * (b[R] - a[R])
        vals = f(np.where(left, c[act], d[act]), act)
        fc[L] = vals[left]
        fd[R] = vals[~left]


def foot_point(b: Backend, N: SubmanifoldSpec, q) -> tuple[float, float]:
    """(s, d_est): the nearest-parameter projection of q onto N in the
    auxiliary distance, golden-section polished; d_est is a first-order
    g-length within TUBE_RADIUS of N, otherwise the raw auxiliary value."""
    s, d_est = foot_points(b, N, np.asarray(q, dtype=float)[None, :])
    return float(s[0]), float(d_est[0])


def foot_points(b: Backend, N: SubmanifoldSpec, Q: np.ndarray):
    """``foot_point`` for every row of Q at once: arrays (s, d_est)."""
    if N.dim == 0:
        s = np.zeros(len(Q))
        foot = N.point
        d_aux = b.aux_distance(N.point, Q)
    else:
        pts = N.sample_points()
        m = pts.shape[0]
        j = b.aux_distance(pts[None, :, :], Q[:, None, :]).argmin(axis=1)
        x = golden_section(lambda s, idx: b.aux_distance(N.curve(s), Q[idx]),
                           (j - 1) / m, (j + 1) / m, FOOT_TOL)
        s = wrap_periodic(x, 1.0)
        foot = N.curve(s)
        d_aux = b.aux_distance(N.curve(x), Q)
    # inside the tube: the first-order g-length of the gap
    return s, np.where(d_aux > TUBE_RADIUS, d_aux, b.gap_length(foot, Q))


# ---------------------------------------------------------------------------
# embedding families
# ---------------------------------------------------------------------------

def embedding_family(b: Backend, N0: SubmanifoldSpec, N1: SubmanifoldSpec,
                     tau: float) -> SubmanifoldSpec:
    """Interpolated embedding, ``b.interpolate`` at every point: chart-linear
    with the wraparound choice that minimizes displacement, or ambient-linear
    then projected on surfaces."""
    if N0.dim != N1.dim:
        raise GeometryError("embedding_family needs matching dimensions")
    if tau == 0.0:
        return N0
    if N0.dim == 0:
        return SubmanifoldSpec(0, point=b.interpolate(N0.point, N1.point, tau),
                               m_N=N0.m_N)
    c0, c1 = N0.curve, N1.curve

    def fn(s):
        return b.interpolate(c0.fn(s), c1.fn(s), tau)

    return SubmanifoldSpec(1, curve=CurveSpec(fn), m_N=N0.m_N)
