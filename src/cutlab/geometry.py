"""Surface backends: periodic-chart metrics and implicit surfaces in 3-space.

Points and tangent vectors are plain numpy arrays (shape (2,) for chart
backends, (3,) for implicit surfaces).  All backend methods but
``dual_norm`` accept batched inputs with the coordinate axis last.  Backends
are immutable; every operation is a pure function of its inputs.

Only this module tells the two kinds apart: the other modules reach the
difference through the methods that both backends define.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class GeometryError(Exception):
    """Raised for degenerate metric data (non-SPD, non-finite, mismatch)."""


def check_params(kind: str, name: str, params: dict, known: dict):
    """Raise a GeometryError unless ``name`` is a known ``kind`` and its
    constructor reads every key of ``params``; ``known`` maps each name to
    the parameters it reads."""
    if name not in known:
        raise GeometryError(f"unknown {kind} {name!r}")
    for key in params:
        if key not in known[name]:
            raise GeometryError(f"{kind} {name!r}: unknown parameter {key!r}")


def row_sum(a) -> np.ndarray:
    """np.sum(a, axis=-1) over an axis of length 2 or 3, bit for bit: NumPy
    adds such rows left to right, and + 0.0 turns a -0.0 sum into +0.0 as
    its reduction does.  Component sums skip the reduction's overhead."""
    out = a[..., 0] + a[..., 1]
    if a.shape[-1] == 3:
        out += a[..., 2]
    out += 0.0
    return out


# ---------------------------------------------------------------------------
# scalar fields (conformal exponents, perturbation bumps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Named smooth scalar field with the parameters that built it."""

    name: str
    params: dict
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, pts):
        return self.fn(np.asarray(pts, dtype=float))


def chart_scalar_field(name: str, periods, **params) -> ScalarField:
    """Built-in periodic scalar fields on a chart with the given periods."""
    L1, L2 = float(periods[0]), float(periods[1])
    check_params("chart scalar field", name, params, {
        "constant": ("value",), "sine-x": ("amplitude", "harmonic"),
        "sine-y": ("amplitude", "harmonic"), "bump-xy": ("amplitude",)})
    if name == "constant":
        c = float(params.get("value", 0.0))
        fn = lambda p: np.full(p.shape[:-1], c)
    elif name == "sine-x":
        a = float(params.get("amplitude", 1.0))
        k = int(params.get("harmonic", 1))
        fn = lambda p: a * np.sin(2.0 * np.pi * k * p[..., 0] / L1)
    elif name == "sine-y":
        a = float(params.get("amplitude", 1.0))
        k = int(params.get("harmonic", 1))
        fn = lambda p: a * np.sin(2.0 * np.pi * k * p[..., 1] / L2)
    elif name == "bump-xy":
        a = float(params.get("amplitude", 1.0))
        fn = lambda p: (a * np.sin(2.0 * np.pi * p[..., 0] / L1)
                        * np.sin(2.0 * np.pi * p[..., 1] / L2))
    return ScalarField(name, dict(params), fn)


def ambient_scalar_field(name: str, **params) -> ScalarField:
    """Built-in scalar fields on 3-space (conformal exponents for surfaces)."""
    check_params("ambient scalar field", name, params, {
        "constant": ("value",), "linear-z": ("amplitude",),
        "sine-z": ("amplitude", "wavenumber")})
    if name == "constant":
        c = float(params.get("value", 0.0))
        fn = lambda p: np.full(p.shape[:-1], c)
    elif name == "linear-z":
        a = float(params.get("amplitude", 1.0))
        fn = lambda p: a * p[..., 2]
    elif name == "sine-z":
        a = float(params.get("amplitude", 1.0))
        k = float(params.get("wavenumber", 1.0))
        fn = lambda p: a * np.sin(k * p[..., 2])
    return ScalarField(name, dict(params), fn)


ZERO_FIELD = ScalarField("constant", {"value": 0.0},
                         lambda p: np.zeros(p.shape[:-1]))


# ---------------------------------------------------------------------------
# chart metric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartMetricField:
    """Map from chart points (n, 2) to symmetric 2x2 tensors (n, 2, 2)."""

    name: str
    params: dict
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, pts):
        return self.fn(np.asarray(pts, dtype=float))


def chart_metric_field(name: str, periods, **params) -> ChartMetricField:
    L1, L2 = float(periods[0]), float(periods[1])
    check_params("chart metric field", name, params, {
        "flat": (), "warped-diag": ("amplitude", "harmonic"),
        "warped-diag-g22": ("amplitude", "harmonic"),
        "conformal-bump": ("amplitude",)})

    def _diag(f11, f22):
        def fn(p):
            g = np.zeros(p.shape[:-1] + (2, 2))
            g[..., 0, 0] = f11(p)
            g[..., 1, 1] = f22(p)
            return g
        return fn

    if name == "flat":
        fn = _diag(lambda p: np.ones(p.shape[:-1]),
                   lambda p: np.ones(p.shape[:-1]))
    elif name == "warped-diag":
        a = float(params.get("amplitude", 0.2))
        k = int(params.get("harmonic", 1))
        b = lambda p: 1.0 + a * np.sin(2.0 * np.pi * k * p[..., 0] / L1)
        # np.square, not ** 2: numpy squares an array but calls pow on a
        # lone value, so one point would read a different g22 than a batch
        fn = _diag(lambda p: np.ones(p.shape[:-1]),
                   lambda p: np.square(b(p)))
    elif name == "warped-diag-g22":
        # diag(1, 1 + a sin 2pi k x): g22 itself perturbed, not its square root
        a = float(params.get("amplitude", 0.1))
        k = int(params.get("harmonic", 1))
        fn = _diag(lambda p: np.ones(p.shape[:-1]),
                   lambda p: 1.0 + a * np.sin(2.0 * np.pi * k * p[..., 0] / L1))
    elif name == "conformal-bump":
        a = float(params.get("amplitude", 0.1))
        phi = chart_scalar_field("bump-xy", (L1, L2), amplitude=a)

        def fn(p):
            g = np.zeros(p.shape[:-1] + (2, 2))
            w = np.exp(2.0 * phi(p))
            g[..., 0, 0] = w
            g[..., 1, 1] = w
            return g
    return ChartMetricField(name, dict(params), fn)


def conformal_chart_field(base: ChartMetricField, phi: ScalarField,
                          tau: float) -> ChartMetricField:
    def fn(p):
        w = np.exp(2.0 * tau * phi(p))
        return base(p) * w[..., None, None]
    return ChartMetricField(f"conformal({base.name})",
                            {"base": base.params, "phi": phi.name, "tau": tau},
                            fn)


def blended_chart_field(g0: ChartMetricField, g1: ChartMetricField,
                        tau: float) -> ChartMetricField:
    def fn(p):
        return (1.0 - tau) * g0(p) + tau * g1(p)
    return ChartMetricField(f"blend({g0.name},{g1.name})", {"tau": tau}, fn)


# ---------------------------------------------------------------------------
# periodic chart backend
# ---------------------------------------------------------------------------

def _spd_det(pts, g) -> np.ndarray:
    """det g of chart metrics g at pts; raises unless every g is finite and
    positive definite."""
    if not np.isfinite(g).all():
        bad = pts[~np.all(np.isfinite(g), axis=(-2, -1))]
        raise GeometryError(f"non-finite metric entries at {bad[:1]}")
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if (det <= 1e-12).any() or (g[..., 0, 0] <= 0.0).any():
        bad = pts[(det <= 1e-12) | (g[..., 0, 0] <= 0.0)]
        raise GeometryError(f"metric not positive definite at {bad[:1]}")
    return det


_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def _dot(u, v) -> np.ndarray:
    """Row-wise u . v as a (k, 1) column, rounded as np.dot of two rows."""
    return (u[:, None, :] @ v[:, :, None])[:, 0]


class _Shared:
    """Methods that both backends define the same way."""

    def norm(self, pts, v) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(pts, v, v), 0.0))

    def christoffel_mixed(self, pts, u, w) -> np.ndarray:
        """Bilinear Christoffel action Gamma(u, w) via polarization."""
        up = self.gamma2(pts, u + w)
        um = self.gamma2(pts, u - w)
        return 0.25 * (up - um)


@dataclass(frozen=True)
class PeriodicChart(_Shared):
    """Torus-like chart [0, L1) x [0, L2) with a smooth periodic metric field.

    Chart coordinates stay unwrapped during integration (the metric field is
    periodic); only ``wrap``/``aux_gap`` reduce modulo the periods.
    """

    periods: tuple[float, float]
    metric_field: ChartMetricField
    fd_step: float = 1e-4       # Christoffel finite differences
    curv_step: float = 1e-3     # second differences for Gauss curvature

    @property
    def dim(self) -> int:
        return 2

    # -- metric ------------------------------------------------------------

    def metric(self, pts, check: bool = True) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        g = self.metric_field(pts)
        if check:
            _spd_det(pts, g)
        return g

    def inner(self, pts, v, w) -> np.ndarray:
        g = self.metric(pts)
        return np.einsum("...ij,...i,...j->...", g, v, w)

    def lam_sqrt_max(self, pts) -> np.ndarray:
        """sqrt of the largest metric eigenvalue (chart-gap -> g-length bound)."""
        g = self.metric(pts, check=False)
        a, b2, c = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
        lam = 0.5 * (a + c + np.sqrt((a - c) ** 2 + 4.0 * b2 ** 2))
        return np.sqrt(lam)

    # -- Christoffel action ------------------------------------------------

    def gamma2(self, pts, v) -> np.ndarray:
        """Gamma^k_ij v^i v^j, the quadratic Christoffel action on v."""
        pts = np.asarray(pts, dtype=float)
        v = np.asarray(v, dtype=float)
        h = self.fd_step
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        # the metric and its central-difference stencil in one field call
        stencil = np.stack([pts, pts + e1, pts - e1, pts + e2, pts - e2])
        G = self.metric(stencil, check=False)
        g = G[0]
        det = _spd_det(pts, g)
        ginv = np.empty_like(g)
        ginv[..., 0, 0] = g[..., 1, 1] / det
        ginv[..., 1, 1] = g[..., 0, 0] / det
        ginv[..., 0, 1] = -g[..., 0, 1] / det
        ginv[..., 1, 0] = -g[..., 1, 0] / det
        dg = np.stack([G[1] - G[2], G[3] - G[4]], axis=-3) / (2.0 * h)
        # cov_l = d_i g_jl v^i v^j - 1/2 d_l g_ij v^i v^j, with dg[l, i, j] =
        # d_l g_ij; each sum runs over (i, j) in row-major order with the
        # product taken as (dg v^i) v^j, the rounding of an einsum over i, j
        A = dg * v[..., :, None, None] * v[..., None, :, None]   # [i, j, l]
        B = dg * v[..., None, :, None] * v[..., None, None, :]   # [l, i, j]
        a = (A[..., 0, 0, :] + A[..., 0, 1, :] + A[..., 1, 0, :]
             + A[..., 1, 1, :])
        b = B[..., 0, 0] + B[..., 0, 1] + B[..., 1, 0] + B[..., 1, 1]
        cov = a - 0.5 * b
        return (ginv[..., :, 0] * cov[..., 0, None]
                + ginv[..., :, 1] * cov[..., 1, None])

    # -- curvature ---------------------------------------------------------

    def gauss_curvature(self, pts) -> np.ndarray:
        """Gauss curvature via the Brioschi formula with central differences."""
        pts = np.asarray(pts, dtype=float)
        h = self.curv_step
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])

        def comp(p):
            g = self.metric_field(p)
            return g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]

        E, F, G = comp(pts)
        Eu_p, Fu_p, Gu_p = comp(pts + e1)
        Eu_m, Fu_m, Gu_m = comp(pts - e1)
        Ev_p, Fv_p, Gv_p = comp(pts + e2)
        Ev_m, Fv_m, Gv_m = comp(pts - e2)
        E_u = (Eu_p - Eu_m) / (2 * h)
        F_u = (Fu_p - Fu_m) / (2 * h)
        G_u = (Gu_p - Gu_m) / (2 * h)
        E_v = (Ev_p - Ev_m) / (2 * h)
        F_v = (Fv_p - Fv_m) / (2 * h)
        G_v = (Gv_p - Gv_m) / (2 * h)
        E_vv = (Ev_p - 2 * E + Ev_m) / h ** 2
        G_uu = (Gu_p - 2 * G + Gu_m) / h ** 2
        Fpp = comp(pts + e1 + e2)[1]
        Fpm = comp(pts + e1 - e2)[1]
        Fmp = comp(pts - e1 + e2)[1]
        Fmm = comp(pts - e1 - e2)[1]
        F_uv = (Fpp - Fpm - Fmp + Fmm) / (4 * h ** 2)

        def det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
            return (a11 * (a22 * a33 - a23 * a32)
                    - a12 * (a21 * a33 - a23 * a31)
                    + a13 * (a21 * a32 - a22 * a31))

        m1 = det3(-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v,
                  F_v - 0.5 * G_u, E, F,
                  0.5 * G_v, F, G)
        m2 = det3(0.0, 0.5 * E_v, 0.5 * G_u,
                  0.5 * E_v, E, F,
                  0.5 * G_u, F, G)
        det = E * G - F ** 2
        return (m1 - m2) / det ** 2

    # -- auxiliary (Hausdorff) distance -------------------------------------

    def wrap(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        L = np.array(self.periods)
        return np.mod(pts, L)

    def aux_gap(self, p, q) -> np.ndarray:
        """Wraparound chart displacement q - p, each component in [-L/2, L/2)."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        L = np.array(self.periods)
        d = np.mod(q - p + 0.5 * L, L) - 0.5 * L
        return d

    def aux_distance(self, p, q) -> np.ndarray:
        d = self.aux_gap(p, q)
        return np.sqrt(row_sum(d * d))

    # -- the chart's side of the shared algorithms -----------------------------

    def constrain_velocity(self, pts, v):
        return v

    def retract(self, x, v):
        """A state after an RK4 step; a chart has no constraint to restore."""
        return x, v

    def tangent_basis(self, pts):
        """The coordinate axes at every point, as two arrays of pts' shape."""
        return tuple(np.broadcast_to(e, np.shape(pts)) for e in np.eye(2))

    def left_normal(self, base, tan):
        """Normals to the tangents (k, 2), to their left: the rotated g tan."""
        return (_ROT @ (self.metric(base) @ tan[:, :, None]))[:, :, 0]

    def pair_det(self, base, a, c):
        """Determinant of each pair of rows (a, c) in chart coordinates."""
        return a[:, 0] * c[:, 1] - a[:, 1] * c[:, 0]

    def covariant_derivative(self, base, tan, n0, dn):
        """D_tan n of a field n = n0 with coordinate derivative dn."""
        return dn + self.christoffel_mixed(base, tan, n0)

    def gap_length(self, foot, Q):
        """First-order g-length of the gap foot -> Q, metric at its middle."""
        gap = self.aux_gap(foot, Q)
        return self.norm(foot + 0.5 * gap, gap)

    def interpolate(self, p, q, tau):
        """p moved by tau times its wraparound gap to q."""
        return p + tau * self.aux_gap(p, q)

    def probe_pairs(self, pts, h: float):
        """Points q +- h e along the tangent basis of each point q, shape
        (n, 2, 2, 2) with [axis, sign], and the half-width h of each pair."""
        step = h * np.stack(self.tangent_basis(pts), axis=1)
        plus, minus = pts[:, None, :] + step, pts[:, None, :] - step
        return np.stack([plus, minus], axis=2), h

    def dual_norm(self, q, du) -> float:
        """g-norm at one point q of the differential with components du."""
        g = self.metric(q[None, :])[0]
        return float(np.sqrt(du @ np.linalg.inv(g) @ du))


# ---------------------------------------------------------------------------
# implicit surface backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSurface:
    """Level function h with analytic gradient and Hessian."""

    name: str
    params: dict
    h: Callable
    grad: Callable
    hess: Callable


def level_surface(name: str, **params) -> LevelSurface:
    check_params("implicit surface", name, params,
                 {"sphere": ("radius",), "ellipsoid": ("semi_axes",)})
    if name == "sphere":
        r = float(params.get("radius", 1.0))

        def h(p):
            return np.sum(p * p, axis=-1) - r * r

        def grad(p):
            return 2.0 * p

        def hess(p):
            return np.broadcast_to(2.0 * np.eye(3), p.shape[:-1] + (3, 3)).copy()
    elif name == "ellipsoid":
        ax = np.array([float(a) for a in params.get("semi_axes", (1, 1, 1))])

        def h(p):
            return np.sum((p / ax) ** 2, axis=-1) - 1.0

        def grad(p):
            return 2.0 * p / ax ** 2

        def hess(p):
            return np.broadcast_to(np.diag(2.0 / ax ** 2),
                                   p.shape[:-1] + (3, 3)).copy()
    return LevelSurface(name, dict(params), h, grad, hess)


@dataclass(frozen=True)
class ImplicitSurface(_Shared):
    """Surface {h = 0} in 3-space with metric e^{2 psi} * (induced)."""

    surface: LevelSurface
    psi: ScalarField = ZERO_FIELD
    fd_step: float = 1e-5       # psi gradient differences
    curv_step: float = 1e-3     # surface Laplacian of psi
    proj_tol: float = 1e-11

    @property
    def dim(self) -> int:
        return 3

    @property
    def periods(self):
        return None

    # -- constraint --------------------------------------------------------

    def project(self, pts, rowwise: bool = False) -> np.ndarray:
        """Newton projection onto {h = 0} along grad h.  Every row steps
        until all rows have converged; with ``rowwise`` a converged row stops,
        so that each row ends where projecting it alone would."""
        x = np.array(pts, dtype=float)
        for _ in range(30):
            hv = self.surface.h(x)
            off = ~(np.abs(hv) <= self.proj_tol)     # NaN steps on
            if not np.any(off):
                break
            g = self.surface.grad(x)
            step = (hv / row_sum(g * g))[..., None] * g
            x = x - (np.where(off[..., None], step, 0.0) if rowwise else step)
        else:
            raise GeometryError("implicit projection did not converge")
        return x

    def unit_surface_normal(self, pts) -> np.ndarray:
        g = self.surface.grad(np.asarray(pts, dtype=float))
        return g / np.sqrt(row_sum(g * g))[..., None]

    def tangent_project(self, pts, v) -> np.ndarray:
        n = self.unit_surface_normal(pts)
        return v - row_sum(v * n)[..., None] * n

    # -- metric ------------------------------------------------------------

    def conformal_weight(self, pts) -> np.ndarray:
        return np.exp(2.0 * self.psi(pts))

    def inner(self, pts, v, w) -> np.ndarray:
        return self.conformal_weight(pts) * row_sum(
            np.asarray(v, float) * np.asarray(w, float))

    def lam_sqrt_max(self, pts) -> np.ndarray:
        return np.exp(self.psi(pts))

    def psi_gradient(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        h = self.fd_step
        out = np.empty_like(pts)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            out[..., i] = (self.psi(pts + e) - self.psi(pts - e)) / (2.0 * h)
        return out

    # -- geodesic acceleration ----------------------------------------------

    def gamma2(self, pts, v) -> np.ndarray:
        """Quadratic acceleration term: x'' = -gamma2(x, v) stays on surface
        and follows the geodesics of e^{2 psi} * induced metric."""
        pts = np.asarray(pts, dtype=float)
        v = np.asarray(v, dtype=float)
        g = self.surface.grad(pts)
        H = self.surface.hess(pts)
        vHv = np.einsum("...ij,...i,...j->...", H, v, v)
        gg = np.sum(g * g, axis=-1)
        acc = (vHv / gg)[..., None] * g
        if self.psi is not ZERO_FIELD:
            dpsi = self.psi_gradient(pts)
            dpsi_t = self.tangent_project(pts, dpsi)
            vv = np.sum(v * v, axis=-1)
            acc = (acc + 2.0 * np.sum(dpsi * v, axis=-1)[..., None] * v
                   - vv[..., None] * dpsi_t)
        return acc

    # -- curvature ---------------------------------------------------------

    def _induced_curvature(self, pts) -> np.ndarray:
        """Gauss curvature of the level set (Goldman's adjugate formula)."""
        g = self.surface.grad(pts)
        H = self.surface.hess(pts)
        # adjugate of a 3x3 symmetric matrix
        A = np.empty_like(H)
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != i]
                c = [k for k in range(3) if k != j]
                minor = (H[..., r[0], c[0]] * H[..., r[1], c[1]]
                         - H[..., r[0], c[1]] * H[..., r[1], c[0]])
                A[..., j, i] = (-1.0) ** (i + j) * minor
        num = np.einsum("...ij,...i,...j->...", A, g, g)
        den = np.sum(g * g, axis=-1) ** 2
        return num / den

    def _surface_laplacian(self, fld: ScalarField, pts) -> np.ndarray:
        """Laplace-Beltrami of a scalar field on the induced metric, by
        second differences along projected tangent steps."""
        pts = np.asarray(pts, dtype=float)
        eps = self.curv_step
        n = self.unit_surface_normal(pts)
        e1, e2 = _tangent_frame(n)
        f0 = fld(pts)
        out = np.zeros(pts.shape[:-1])
        for e in (e1, e2):
            fp = fld(self.project(pts + eps * e))
            fm = fld(self.project(pts - eps * e))
            out = out + (fp - 2.0 * f0 + fm) / eps ** 2
        return out

    def gauss_curvature(self, pts) -> np.ndarray:
        K = self._induced_curvature(np.asarray(pts, dtype=float))
        if self.psi is not ZERO_FIELD:
            lap = self._surface_laplacian(self.psi, pts)
            K = (K - lap) / self.conformal_weight(pts)
        return K

    # -- auxiliary distance -------------------------------------------------

    def wrap(self, pts):
        return np.asarray(pts, dtype=float)

    def aux_gap(self, p, q) -> np.ndarray:
        return np.asarray(q, dtype=float) - np.asarray(p, dtype=float)

    def aux_distance(self, p, q) -> np.ndarray:
        d = self.aux_gap(p, q)
        return np.sqrt(row_sum(d * d))

    # -- the surface's side of the shared algorithms -------------------------

    def constrain_velocity(self, pts, v):
        return self.tangent_project(pts, v)

    def retract(self, x, v):
        """Project a post-step state onto {h = 0}, tangent at its old speed."""
        speed = self.norm(x, v)
        x = self.project(x)
        v = self.tangent_project(x, v)
        new_speed = self.norm(x, v)
        scale = np.where(new_speed > 0.0,
                         speed / np.maximum(new_speed, 1e-300), 1.0)
        return x, v * scale[..., None]

    def tangent_basis(self, pts):
        """An orthonormal basis of the tangent plane at every point."""
        return _tangent_frame(self.unit_surface_normal(pts))

    def left_normal(self, base, tan):
        """Normals to the tangents (k, 3), to their left: n x tan."""
        return np.cross(self.unit_surface_normal(base), tan)

    def pair_det(self, base, a, c):
        """det of the row pairs (a, c) in the oriented tangent plane at base."""
        return np.sum(np.cross(a, c) * self.unit_surface_normal(base), axis=-1)

    def covariant_derivative(self, base, tan, n0, dn):
        """D_tan n: the tangent part of dn plus the conformal terms."""
        Dn = self.tangent_project(base, dn)
        if self.psi is not ZERO_FIELD:
            dpsi = self.psi_gradient(base)
            Dn = Dn + _dot(dpsi, tan) * n0 + _dot(dpsi, n0) * tan
        return Dn

    def gap_length(self, foot, Q):
        """First-order g-length of the chord foot -> Q, metric at foot."""
        return self.norm(foot, self.aux_gap(foot, Q))

    def interpolate(self, p, q, tau):
        """The ambient blend (1 - tau) p + tau q, projected onto {h = 0}."""
        return self.project((1.0 - tau) * p + tau * q)

    def probe_pairs(self, pts, h: float):
        """Points q +- h e along the tangent basis of each point q, each
        projected as if alone, shape (n, 2, 2, 3) with [axis, sign], and half
        the chord of each pair, shape (n, 2)."""
        step = h * np.stack(self.tangent_basis(pts), axis=1)
        raw = np.stack([pts[:, None, :] + step, pts[:, None, :] - step], axis=2)
        probes = self.project(raw.reshape(-1, 3), rowwise=True).reshape(raw.shape)
        # _dot rounds as the np.linalg.norm of one chord does
        chord = (probes[:, :, 0] - probes[:, :, 1]).reshape(-1, 3)
        return probes, 0.5 * np.sqrt(_dot(chord, chord)).reshape(len(pts), 2)

    def dual_norm(self, q, du) -> float:
        """g-norm at one point q of du, given along an orthonormal basis."""
        return float(np.sqrt(np.sum(du ** 2)) / np.exp(self.psi(q[None, :])[0]))


def _tangent_frame(n: np.ndarray):
    """Orthonormal frame spanning the plane orthogonal to unit vectors n."""
    n = np.asarray(n, dtype=float)
    ref = np.zeros_like(n)
    # pick the axis least aligned with n, per point
    idx = np.argmin(np.abs(n), axis=-1)
    flat = ref.reshape(-1, 3)
    flat[np.arange(flat.shape[0]), idx.ravel()] = 1.0
    e1 = np.cross(n, ref)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(n, e1)
    return e1, e2


Backend = PeriodicChart | ImplicitSurface


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def metric_eval(b: Backend, p, v, w) -> float:
    """g_p(v, w)."""
    return b.inner(p, v, w)


def validation_grid(b: Backend, spacing: float) -> np.ndarray:
    """Evaluation grid: chart lattice, or a projected lat-long net on an
    implicit surface."""
    if isinstance(b, PeriodicChart):
        L1, L2 = b.periods
        xs = np.arange(0.0, L1, spacing)
        ys = np.arange(0.0, L2, spacing)
        return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    probe = b.project(np.array([[1.0, 0.0, 0.0]]))
    r = float(np.linalg.norm(probe[0]))
    n_lat = max(8, int(np.pi * r / spacing))
    pts = []
    for i in range(1, n_lat):
        phi = -0.5 * np.pi + np.pi * i / n_lat
        n_lon = max(8, int(2 * np.pi * r * np.cos(phi) / spacing))
        for j in range(n_lon):
            th = 2 * np.pi * j / n_lon
            pts.append([np.cos(phi) * np.cos(th), np.cos(phi) * np.sin(th),
                        np.sin(phi)])
    return b.project(r * np.array(pts))


def conformal_family(b: Backend, phi: ScalarField, tau: float) -> Backend:
    """Backend with metric e^{2 tau phi} g; tau = 0 is metrically identical."""
    if isinstance(b, PeriodicChart):
        if tau == 0.0:
            return b
        return PeriodicChart(b.periods,
                             conformal_chart_field(b.metric_field, phi, tau),
                             fd_step=b.fd_step, curv_step=b.curv_step)
    if tau == 0.0 and b.psi is ZERO_FIELD:
        return b
    base_psi = b.psi
    name = f"{base_psi.name}+{tau}*{phi.name}"
    combined = ScalarField(name, {"tau": tau},
                           lambda p: base_psi(p) + tau * phi(p))
    return ImplicitSurface(b.surface, psi=combined, fd_step=b.fd_step,
                           curv_step=b.curv_step, proj_tol=b.proj_tol)


def linear_blend(b0: PeriodicChart, b1: PeriodicChart, tau: float) -> PeriodicChart:
    """Chart backend with metric (1 - tau) g0 + tau g1."""
    if not (isinstance(b0, PeriodicChart) and isinstance(b1, PeriodicChart)):
        raise GeometryError("linear_blend requires two PeriodicChart backends")
    if b0.periods != b1.periods:
        raise GeometryError("linear_blend requires identical chart periods")
    if tau == 0.0:
        return b0
    if tau == 1.0:
        return b1
    return PeriodicChart(b0.periods,
                         blended_chart_field(b0.metric_field, b1.metric_field, tau),
                         fd_step=b0.fd_step, curv_step=b0.curv_step)


def same_backend_family(a: Backend, b: Backend) -> bool:
    return type(a) is type(b) and a.periods == b.periods
