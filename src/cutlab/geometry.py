"""Surface backends: periodic-chart metrics and implicit surfaces in 3-space.

Points and tangent vectors are plain numpy arrays (shape (2,) for chart
backends, (3,) for implicit surfaces).  Every backend method accepts batched
inputs with the coordinate axis last.  Backends are immutable; every
operation is a pure function of its inputs.

Only this module tells the two kinds apart: the other modules reach the
difference through the methods that both backends define.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
# jets: a field's value with its first and second derivatives
# ---------------------------------------------------------------------------

class Jet(NamedTuple):
    """A field at a batch of points and its coordinate derivatives, None
    above the order asked for.  Derivative axes (d1[l], d2[l, m]) lead, the
    value's own axes ((2, 2) for a chart metric) follow and the point axes
    come last, so every operation runs along the points."""

    val: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


def _const(p, c: float, order: int) -> Jet:
    zero = lambda k: np.zeros(p.shape[-1:] * k + p.shape[:-1])
    return Jet(np.full(p.shape[:-1], c), *(zero(k) for k in (1, 2)[:order]))


def _sinusoid(p, order: int, axis: int, amp: float, w: float,
              offset: float | None = None) -> Jet:
    """[offset +] amp sin(w x) of the coordinate x = p[..., axis]."""
    arg = w * p[..., axis]
    val = amp * np.sin(arg)
    d1 = d2 = None
    if order:
        d1 = np.zeros(p.shape[-1:] + arg.shape)
        d1[axis] = amp * w * np.cos(arg)
    if order > 1:
        d2 = np.zeros(p.shape[-1:] * 2 + arg.shape)
        d2[axis, axis] = -(w * w) * val
    return Jet(val if offset is None else offset + val, d1, d2)


def _sum(a: float, A: Jet, b: float, B: Jet) -> Jet:
    """The jet of a A + b B."""
    return Jet(*(None if x is None else a * x + b * y for x, y in zip(A, B)))


def _times(f: Jet, G: Jet) -> Jet:
    """The jet of f G for a scalar f and a G of any rank (product rule)."""
    val = f.val * G.val
    if G.d1 is None:
        return Jet(val)
    lift = (slice(None),) + (None,) * (G.val.ndim - f.val.ndim)   # d -> d, 1..
    d1 = f.d1[lift] * G.val + f.val * G.d1
    if G.d2 is None:
        return Jet(val, d1)
    cross = f.d1[lift][:, None] * G.d1                # [l, m] = f_l G_m
    d2 = (f.d2[(slice(None),) + lift] * G.val + cross + cross.swapaxes(0, 1)
          + f.val * G.d2)
    return Jet(val, d1, d2)


def _exp(c: float, f: Jet) -> Jet:
    """The jet of exp(c f) for a scalar f (chain rule)."""
    e = np.exp(c * f.val)
    if f.d1 is None:
        return Jet(e)
    cf1 = c * f.d1
    d2 = None if f.d2 is None else e * (c * f.d2 + cf1[:, None] * cf1)
    return Jet(e, e * cf1, d2)


def _diag(p, order: int, j11, j22) -> Jet:
    """The chart metric jet diag(j11, j22); a float entry is a constant."""
    parts = [np.zeros((2,) * (k + 2) + p.shape[:-1]) for k in range(order + 1)]
    for i, j in enumerate((j11, j22)):
        for k, x in enumerate(j[:order + 1] if isinstance(j, Jet) else (j,)):
            parts[k][(slice(None),) * k + (i, i)] = x
    return Jet(*parts)


def _points_first(t, k: int = 2) -> np.ndarray:
    """A view of a jet array, k value axes first, with the point axes first."""
    return t.transpose(tuple(range(k, t.ndim)) + tuple(range(k)))


# ---------------------------------------------------------------------------
# named fields: scalar fields (conformal exponents, bumps) and chart metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Named smooth field with the parameters that built it; ``jet(p,
    order)`` is its one definition and a call returns the jet's value."""

    name: str
    params: dict
    jet: Callable[[np.ndarray, int], Jet]

    def __call__(self, pts):
        return self.jet(np.asarray(pts, dtype=float), 0).val


def chart_scalar_field(name: str, periods, **params) -> ScalarField:
    """Built-in periodic scalar fields on a chart with the given periods."""
    L1, L2 = float(periods[0]), float(periods[1])
    check_params("chart scalar field", name, params, {
        "constant": ("value",), "sine-x": ("amplitude", "harmonic"),
        "sine-y": ("amplitude", "harmonic"), "bump-xy": ("amplitude",)})
    a = float(params.get("amplitude", 1.0))
    c = 2.0 * np.pi * int(params.get("harmonic", 1))
    if name == "constant":
        value = float(params.get("value", 0.0))
        jet = lambda p, order: _const(p, value, order)
    elif name == "sine-x":
        jet = lambda p, order: _sinusoid(p, order, 0, a, c / L1)
    elif name == "sine-y":
        jet = lambda p, order: _sinusoid(p, order, 1, a, c / L2)
    elif name == "bump-xy":
        jet = lambda p, order: _times(_sinusoid(p, order, 0, a, c / L1),
                                      _sinusoid(p, order, 1, 1.0, c / L2))
    return ScalarField(name, dict(params), jet)


def ambient_scalar_field(name: str, **params) -> ScalarField:
    """Built-in scalar fields on 3-space (conformal exponents for surfaces)."""
    check_params("ambient scalar field", name, params, {
        "constant": ("value",), "linear-z": ("amplitude",),
        "sine-z": ("amplitude", "wavenumber")})
    a = float(params.get("amplitude", 1.0))
    if name == "constant":
        value = float(params.get("value", 0.0))
        jet = lambda p, order: _const(p, value, order)
    elif name == "linear-z":
        def jet(p, order):
            z = _const(p, 0.0, order)
            if order:
                z.d1[2] = a
            return z._replace(val=a * p[..., 2])
    elif name == "sine-z":
        k = float(params.get("wavenumber", 1.0))
        jet = lambda p, order: _sinusoid(p, order, 2, a, k)
    return ScalarField(name, dict(params), jet)


ZERO_FIELD = ambient_scalar_field("constant", value=0.0)


def chart_metric_field(name: str, periods, **params) -> ScalarField:
    L1, L2 = float(periods[0]), float(periods[1])
    check_params("chart metric field", name, params, {
        "flat": (), "warped-diag": ("amplitude", "harmonic"),
        "warped-diag-g22": ("amplitude", "harmonic"),
        "conformal-bump": ("amplitude",)})
    c = 2.0 * np.pi * int(params.get("harmonic", 1))
    if name == "flat":
        jet = lambda p, order: _diag(p, order, 1.0, 1.0)
    elif name == "warped-diag":
        # diag(1, b^2) with b = 1 + a sin 2pi k x; b b squares as np.square,
        # so one point reads the same g22 as a batch row
        a = float(params.get("amplitude", 0.2))

        def jet(p, order):
            b = _sinusoid(p, order, 0, a, c / L1, offset=1.0)
            return _diag(p, order, 1.0, _times(b, b))
    elif name == "warped-diag-g22":
        # diag(1, 1 + a sin 2pi k x): g22 itself perturbed, not its square root
        a = float(params.get("amplitude", 0.1))
        jet = lambda p, order: _diag(
            p, order, 1.0, _sinusoid(p, order, 0, a, c / L1, offset=1.0))
    elif name == "conformal-bump":
        phi = chart_scalar_field("bump-xy", (L1, L2),
                                 amplitude=float(params.get("amplitude", 0.1)))
        jet = lambda p, order: _times(_exp(2.0, phi.jet(p, order)),
                                      _diag(p, order, 1.0, 1.0))
    return ScalarField(name, dict(params), jet)


def conformal_chart_field(base: ScalarField, phi: ScalarField,
                          tau: float) -> ScalarField:
    """e^{2 tau phi} base: d(e^{2 tau phi} g) = e^{2 tau phi}(dg + 2 tau g dphi)."""
    return ScalarField(
        f"conformal({base.name})",
        {"base": base.params, "phi": phi.name, "tau": tau},
        lambda p, order: _times(_exp(2.0 * tau, phi.jet(p, order)),
                                base.jet(p, order)))


def blended_chart_field(g0: ScalarField, g1: ScalarField,
                        tau: float) -> ScalarField:
    return ScalarField(
        f"blend({g0.name},{g1.name})", {"tau": tau},
        lambda p, order: _sum(1.0 - tau, g0.jet(p, order),
                              tau, g1.jet(p, order)))


# ---------------------------------------------------------------------------
# periodic chart backend
# ---------------------------------------------------------------------------

def _spd_det(pts, g) -> np.ndarray:
    """det g of chart metrics g (2, 2, ...) at pts; raises unless every g
    is finite and positive definite."""
    if not np.isfinite(g).all():
        bad = pts[~np.all(np.isfinite(g), axis=(0, 1))]
        raise GeometryError(f"non-finite metric entries at {bad[:1]}")
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if (det <= 1e-12).any() or (g[0, 0] <= 0.0).any():
        bad = pts[(det <= 1e-12) | (g[0, 0] <= 0.0)]
        raise GeometryError(f"metric not positive definite at {bad[:1]}")
    return det


_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])   # adj g = det g * g^{-1}
_JET_CHUNK = 4096        # points per curvature call: jets, Hessians, adjugates


def _dot(u, v) -> np.ndarray:
    """Row-wise u . v as a (k, 1) column, rounded as np.dot of two rows."""
    return (u[:, None, :] @ v[:, :, None])[:, 0]


class _Shared:
    """Methods that both backends define the same way."""

    def norm(self, pts, v) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(pts, v, v), 0.0))

    def christoffel_mixed(self, pts, u, w) -> np.ndarray:
        """Bilinear Christoffel action Gamma(u, w) via polarization."""
        return 0.25 * (self.gamma2(pts, u + w) - self.gamma2(pts, u - w))

    def gauss_curvature(self, pts) -> np.ndarray:
        """Gauss curvature at every point, _JET_CHUNK rows at a time so that
        the per-point jets and matrices stay small."""
        rows = np.asarray(pts, dtype=float).reshape(-1, self.dim)
        K = np.empty(len(rows))
        for i in range(0, len(rows), _JET_CHUNK):
            K[i:i + _JET_CHUNK] = self._curvature(rows[i:i + _JET_CHUNK])
        return K.reshape(np.shape(pts)[:-1])


@dataclass(frozen=True)
class PeriodicChart(_Shared):
    """Torus-like chart [0, L1) x [0, L2) with a smooth periodic metric field.

    Chart coordinates stay unwrapped during integration (the metric field is
    periodic); only ``wrap``/``aux_gap`` reduce modulo the periods.
    """

    periods: tuple[float, float]
    metric_field: ScalarField

    @property
    def dim(self) -> int:
        return 2

    # -- metric ------------------------------------------------------------

    def metric(self, pts, check: bool = True) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        g = self.metric_field(pts)
        if check:
            _spd_det(pts, g)
        return _points_first(g)

    def inner(self, pts, v, w) -> np.ndarray:
        return np.einsum("...ij,...i,...j->...", self.metric(pts), v, w)

    def lam_sqrt_max(self, pts) -> np.ndarray:
        """sqrt of the largest metric eigenvalue (chart-gap -> g-length bound)."""
        (a, b2), (_, c) = self.metric_field(pts)
        return np.sqrt(0.5 * (a + c + np.sqrt((a - c) ** 2 + 4.0 * b2 ** 2)))

    # -- Christoffel action ------------------------------------------------

    def gamma2(self, pts, v) -> np.ndarray:
        """Gamma^k_ij v^i v^j, the quadratic Christoffel action on v."""
        pts = np.asarray(pts, dtype=float)
        v = np.asarray(v, dtype=float)
        g, dg, _ = self.metric_field.jet(pts, 1)      # dg[l, i, j] = d_l g_ij
        det = _spd_det(pts, g)
        # cov_l = (v . d)(g v)_l - 1/2 d_l g(v, v) = T[l, i, j] v^i v^j with
        # T[l, i, j] = d_i g_jl - 1/2 d_l g_ij; then g^{-1} cov by the adjugate
        x, y = v[..., 0], v[..., 1]
        T = dg.transpose((2, 0, 1) + tuple(range(3, dg.ndim))) - 0.5 * dg
        U = T[:, :, 0] * x
        U += T[:, :, 1] * y
        cov = U[:, 0] * x
        cov += U[:, 1] * y
        cov /= det
        adj = g[::-1, ::-1] * _ADJ_SIGNS.reshape((2, 2) + (1,) * det.ndim)
        return _points_first(adj[:, 0] * cov[0] + adj[:, 1] * cov[1], 1)

    # -- curvature ---------------------------------------------------------

    def _curvature(self, pts) -> np.ndarray:
        """Gauss curvature by Brioschi's formula on the metric's 2-jet."""
        g, dg, ddg = self.metric_field.jet(pts, 2)
        (E, F), (_, G) = g
        (E_u, F_u), (_, G_u) = dg[0]
        (E_v, F_v), (_, G_v) = dg[1]
        E_vv, F_uv, G_uu = ddg[1, 1, 0, 0], ddg[0, 1, 0, 1], ddg[0, 0, 1, 1]

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
        return (m1 - m2) / (E * G - F ** 2) ** 2

    # -- auxiliary (Hausdorff) distance -------------------------------------

    def wrap(self, pts) -> np.ndarray:
        return np.mod(np.asarray(pts, dtype=float), np.array(self.periods))

    def aux_gap(self, p, q) -> np.ndarray:
        """Wraparound chart displacement q - p, each component in [-L/2, L/2)."""
        L = np.array(self.periods)
        d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
        return np.mod(d + 0.5 * L, L) - 0.5 * L

    def aux_distance(self, p, q) -> np.ndarray:
        d = self.aux_gap(p, q)
        return np.sqrt(row_sum(d * d))

    # -- the chart's side of the shared algorithms -----------------------------

    def constrain_velocity(self, pts, v):
        return v

    def lower(self, pts, v):
        """The covector g v of each velocity: row_sum(lower(x, v) * w) is
        g_x(v, w)."""
        return (self.metric(pts) @ v[..., None])[..., 0]

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

    def dual_norm(self, q, du) -> np.ndarray:
        """g-norm at each point q of the differential with components du."""
        ginv = np.linalg.inv(self.metric(q))
        return np.sqrt((du[:, None, :] @ ginv @ du[:, :, None])[:, 0, 0])


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
        h = lambda p: np.sum(p * p, axis=-1) - r * r
        grad = lambda p: 2.0 * p
        H = 2.0 * np.eye(3)
    elif name == "ellipsoid":
        ax = np.array([float(a) for a in params.get("semi_axes", (1, 1, 1))])
        h = lambda p: np.sum((p / ax) ** 2, axis=-1) - 1.0
        grad = lambda p: 2.0 * p / ax ** 2
        H = np.diag(2.0 / ax ** 2)
    hess = lambda p: np.broadcast_to(H, p.shape[:-1] + (3, 3))
    return LevelSurface(name, dict(params), h, grad, hess)


@dataclass(frozen=True)
class ImplicitSurface(_Shared):
    """Surface {h = 0} in 3-space with metric e^{2 psi} * (induced)."""

    surface: LevelSurface
    psi: ScalarField = ZERO_FIELD
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

    def inner(self, pts, v, w) -> np.ndarray:
        return np.exp(2.0 * self.psi(pts)) * row_sum(
            np.asarray(v, float) * np.asarray(w, float))

    def lam_sqrt_max(self, pts) -> np.ndarray:
        return np.exp(self.psi(pts))

    def psi_gradient(self, pts) -> np.ndarray:
        """The ambient gradient of psi."""
        return _points_first(self.psi.jet(np.asarray(pts, dtype=float), 1).d1,
                             1)

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

    def _curvature(self, pts) -> np.ndarray:
        """K = (K_induced - Lap psi) e^{-2 psi}, with the induced Laplacian
        of psi from its ambient 2-jet: tr_T Hess psi - H dpsi/dn, where
        H = div n is the mean curvature (the sum of the principal ones)."""
        K = self._induced_curvature(pts)
        if self.psi is ZERO_FIELD:
            return K
        psi = self.psi.jet(pts, 2)
        gh = self.surface.grad(pts)
        norm = np.sqrt(row_sum(gh * gh))
        n = gh / norm[..., None]

        tangent_trace = lambda A: (np.trace(A, axis1=-2, axis2=-1)
                                   - np.einsum("...i,...ij,...j->...", n, A, n))
        lap = (tangent_trace(_points_first(psi.d2))
               - tangent_trace(self.surface.hess(pts)) / norm
               * row_sum(_points_first(psi.d1, 1) * n))
        return (K - lap) / np.exp(2.0 * psi.val)

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

    def lower(self, pts, v):
        """The covector e^{2 psi} v of each velocity, v itself when psi is
        zero: row_sum(lower(x, v) * w) is g_x(v, w) for tangent w."""
        if self.psi is ZERO_FIELD:
            return v
        return np.exp(2.0 * self.psi(pts))[..., None] * v

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

    def dual_norm(self, q, du) -> np.ndarray:
        """g-norm at each point q of du, given along an orthonormal basis."""
        return np.sqrt(np.sum(du ** 2, axis=-1)) / np.exp(self.psi(q))


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

def validation_grid(b: Backend, spacing: float) -> np.ndarray:
    """Evaluation grid: chart lattice, or a projected lat-long net on an
    implicit surface."""
    if isinstance(b, PeriodicChart):
        xs, ys = (np.arange(0.0, L, spacing) for L in b.periods)
        return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    probe = b.project(np.array([[1.0, 0.0, 0.0]]))
    r = float(np.linalg.norm(probe[0]))
    n_lat = max(8, int(np.pi * r / spacing))
    rings = []
    for i in range(1, n_lat):
        phi = -0.5 * np.pi + np.pi * i / n_lat
        n_lon = max(8, int(2 * np.pi * r * np.cos(phi) / spacing))
        th = 2 * np.pi * np.arange(n_lon) / n_lon
        rings.append(np.stack([np.cos(phi) * np.cos(th),
                               np.cos(phi) * np.sin(th),
                               np.full(n_lon, np.sin(phi))], axis=-1))
    return b.project(r * np.concatenate(rings))


def conformal_family(b: Backend, phi: ScalarField, tau: float) -> Backend:
    """Backend with metric e^{2 tau phi} g; tau = 0 is metrically identical."""
    if isinstance(b, PeriodicChart):
        if tau == 0.0:
            return b
        return PeriodicChart(b.periods,
                             conformal_chart_field(b.metric_field, phi, tau))
    if tau == 0.0 and b.psi is ZERO_FIELD:
        return b
    base_psi = b.psi
    name = f"{base_psi.name}+{tau}*{phi.name}"
    combined = ScalarField(name, {"tau": tau}, lambda p, order: _sum(
        1.0, base_psi.jet(p, order), tau, phi.jet(p, order)))
    return ImplicitSurface(b.surface, psi=combined, proj_tol=b.proj_tol)


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
                         blended_chart_field(b0.metric_field, b1.metric_field, tau))


def same_backend_family(a: Backend, b: Backend) -> bool:
    return type(a) is type(b) and a.periods == b.periods
