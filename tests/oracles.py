"""Independent oracles used by the test suite.

Everything here is implemented separately from the package (plain Python /
closed forms) so that agreement is evidence, not tautology.
"""
import math
from dataclasses import dataclass

import numpy as np


# -- Christoffel symbols of a diagonal chart metric diag(a(x), c(x)) --------
# From the standard coordinate formula 2 Gamma^l_ij = g^{lk}(d_i g_jk +
# d_j g_ik - d_k g_ij) with g diagonal and x-dependent only:
#   Gamma^x_xx = a'/(2a)   Gamma^x_yy = -c'/(2a)   Gamma^y_xy = c'/(2c)
def diag_metric_christoffel_action(a, da, c, dc, v):
    vx, vy = v
    out = np.zeros(2)
    out[0] = da / (2 * a) * vx * vx - dc / (2 * a) * vy * vy
    out[1] = dc / c * vx * vy
    return out


# -- Gauss curvature of diag(1, b(x)^2) is -b''(x)/b(x) ---------------------
def warped_curvature(amplitude, x, L1=1.0):
    w = 2 * math.pi / L1
    b = 1.0 + amplitude * math.sin(w * x)
    bpp = -amplitude * w * w * math.sin(w * x)
    return -bpp / b


# -- great circles on the radius-r sphere -----------------------------------
def great_circle(p0, v0, t):
    """Unit-speed geodesic of the round sphere through p0 with direction v0."""
    p0 = np.asarray(p0, float)
    v0 = np.asarray(v0, float)
    r = np.linalg.norm(p0)
    u = v0 / np.linalg.norm(v0)
    return np.cos(t / r) * p0 + r * np.sin(t / r) * u


# -- exact distance fields on the flat unit torus ---------------------------
def flat_torus_line_distance(q):
    """d to the line {y = 0} on the flat torus [0,1)^2."""
    y = q[1] % 1.0
    return min(y, 1.0 - y)


def flat_torus_point_distance(p, q):
    dx = abs((q[0] - p[0] + 0.5) % 1.0 - 0.5)
    dy = abs((q[1] - p[1] + 0.5) % 1.0 - 0.5)
    return math.hypot(dx, dy)


# -- brute-force Hausdorff distance (pure Python double loop) ---------------
def brute_hausdorff(A, B, dist):
    def one_sided(P, Q):
        worst = 0.0
        for p in P:
            best = math.inf
            for q in Q:
                d = dist(p, q)
                if d < best:
                    best = d
            if best > worst:
                worst = best
        return worst

    return max(one_sided(A, B), one_sided(B, A))


def reference_hausdorff(A, B, b):
    """Per point of A the auxiliary distance to B, and per point of B to A,
    as stability._nearest_gaps gives them: one aux_distance call per probe
    point, from the probe point to the other cloud."""
    na = np.array([float(np.min(b.aux_distance(p, B.points)))
                   for p in A.points])
    nb = np.array([float(np.min(b.aux_distance(q, A.points)))
                   for q in B.points])
    return na, nb


def chart_aux_dist(p, q, L=(1.0, 1.0)):
    s = 0.0
    for i in range(len(p)):
        d = abs((q[i] - p[i] + 0.5 * L[i]) % L[i] - 0.5 * L[i])
        s += d * d
    return math.sqrt(s)


def chordal_dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


# -- fine-scan cut time on a stored geodesic --------------------------------
def fine_scan_cut_time(distance_fn, path_fn, t_max, step):
    """First t (to within step) where d(N, gamma(t)) < t - step, scanned on a
    grid 10x finer than the production solver uses; returns the midpoint of
    the bracketing interval."""
    t = step
    prev = 0.0
    while t <= t_max:
        if t - distance_fn(path_fn(t)) > step:
            return 0.5 * (prev + t)
        prev = t
        t += step
    return math.inf


# -- scalar Jacobi closed forms under constant curvature --------------------
def jacobi_first_zero_const_K(K, kappa, dim):
    """First zero of y'' + K y = 0 with curve (y=1, y'=kappa) or point
    (y=0, y'=1) initial data; math.inf if none."""
    if dim == 0:
        return math.pi / math.sqrt(K) if K > 0 else math.inf
    if K > 0:
        rk = math.sqrt(K)
        # y = cos(rk t) + (kappa/rk) sin(rk t)
        return math.atan2(1.0, -kappa / rk) / rk
    if K == 0:
        return -1.0 / kappa if kappa < 0 else math.inf
    rk = math.sqrt(-K)
    if kappa < -rk:
        return math.atanh(-rk / kappa) / rk
    return math.inf


# -- brute-force atlas distance ---------------------------------------------
def brute_distance(atlas, q):
    """Reference for wavefront.distance without its index: every atlas
    sample is scanned.  Same near rule (gap <= max(1.5 sample_gap, 3 dt)),
    same ring ladder (coarse cells within 1, 2, 4, 8, 16 of q's cell, cyclic
    on a chart), same first-order value and (dir, t) tie-break.  The
    geometry (gaps, inner products) is the backend's own.

    Returns (d, err, dir_idx, t, ring, status) with status 0 certified,
    1 no near sample in any ring, 2 within the coverage margin of t_max.
    """
    b = atlas.backend
    q = np.asarray(q, dtype=float)
    pos = atlas.sample_pos
    grid = atlas.grid
    shape = np.array(grid.shape)
    if b.periods is not None:
        L = np.array(b.periods)
        width = L / shape

        def cell(x):
            return np.minimum(np.floor(x / width).astype(np.int64), shape - 1)

        diff = np.abs(cell(pos) - cell(np.mod(q, L)))
        ring_of = np.max(np.minimum(diff, shape - diff), axis=1)
    else:
        def cell(x):
            return np.floor((x - grid.origin) / atlas.cell).astype(np.int64)

        ring_of = np.max(np.abs(cell(pos) - cell(q)), axis=1)
    gaps = b.aux_distance(pos, q)
    cap = np.maximum(1.5 * atlas.sample_gap, 3.0 * atlas.dt)
    for ring in (1, 2, 4, 8, 16):
        near = np.flatnonzero((ring_of <= ring) & (gaps <= cap))
        if near.size:
            break
    else:
        return (math.nan, math.nan, -1, math.nan, None, 1)
    x, v = pos[near], atlas.sample_vel[near]
    if b.periods is not None:
        delta = b.aux_gap(x, q)
    else:
        delta = b.tangent_project(x, q - x)
    vals = np.abs(atlas.sample_t[near] + b.inner(x, v, delta))
    i = int(np.argmin(vals))        # first minimum: smallest (dir, t)
    s = near[i]
    d = float(vals[i])
    err = float(gaps[s] * atlas.sample_lam[s]) ** 2 + atlas.dt
    margin = max(5.0 * atlas.dt, 2.0 * atlas.median_gap)
    status = 2 if d >= atlas.t_max - margin else 0
    return (d, err, int(atlas.sample_dir[s]), float(atlas.sample_t[s]), ring,
            status)


def reference_near(atlas, Q, qi, s):
    """The distance query's near filter with no prefilter: the exact
    auxiliary gap of every (query row, sample) pair, kept when its length is
    at most the sample's cap.  Returns (qi, s, gap length, gap vector)."""
    b = atlas.backend
    vec = b.aux_gap(atlas.sample_pos[s], Q[qi])
    gaps = np.sqrt(np.sum(vec ** 2, axis=-1))
    keep = gaps <= np.maximum(1.5 * atlas.sample_gap[s], 3.0 * atlas.dt)
    return qi[keep], s[keep], gaps[keep], vec[keep]


def reference_nearest(atlas, qi, s, gaps, vec, pick, d, gap):
    """The distance query's pick by sorting: per query row, the near sample
    of least first-order value, ties to the smallest sample index, found by
    a lexsort on (row, sample) and a segmented minimum; the metric comes
    from b.inner, not from lowered velocities.  Writes pick, d and gap of
    the rows it sees."""
    if not qi.size:
        return
    o = np.lexsort((s, qi))
    qi, s, gaps, vec = qi[o], s[o], gaps[o], vec[o]
    b = atlas.backend
    pos_c = atlas.sample_pos[s]
    vel_c = atlas.sample_vel[s]
    delta = b.constrain_velocity(pos_c, vec)
    vals = np.abs(atlas.sample_t[s] + b.inner(pos_c, vel_c, delta))
    head = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
    low = np.minimum.reduceat(vals, head)
    hit = np.flatnonzero(vals == np.repeat(low, np.diff(np.r_[head, len(qi)])))
    first = hit[np.r_[True, qi[hit[1:]] != qi[hit[:-1]]]]
    rows = qi[first]
    pick[rows] = s[first]
    d[rows] = vals[first]
    gap[rows] = gaps[first]


# -- the eikonal check in its one-pass order ---------------------------------
def reference_eikonal_residual(atlas, grid_spacing, cut_points):
    """eikonal_residual in one pass: the tubes around N and around the cut
    points are both excluded before any probe is queried, and every probe
    is queried at once from an index of every sample."""
    from cutlab.geometry import validation_grid
    from cutlab.wavefront import _min_aux_distance, distance
    b = atlas.backend
    radius = max(2.0 * grid_spacing, 2.0 * atlas.err)
    grid = validation_grid(b, grid_spacing)
    keep = np.ones(len(grid), dtype=bool)
    for blockers in (atlas.N.sample_points(), cut_points):
        if len(blockers):
            keep &= ~(_min_aux_distance(b, grid, blockers) < radius)
    pts = grid[keep]
    probes, steps = b.probe_pairs(pts, 0.5 * grid_spacing)
    d, _err, _j, _t, status = distance(
        atlas, probes.reshape(-1, probes.shape[-1]),
        np.full(atlas.batch.n_paths, np.inf))
    d = d.reshape(len(pts), 2, 2)
    ok = ~np.any(status.reshape(len(pts), 4) != 0, axis=1)
    du = (d[:, :, 0] - d[:, :, 1]) / (2 * steps)
    residuals = np.abs(b.dual_norm(pts[ok], du[ok]) - 1.0)
    return {"count": int(residuals.size),
            "dropped": int(np.count_nonzero(~ok)),
            "excluded": int(np.count_nonzero(~keep)),
            "frac_below_1e2": float(np.mean(residuals < 1e-2)),
            "median": float(np.median(residuals)),
            "max": float(np.max(residuals)),
            "residuals": residuals}


# -- brute-force crossing search ---------------------------------------------
def reference_crossing_times(atlas, focal):
    """cut_times(atlas, focal) by scanning every (direction, front edge)
    pair at every grid step before the direction's focal time with the
    package's step test (cutanalysis._step_crossings), eight steps per
    call: no boxes, no early stop."""
    from cutlab.cutanalysis import _step_crossings
    from cutlab.wavefront import _front_next
    batch = atlas.batch
    k = batch.n_paths
    nxt = _front_next(atlas.N, k)
    j = np.arange(k)
    q, a = np.nonzero((j[:, None] != j[None, :]) & (j[:, None] != nxt[None]))
    t_c = np.full(k, np.inf)
    for i0 in range(0, len(batch.t) - 1, 8):
        i = np.arange(i0, min(i0 + 8, len(batch.t) - 1))
        Q, A = np.repeat(q, len(i)), np.repeat(a, len(i))
        I = np.tile(i, len(q))
        keep = batch.t[I] < focal[Q]
        Q, A, I = Q[keep], A[keep], I[keep]
        rows, t = _step_crossings(atlas.backend, batch, Q, A, nxt[A], I)
        np.minimum.at(t_c, Q[rows], t)
    rho = np.minimum(np.minimum(t_c, focal), atlas.t_max)
    methods = []
    for j in range(k):
        if t_c[j] == rho[j] and t_c[j] < focal[j]:
            methods.append("crossing")
        else:
            methods.append("focal" if focal[j] == rho[j] else "none")
    return rho, methods


# -- mirror axes of the warped torus ------------------------------------------
# Every metric of the warped-diag bump family, e^{2 tau sin 2 pi y}
# diag(1, (1 + 0.2 sin 2 pi x)^2), is symmetric under x -> 0.5 - x and
# x -> 1.5 - x, so the lines x = 0.25 and x = 0.75 are closed geodesics.  A
# normal geodesic of the line y = 0 that reaches an axis meets its mirror
# image there, so no cut time exceeds that time.

def mirror_axis_times(atlas):
    """Per direction, the first time its atlas path reaches x = 0.25 or
    0.75 (mod 1), by linear interpolation between grid nodes; +inf for a
    path that never does and for the axis paths themselves."""
    x = atlas.batch.pos[:, :, 0]
    tg = atlas.batch.t
    band = np.floor((x - 0.25) / 0.5)
    out = np.full(len(x), np.inf)
    for j in range(len(x)):
        if (x[j, 0] - 0.25) / 0.5 == band[j, 0]:
            continue                    # starts on an axis
        jump = np.flatnonzero(band[j, 1:] != band[j, :-1])
        if jump.size:
            i = jump[0]
            level = 0.25 + 0.5 * max(band[j, i], band[j, i + 1])
            frac = (level - x[j, i]) / (x[j, i + 1] - x[j, i])
            out[j] = tg[i] + frac * (tg[i + 1] - tg[i])
    return out


def axis_loop_length(b, x0, n=4096):
    """g-length of the closed geodesic x = x0 of a chart with periods
    (1, 1), by the trapezoid rule over one period (spectral for a smooth
    periodic integrand)."""
    y = np.arange(n) / n
    pts = np.stack([np.full(n, x0), y], axis=-1)
    return float(np.mean(b.norm(pts, np.tile([0.0, 1.0], (n, 1)))))


# -- the chart wraparound by np.mod ------------------------------------------
def reference_wrap(b, pts):
    """A PeriodicChart's wrap as np.mod over the periods broadcast per row."""
    return np.mod(np.asarray(pts, dtype=float), np.array(b.periods))


def reference_aux_gap(b, p, q):
    """A PeriodicChart's aux_gap as np.mod: the displacement q - p moved by
    L/2, reduced modulo L and moved back, L broadcast per row."""
    L = np.array(b.periods)
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    return np.mod(d + 0.5 * L, L) - 0.5 * L


# -- chart metrics in the dense (2, 2) layout ---------------------------------
def dense_jet(jet):
    """A chart MetricJet (E, G) in the dense layout, with val[i, j],
    d1[l, i, j] and d2[l, m, i, j] = d_l d_m g_ij and the point axes last;
    the off-diagonal entries read 0.  A scalar jet is returned as it is."""
    from cutlab.geometry import Jet, MetricJet
    if not isinstance(jet, MetricJet):
        return jet
    E, G = jet
    parts = []
    for k in range(3):
        if E[k] is None:
            parts.append(None)
            continue
        g = np.zeros(E[k].shape[:k] + (2, 2) + E[k].shape[k:])
        at = (slice(None),) * k
        g[at + (0, 0)], g[at + (1, 1)] = E[k], G[k]
        parts.append(g)
    return Jet(*parts)


def dense_metric(b, pts):
    """A PeriodicChart's checked metric at pts as (..., 2, 2) matrices."""
    E, G = b.metric(pts)
    g = np.zeros(np.shape(E) + (2, 2))
    g[..., 0, 0], g[..., 1, 1] = E, G
    return g


# -- Christoffel action and curvature of a chart metric ---------------------
def _ginv(g):
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    ginv = np.empty_like(g)
    ginv[..., 0, 0] = g[..., 1, 1] / det
    ginv[..., 1, 1] = g[..., 0, 0] / det
    ginv[..., 0, 1] = -g[..., 0, 1] / det
    ginv[..., 1, 0] = -g[..., 1, 0] / det
    return ginv


def _contract_gamma2(g, dg, v):
    """Gamma^k_ij v^i v^j from g and dg[..., l, i, j] = d_l g_ij, as three
    einsums."""
    a = np.einsum("...ijl,...i,...j->...l", dg, v, v)
    bb = np.einsum("...lij,...i,...j->...l", dg, v, v)
    return np.einsum("...kl,...l->...k", _ginv(g), a - 0.5 * bb)


def einsum_gamma2(b, pts, v):
    """Gamma^k_ij v^i v^j of a PeriodicChart as three einsums over the
    value and first derivatives of its metric field's jet."""
    g, dg, _ = dense_jet(b.metric_field.jet(np.asarray(pts, dtype=float), 1))
    # the jet puts the point axes last
    return _contract_gamma2(np.moveaxis(g, (0, 1), (-2, -1)),
                            np.moveaxis(dg, (0, 1, 2), (-3, -2, -1)),
                            np.asarray(v, dtype=float))


FD_GAMMA2_STEP = 1e-4
FD_CURVATURE_STEP = 1e-3


def _field_metric(b, pts):
    """A PeriodicChart's metric at pts, point axes first, straight from its
    metric field: a difference step may leave the region where the metric
    is positive definite, which b.metric refuses."""
    return np.moveaxis(dense_jet(b.metric_field.jet(pts, 0)).val, (0, 1),
                       (-2, -1))


def fd_gamma2(b, pts, v, h=FD_GAMMA2_STEP):
    """Gamma^k_ij v^i v^j of a PeriodicChart with the metric's first
    derivatives taken by central differences of its values."""
    pts = np.asarray(pts, dtype=float)
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    dg = np.stack([_field_metric(b, pts + e1) - _field_metric(b, pts - e1),
                   _field_metric(b, pts + e2) - _field_metric(b, pts - e2)],
                  axis=-3) / (2.0 * h)
    return _contract_gamma2(dense_metric(b, pts), dg,
                            np.asarray(v, dtype=float))


def fd_gauss_curvature(b, pts, h=FD_CURVATURE_STEP):
    """Gauss curvature of a PeriodicChart by the Brioschi formula, with the
    metric's derivatives taken by central and second differences."""
    pts = np.asarray(pts, dtype=float)
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])

    def comp(p):
        g = _field_metric(b, p)
        return g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]

    E, F, G = comp(pts)
    (Eup, Fup, Gup), (Eum, Fum, Gum) = comp(pts + e1), comp(pts - e1)
    (Evp, Fvp, Gvp), (Evm, Fvm, Gvm) = comp(pts + e2), comp(pts - e2)
    E_u, F_u, G_u = ((p - m) / (2 * h) for p, m in
                     ((Eup, Eum), (Fup, Fum), (Gup, Gum)))
    E_v, F_v, G_v = ((p - m) / (2 * h) for p, m in
                     ((Evp, Evm), (Fvp, Fvm), (Gvp, Gvm)))
    E_vv = (Evp - 2 * E + Evm) / h ** 2
    G_uu = (Gup - 2 * G + Gum) / h ** 2
    F_uv = (comp(pts + e1 + e2)[1] - comp(pts + e1 - e2)[1]
            - comp(pts - e1 + e2)[1] + comp(pts - e1 - e2)[1]) / (4 * h ** 2)
    m1 = np.linalg.det(np.stack([
        np.stack([-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
                 axis=-1),
        np.stack([F_v - 0.5 * G_u, E, F], axis=-1),
        np.stack([0.5 * G_v, F, G], axis=-1)], axis=-2))
    zero = np.zeros_like(E)
    m2 = np.linalg.det(np.stack([
        np.stack([zero, 0.5 * E_v, 0.5 * G_u], axis=-1),
        np.stack([0.5 * E_v, E, F], axis=-1),
        np.stack([0.5 * G_u, F, G], axis=-1)], axis=-2))
    return (m1 - m2) / (E * G - F ** 2) ** 2


# -- one-direction unit normal and shape operator ---------------------------
_DS = 1e-5
_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def reference_unit_normal(b, N, s, side):
    """(base, n) of the g-unit normal at c(s), side +1 or -1, computed for
    one parameter at a time; raises GeometryError like the package."""
    from cutlab.geometry import GeometryError
    s_arr = np.array([float(s)])
    base = N.curve(s_arr)[0]
    tan = N.curve.velocity(s_arr)[0]
    if float(b.norm(base, tan)) < 1e-10:
        raise GeometryError(f"degenerate curve velocity at s={s}")
    if b.periods is not None:
        g = dense_metric(b, base[None, :])[0]
        raw = _ROT @ (g @ tan)
    else:
        raw = np.cross(b.unit_surface_normal(base), tan)
    nrm = float(b.norm(base, raw))
    if nrm < 1e-14:
        raise GeometryError(f"degenerate normal at s={s}")
    return base, side * raw / nrm


def reference_shape_operator(b, N, s, side):
    """kappa = g(S_n e, e) / g(e, e) at c(s) from a central difference of
    the unit normal field plus the connection term, one parameter at a
    time."""
    from cutlab.geometry import ZERO_FIELD
    s = float(s)
    base, n0 = reference_unit_normal(b, N, s, side)
    _, n_p = reference_unit_normal(b, N, s + _DS, side)
    _, n_m = reference_unit_normal(b, N, s - _DS, side)
    dn = (n_p - n_m) / (2.0 * _DS)
    tan = N.curve.velocity(np.array([s]))[0]
    if b.periods is not None:
        Dn = dn + b.christoffel_mixed(base[None, :], tan[None, :],
                                      n0[None, :])[0]
    else:
        Dn = b.tangent_project(base[None, :], dn[None, :])[0]
        if b.psi is not ZERO_FIELD:
            dpsi = b.psi_gradient(base[None, :])[0]
            Dn = Dn + np.dot(dpsi, tan) * n0 + np.dot(dpsi, n0) * tan
    t2 = float(b.inner(base, tan, tan))
    return float(b.inner(base, Dn, tan)) / t2


# -- the chart / surface branches of the shared algorithms ------------------
# Each reference below keeps the body that branched on the backend kind
# before the branches became backend methods; the package must agree with
# it bit for bit.

def reference_integrate(b, p0, v0, t_max, dt, gamma2=None):
    """(pos, vel) of the fixed-step RK4 batch, re-projecting onto an
    implicit surface after every step with the pre-projection speed
    (reference_retract); gamma2(b, x, v) is the acceleration, b.gamma2
    unless given."""
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    n_steps = int(np.ceil(t_max / dt - 1e-12))
    tg = np.append(dt * np.arange(n_steps), t_max)
    pos, vel = [p0], [v0]
    x, v = p0.copy(), v0.copy()

    def rhs(x, v):
        return v, -(gamma2(b, x, v) if gamma2 else b.gamma2(x, v))

    for i in range(n_steps):
        h = tg[i + 1] - tg[i]
        k1x, k1v = rhs(x, v)
        k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = rhs(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if b.periods is None:
            x, v = reference_retract(b, x, v)
        pos.append(x)
        vel.append(v)
    return np.stack(pos, axis=1), np.stack(vel, axis=1)


def reference_direction_frame(b, p, angle):
    """g-unit vector at a point p at the given chart / tangent-plane angle."""
    from cutlab.geometry import _tangent_frame
    p = np.asarray(p, dtype=float)
    if b.periods is not None:
        raw = np.array([np.cos(angle), np.sin(angle)])
    else:
        e1, e2 = _tangent_frame(b.unit_surface_normal(p[None, :]))
        raw = np.cos(angle) * e1[0] + np.sin(angle) * e2[0]
    return raw / float(b.norm(p, raw))


def reference_foot_points(b, N, Q, tube_radius=0.1, tol=1e-8):
    """(s, d_est, coarse) of the foot points of the rows of Q; inside the
    tube d_est is the g-length of the gap, with the metric at the gap's
    midpoint on a chart and at the foot on a surface."""
    from cutlab.submanifold import golden_section
    if N.dim == 0:
        s = np.zeros(len(Q))
        foot = N.point
        d_aux = b.aux_distance(N.point, Q)
    else:
        pts = N.sample_points()
        m = pts.shape[0]
        j = b.aux_distance(pts[None, :, :], Q[:, None, :]).argmin(axis=1)
        x = golden_section(lambda s, idx: b.aux_distance(N.curve(s), Q[idx]),
                           (j - 1) / m, (j + 1) / m, tol)
        s = np.mod(x, 1.0)
        foot = N.curve(s)
        d_aux = b.aux_distance(N.curve(x), Q)
    gap = b.aux_gap(foot, Q)
    mid = foot + 0.5 * gap if b.periods is not None else foot
    d_g = np.sqrt(np.maximum(b.inner(mid, gap, gap), 0.0))
    coarse = d_aux > tube_radius
    return s, np.where(coarse, d_aux, d_g), coarse


def reference_interpolate(b, x0, x1, tau):
    """Embedding-family point between x0 and x1: chart-linear along the
    wraparound gap, or ambient-linear then projected on a surface."""
    if b.periods is not None:
        return x0 + tau * b.aux_gap(x0, x1)
    return b.project((1.0 - tau) * x0 + tau * x1)


def reference_gradient_probes(b, pts, h):
    """Probe points q +- h e, shape (n, 2, 2, d) with [axis, sign], and the
    half-width of each difference: h on a chart, half the chord of the
    projected probes on a surface."""
    from cutlab.geometry import _tangent_frame
    if b.periods is not None:
        E = h * np.eye(2)
        plus, minus = pts[:, None, :] + E, pts[:, None, :] - E
        return np.stack([plus, minus], axis=2), h
    axes = np.stack(_tangent_frame(b.unit_surface_normal(pts)), axis=1)
    probes = np.empty((len(pts), 2, 2, 3))
    steps = np.empty((len(pts), 2))
    for k, q in enumerate(pts):
        for i, e in enumerate(axes[k]):
            probes[k, i, 0] = b.project(q + h * e)
            probes[k, i, 1] = b.project(q - h * e)
            steps[k, i] = 0.5 * float(np.linalg.norm(probes[k, i, 0]
                                                     - probes[k, i, 1]))
    return probes, steps


def reference_grad_norm(b, q, du):
    """g-norm at q of the differential du given along the probe axes."""
    if b.periods is not None:
        g = dense_metric(b, q[None, :])[0]
        ginv = np.linalg.inv(g)
        return float(np.sqrt(du @ ginv @ du))
    return float(np.sqrt(np.sum(du ** 2)) / np.exp(b.psi(q[None, :])[0]))


def reference_validation_grid(b, spacing):
    """The lat-long net on an implicit surface, built point by point: the
    body of geometry.validation_grid before it built one array per
    latitude."""
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


# -- the implicit-surface RK4 step, curvature and the Jacobi focal loop, as
# they were written before they were made call-lean: a full-Hessian einsum,
# np.sum reductions and e^{2 psi} evaluated even when psi is zero.  The
# package must agree with them bit for bit.

def full_hessian(b, pts):
    """The level function's Hessian at every row of pts, a broadcast
    (n, 3, 3) array built from its constant diagonal."""
    return np.broadcast_to(np.diag(b.surface.hess_diag),
                           np.shape(pts)[:-1] + (3, 3))


def adjugate_surface_curvature(b, pts):
    """Gauss curvature on an ImplicitSurface: Goldman's formula with the
    adjugate of the full Hessian, and the conformal term with the tangent
    traces of Hess h and Hess psi taken by np.trace and an einsum."""
    from cutlab.geometry import ZERO_FIELD, row_sum
    pts = np.asarray(pts, dtype=float)
    g = b.surface.grad(pts)
    H = full_hessian(b, pts)
    A = np.empty_like(H)
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = (H[..., r[0], c[0]] * H[..., r[1], c[1]]
                     - H[..., r[0], c[1]] * H[..., r[1], c[0]])
            A[..., j, i] = (-1.0) ** (i + j) * minor
    K = (np.einsum("...ij,...i,...j->...", A, g, g)
         / np.sum(g * g, axis=-1) ** 2)
    if b.psi is ZERO_FIELD:
        return K
    psi = b.psi.jet(pts, 2)
    norm = np.sqrt(row_sum(g * g))
    n = g / norm[..., None]
    tangent_trace = lambda M: (np.trace(M, axis1=-2, axis2=-1)
                               - np.einsum("...i,...ij,...j->...", n, M, n))
    lap = (tangent_trace(np.moveaxis(psi.d2, (0, 1), (-2, -1)))
           - tangent_trace(H) / norm
           * row_sum(np.moveaxis(psi.d1, 0, -1) * n))
    return (K - lap) / np.exp(2.0 * psi.val)


def einsum_surface_gamma2(b, pts, v):
    """x'' = -gamma2(x, v) on an ImplicitSurface, with v . H . v as an
    einsum over the Hessian matrix."""
    from cutlab.geometry import ZERO_FIELD
    pts = np.asarray(pts, dtype=float)
    v = np.asarray(v, dtype=float)
    g = b.surface.grad(pts)
    H = full_hessian(b, pts)
    vHv = np.einsum("...ij,...i,...j->...", H, v, v)
    gg = np.sum(g * g, axis=-1)
    acc = (vHv / gg)[..., None] * g
    if b.psi is not ZERO_FIELD:
        dpsi = b.psi_gradient(pts)
        n = g / np.sqrt(np.sum(g * g, axis=-1))[..., None]
        dpsi_t = dpsi - np.sum(dpsi * n, axis=-1)[..., None] * n
        vv = np.sum(v * v, axis=-1)
        acc = (acc + 2.0 * np.sum(dpsi * v, axis=-1)[..., None] * v
               - vv[..., None] * dpsi_t)
    return acc


def _conformal_norm(b, pts, v):
    return np.sqrt(np.maximum(
        np.exp(2.0 * b.psi(pts)) * np.sum(v * v, axis=-1), 0.0))


def reference_retract(b, x, v):
    """Project a state onto {h = 0}, tangent at its old conformal speed."""
    speed = _conformal_norm(b, x, v)
    x = b.project(x)
    g = b.surface.grad(x)
    n = g / np.sqrt(np.sum(g * g, axis=-1))[..., None]
    v = v - np.sum(v * n, axis=-1)[..., None] * n
    new_speed = _conformal_norm(b, x, v)
    scale = np.where(new_speed > 0.0,
                     speed / np.maximum(new_speed, 1e-300), 1.0)
    return x, v * scale[..., None]


def _first_zero(tg, y, yp, start, tol):
    """First zero of y after index start, Newton-polished; +inf if none."""
    from cutlab.geodesics import _hermite
    sgn = np.sign(y[start:])
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if not flips.size:
        return np.inf
    i = int(flips[0]) + start
    t = float(tg[i] - y[i] * (tg[i + 1] - tg[i]) / (y[i + 1] - y[i]))
    # Newton polish on the cubic Hermite interpolant of y
    h = tg[i + 1] - tg[i]
    for _ in range(8):
        yt, dyt = _hermite(h, (t - tg[i]) / h, y[i], y[i + 1], yp[i], yp[i + 1])
        if dyt == 0.0:
            break
        step = yt / dyt
        t -= step
        if abs(step) < tol:
            break
    return float(np.clip(t, tg[i], tg[i + 1]))


def reference_focal_times(b, N, atlas, zero_tol=1e-8):
    """First zero of y'' + K y = 0 along every atlas direction, the RK4
    stepping direction-major arrays with -K and the mid-step K formed at
    every step to t_max, and each direction's zero polished on its own
    (_first_zero)."""
    from cutlab.cutanalysis import shape_operators
    batch = atlas.batch
    k, n, d = batch.pos.shape
    K = b.gauss_curvature(batch.pos.reshape(-1, d)).reshape(k, n)
    y = np.empty((k, n))
    yp = np.empty((k, n))
    if N.dim == 0:
        y[:, 0], yp[:, 0] = 0.0, 1.0
    else:
        y[:, 0] = 1.0
        yp[:, 0] = shape_operators(b, N, [f.s for f in atlas.frames],
                                   [f.side for f in atlas.frames])
    tg = batch.t
    for i in range(n - 1):
        h = tg[i + 1] - tg[i]
        K0, K1 = K[:, i], K[:, i + 1]
        Km = 0.5 * (K0 + K1)
        y0, v0 = y[:, i], yp[:, i]
        k1y, k1v = v0, -K0 * y0
        k2y, k2v = v0 + 0.5 * h * k1v, -Km * (y0 + 0.5 * h * k1y)
        k3y, k3v = v0 + 0.5 * h * k2v, -Km * (y0 + 0.5 * h * k2y)
        k4y, k4v = v0 + h * k3v, -K1 * (y0 + h * k3y)
        y[:, i + 1] = y0 + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        yp[:, i + 1] = v0 + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    out = np.full(k, np.inf)
    start = 1 if N.dim == 0 else 0
    for j in range(k):
        out[j] = _first_zero(tg, y[j], yp[j], start, zero_tol)
    return out


# -- Jacobian of the normal exponential map ---------------------------------
# The second focal route: a focal point is where the map (s, r) ->
# exp^nu(r n(s)) stops being a local diffeomorphism, a sign change of its
# Jacobian determinant.  It takes the package's unit normals and RK4 paths but
# none of its scalar Jacobi solve, so the two routes cross-check each other.

def reference_pair_det(b, base, a, c):
    """2D determinant of the pairs (a, c) in chart or ambient-tangent
    coordinates."""
    if b.periods is not None:
        return a[:, 0] * c[:, 1] - a[:, 1] * c[:, 0]
    n = b.unit_surface_normal(base)
    cross = np.cross(a, c)
    return np.sum(cross * n, axis=-1)


@dataclass
class NormalExpJacobian:
    """det d(s, r) -> exp^nu(r n(s)) along one normal direction, on a t-grid."""

    t: np.ndarray
    det: np.ndarray
    fd_warning: bool

    def sign_change_brackets(self):
        s = np.sign(self.det)
        idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
        return [(float(self.t[i]), float(self.t[i + 1])) for i in idx]

    def first_zero(self):
        """Secant zero in the first sign-change bracket of det, or None."""
        br = self.sign_change_brackets()
        if not br:
            return None
        lo, hi = br[0]
        dlo = float(np.interp(lo, self.t, self.det))
        dhi = float(np.interp(hi, self.t, self.det))
        return lo - dlo * (hi - lo) / (dhi - dlo)


def normal_exp_jacobian(b, N, s0, side, t_max, dt, fd=1e-4):
    """Finite-difference Jacobian determinant of (s, r) -> exp^nu(r n(s)).

    The start states come from ``unit_normals``; for a point submanifold s
    is the direction angle.  The r-derivative is the exact geodesic
    velocity; the s-derivative is a central difference of whole geodesics,
    so one call integrates five paths and evaluates det on the full t-grid.
    A Richardson disagreement above 10% between fd and 2*fd sets
    ``fd_warning``.
    """
    from cutlab.geodesics import integrate_batch
    from cutlab.submanifold import unit_normals
    p0, v0 = unit_normals(b, N, s0 + fd * np.arange(-2.0, 3.0), [side] * 5)
    batch = integrate_batch(b, p0, v0, t_max, dt)
    ds1 = (batch.pos[3] - batch.pos[1]) / (2.0 * fd)
    ds2 = (batch.pos[4] - batch.pos[0]) / (4.0 * fd)
    dr = batch.vel[2]
    det1 = reference_pair_det(b, batch.pos[2], ds1, dr)
    det2 = reference_pair_det(b, batch.pos[2], ds2, dr)
    scale = np.maximum(np.max(np.abs(det1)), 1e-30)
    warn = bool(np.max(np.abs(det1 - det2)) > 0.10 * scale)
    return NormalExpJacobian(batch.t.copy(), det1, warn)
