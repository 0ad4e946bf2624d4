"""Independent oracles used by the test suite.

Everything here is implemented separately from the package (plain Python /
closed forms) so that agreement is evidence, not tautology.
"""
import math

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
    shape = np.array(atlas.grid_shape)
    if b.periods is not None:
        L = np.array(b.periods)
        width = L / shape

        def cell(x):
            return np.minimum(np.floor(x / width).astype(np.int64), shape - 1)

        diff = np.abs(cell(pos) - cell(np.mod(q, L)))
        ring_of = np.max(np.minimum(diff, shape - diff), axis=1)
    else:
        def cell(x):
            return np.floor((x - atlas.origin) / atlas.cell).astype(np.int64)

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
    a lexsort on (row, sample) and a segmented minimum.  Writes pick, d and
    gap of the rows it sees."""
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


# -- scalar cut-time search -------------------------------------------------
def reference_cut_time(atlas, dir_idx, distance_fn, kink_root, tol=1e-3):
    """One direction's cut time by the scalar search: grid binary search on
    the excess e(t) = t - d(N, gamma(t)), continuous bisection of the theta
    crossing, then the kink extrapolation ``kink_root``.  ``distance_fn(q)``
    returns d(N, q) and raises where the atlas cannot certify it."""
    def excess(t):
        p, _ = atlas.path_point(dir_idx, t)
        return t - distance_fn(p)

    tg = atlas.batch.t
    theta = max(2.0 * atlas.dt, tol)
    flags = {"theta": theta, "no_cut": False, "method": "kink"}
    margin = max(5.0 * atlas.dt, 2.0 * atlas.median_gap)
    edge = atlas.t_max - margin - 5.0 * atlas.dt
    lo_i = 0
    edge_i = max(int(np.searchsorted(tg, edge, side="right")) - 1, 1)
    hi_i = edge_i
    if excess(float(tg[hi_i])) <= theta:
        flags["no_cut"] = True
        flags["method"] = "none"
        return float(tg[hi_i]), flags
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if excess(float(tg[mid])) > theta:
            hi_i = mid
        else:
            lo_i = mid
    lo, hi = float(tg[lo_i]), float(tg[hi_i])
    while hi - lo > 0.25 * tol:
        mid = 0.5 * (lo + hi)
        if excess(mid) > theta:
            hi = mid
        else:
            lo = mid
    t_cross = hi
    D = max(4.0 * tol, 2.0 * atlas.dt)
    t_end = float(tg[edge_i])
    base_t = max(t_cross - 3.0 * D, 0.0)
    baseline = max(0.0, excess(base_t)) if base_t > 0 else 0.0
    if t_cross + 2.0 * D <= t_end:
        e1 = excess(t_cross + D)
        e2 = excess(t_cross + 2.0 * D)
        rho = kink_root(t_cross, D, theta, e1, e2, baseline)
    else:
        rho = t_cross - theta
        flags["method"] = "edge"
    rho = float(np.clip(rho, t_cross - 6.0 * theta, t_cross))
    return rho, flags


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
    g, dg, _ = b.metric_field.jet(np.asarray(pts, dtype=float), 1)
    # the jet puts the point axes last
    return _contract_gamma2(np.moveaxis(g, (0, 1), (-2, -1)),
                            np.moveaxis(dg, (0, 1, 2), (-3, -2, -1)),
                            np.asarray(v, dtype=float))


FD_GAMMA2_STEP = 1e-4
FD_CURVATURE_STEP = 1e-3


def fd_gamma2(b, pts, v, h=FD_GAMMA2_STEP):
    """Gamma^k_ij v^i v^j of a PeriodicChart with the metric's first
    derivatives taken by central differences of its values."""
    pts = np.asarray(pts, dtype=float)
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    dg = np.stack([b.metric(pts + e1, check=False)
                   - b.metric(pts - e1, check=False),
                   b.metric(pts + e2, check=False)
                   - b.metric(pts - e2, check=False)], axis=-3) / (2.0 * h)
    return _contract_gamma2(b.metric(pts), dg, np.asarray(v, dtype=float))


def fd_gauss_curvature(b, pts, h=FD_CURVATURE_STEP):
    """Gauss curvature of a PeriodicChart by the Brioschi formula, with the
    metric's derivatives taken by central and second differences."""
    pts = np.asarray(pts, dtype=float)
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])

    def comp(p):
        g = b.metric(p, check=False)
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
        g = b.metric(base[None, :])[0]
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

def reference_integrate(b, p0, v0, t_max, dt):
    """(pos, vel) of the fixed-step RK4 batch, re-projecting onto an
    implicit surface after every step with the pre-projection speed."""
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    n_steps = int(np.ceil(t_max / dt - 1e-12))
    tg = np.append(dt * np.arange(n_steps), t_max)
    pos, vel = [p0], [v0]
    x, v = p0.copy(), v0.copy()

    def rhs(x, v):
        return v, -b.gamma2(x, v)

    for i in range(n_steps):
        h = tg[i + 1] - tg[i]
        k1x, k1v = rhs(x, v)
        k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = rhs(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if b.periods is None:
            speed = b.norm(x, v)
            x = b.project(x)
            v = b.tangent_project(x, v)
            new_speed = b.norm(x, v)
            scale = np.where(new_speed > 0.0,
                             speed / np.maximum(new_speed, 1e-300), 1.0)
            v = v * scale[..., None]
        pos.append(x)
        vel.append(v)
    return np.stack(pos, axis=1), np.stack(vel, axis=1)


def reference_pair_det(b, base, a, c):
    """2D determinant of the pairs (a, c) in chart or ambient-tangent
    coordinates."""
    if b.periods is not None:
        return a[:, 0] * c[:, 1] - a[:, 1] * c[:, 0]
    n = b.unit_surface_normal(base)
    cross = np.cross(a, c)
    return np.sum(cross * n, axis=-1)


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
        g = b.metric(q[None, :])[0]
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
