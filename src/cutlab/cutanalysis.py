"""Cut times, cut locus, separating points, focal times (scalar Jacobi and
exponential-Jacobian routes), N-geodesic loops, injectivity radii, and the
focal-free comparison bound."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forking import _fork_map, _worker_count
from .geodesics import _hermite, hermite_batch, normal_exp_jacobian
from .geometry import Backend
from .submanifold import (SubmanifoldSpec, foot_points, golden_section,
                          shape_operators)
from .wavefront import (CoverageError, WavefrontAtlas, _coverage_reason,
                        _distance_rows, _edge_margin, distance, ring_pairs)


@dataclass
class LoopReturn:
    t: float            # loop length (unit-speed return time)
    s_return: float     # curve parameter (or unused for a point) at the return
    angle_residual: float
    d_min: float


@dataclass
class CutProfile:
    """Per-normal-direction record of cut, focal and loop data."""

    dir_idx: int
    s: float
    side: int
    rho: float
    cut_point: np.ndarray
    no_cut: bool
    focal_t: float              # +inf when no focal point before t_max
    loop: LoopReturn | None
    flags: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# cut time
# ---------------------------------------------------------------------------

def excess(atlas: WavefrontAtlas, dir_idx: int, t: float) -> float:
    """e(t) = t - d(N, gamma_n(t)); nondecreasing, zero before the cut."""
    p, _ = atlas.path_point(dir_idx, t)
    return t - distance(atlas, p).d


def cut_time(atlas: WavefrontAtlas, dir_idx: int, tol: float = 1e-3) -> tuple[float, dict]:
    """sup{t | d(N, gamma_n(t)) = t} along one direction; see cut_times."""
    rho, flags = cut_times(atlas, tol, [dir_idx])
    return float(rho[0]), flags[0]


def cut_times(atlas: WavefrontAtlas, tol: float = 1e-3, dirs=None,
              workers: int | None = 1) -> tuple[np.ndarray, list[dict]]:
    """sup{t | d(N, gamma_n(t)) = t} via bisection on the excess function,
    for the directions ``dirs`` (default: all) in lockstep.

    The threshold theta = max(3*err_step, tol) marks the {e <= theta} /
    {e > theta} boundary; a short extrapolation of e back to its pre-kink
    baseline removes the O(theta) bias of the raw crossing.  Every step
    probes all searching directions with one distance batch.  A direction
    whose probe cannot be certified stops; the CoverageError of the first
    such direction is raised once the others are done.

    The directions split into n = min(workers, len(dirs)) shares (workers
    None: one per CPU), share w taking every n-th from the w-th, each
    searched in its own process (_cut_time_share).  No direction's search
    reads another's, so the result and the error raised do not depend on n.
    """
    batch = atlas.batch
    J = np.arange(batch.n_paths) if dirs is None else np.asarray(dirs, int)
    n = _worker_count(workers, len(J))
    shares = _fork_map(lambda w: _cut_time_share(atlas, tol, J[w::n]), n,
                       lambda w: f"cut-time worker for directions {w}::{n}")
    rho = np.empty(len(J))
    flags: list[dict] = [{} for _ in J]
    failed: dict[int, str] = {}
    for w, (r, f, bad) in enumerate(shares):
        rho[w::n] = r
        flags[w::n] = f
        failed.update({w + n * i: reason for i, reason in bad.items()})
    if failed:
        raise CoverageError(failed[min(failed)])
    return rho, flags


def _cut_time_share(atlas: WavefrontAtlas, tol: float, J: np.ndarray):
    """cut_times' lockstep search of the directions J, without raising:
    (rho, flags, failed), where failed maps the position in J of each
    direction whose probe could not be certified to its first reason; rho
    and flags are final only when failed is empty."""
    batch = atlas.batch
    tg = batch.t
    k = len(J)
    failed: dict[int, str] = {}
    dead = np.zeros(k, dtype=bool)

    def excess_at(rows, t):
        """e at times t on the paths J[rows]; a direction whose probe is
        not certified keeps its first reason and stops."""
        if not rows.size:
            return np.empty(0)
        p, _ = hermite_batch(tg, batch.pos, batch.vel, J[rows], t)
        d, _err, _j, _t, status = _distance_rows(atlas, p)
        for i in np.flatnonzero(status):
            failed.setdefault(int(rows[i]),
                              _coverage_reason(atlas, status[i], d[i]))
        dead[rows[status != 0]] = True
        return t - d

    def live(rows):
        return rows[~dead[rows]]

    theta = max(2.0 * atlas.dt, tol)
    flags = [{"theta": theta, "no_cut": False, "method": "kink"}
             for _ in range(k)]
    # probe below the coverage edge: a still-minimizing direction has d = t,
    # which the distance query refuses within its margin of t_max
    edge = atlas.t_max - _edge_margin(atlas) - 5.0 * atlas.dt
    edge_i = max(int(np.searchsorted(tg, edge, side="right")) - 1, 1)
    rho = np.full(k, float(tg[edge_i]))
    rows = np.arange(k)
    e_end = excess_at(rows, np.full(k, tg[edge_i]))
    for i in np.flatnonzero(e_end <= theta):
        flags[i]["no_cut"] = True
        flags[i]["method"] = "none"
    rows = live(rows[~(e_end <= theta)])
    # monotone binary search for the first grid point with e > theta
    lo_i = np.zeros(k, dtype=np.int64)
    hi_i = np.full(k, edge_i, dtype=np.int64)
    while True:
        rows = live(rows)
        act = rows[hi_i[rows] - lo_i[rows] > 1]
        if not act.size:
            break
        mid = (lo_i[act] + hi_i[act]) // 2
        up = excess_at(act, tg[mid]) > theta
        hi_i[act[up]] = mid[up]
        lo_i[act[~up]] = mid[~up]
    lo, hi = tg[lo_i], tg[hi_i]
    # continuous bisection of the theta-crossing to width tol
    while True:
        rows = live(rows)
        act = rows[hi[rows] - lo[rows] > 0.25 * tol]
        if not act.size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        up = excess_at(act, mid) > theta
        hi[act[up]] = mid[up]
        lo[act[~up]] = mid[~up]
    # extrapolate the kink: quadratic through e at t_cross, +D, +2D down to
    # the pre-kink baseline
    D = max(4.0 * tol, 2.0 * atlas.dt)
    t_end = float(tg[edge_i])
    t_cross = hi
    base_t = np.maximum(t_cross - 3.0 * D, 0.0)
    has_base = rows[base_t[rows] > 0]
    kink = rows[t_cross[rows] + 2.0 * D <= t_end]
    e = excess_at(np.concatenate([has_base, kink, kink]),
                  np.concatenate([base_t[has_base], t_cross[kink] + D,
                                  t_cross[kink] + 2.0 * D]))
    baseline = np.zeros(k)
    baseline[has_base] = e[:len(has_base)]
    e1, e2 = np.full(k, np.nan), np.full(k, np.nan)
    e1[kink], e2[kink] = np.split(e[len(has_base):], 2)
    if failed:
        return rho, flags, failed
    is_kink = np.zeros(k, dtype=bool)
    is_kink[kink] = True
    for i in rows:
        tc = float(t_cross[i])
        if is_kink[i]:
            r = _kink_root(tc, D, theta, float(e1[i]), float(e2[i]),
                           max(0.0, float(baseline[i])))
        else:
            r = tc - theta  # assume unit slope near the coverage edge
            flags[i]["method"] = "edge"
        rho[i] = float(np.clip(r, tc - 6.0 * theta, tc))
    return rho, flags, failed


def _kink_root(t0: float, D: float, e0: float, e1: float, e2: float,
               base: float) -> float:
    """Root of the quadratic through (t0, e0), (t0+D, e1), (t0+2D, e2) at
    level ``base``, taking the branch just below t0; falls back to the secant
    slope when the fit is degenerate."""
    a = (e2 - 2.0 * e1 + e0) / (2.0 * D * D)
    bq = (e1 - e0) / D - a * D          # derivative at t0 of the fit
    c = e0 - base
    slope_fallback = max((e1 - e0) / D, 0.25)
    if abs(a) < 1e-12:
        return t0 - c / max(bq, 0.25)
    disc = bq * bq - 4.0 * a * c
    if disc < 0.0:
        return t0 - c / slope_fallback
    r = (-bq + math.sqrt(disc)) / (2.0 * a)   # delta with t = t0 + delta
    if not (-6.0 * c / slope_fallback <= r <= 0.0):
        r2 = (-bq - math.sqrt(disc)) / (2.0 * a)
        r = r2 if (-6.0 * c / slope_fallback <= r2 <= 0.0) else -c / slope_fallback
    return t0 + r


# ---------------------------------------------------------------------------
# focal times: scalar Jacobi route
# ---------------------------------------------------------------------------

def focal_times_batch(b: Backend, N: SubmanifoldSpec, atlas: WavefrontAtlas,
                      zero_tol: float = 1e-8) -> np.ndarray:
    """First zero of y'' + K(gamma(t)) y = 0 along every atlas direction.

    Initial data: curve case y(0) = 1, y'(0) = kappa(s, side); point case
    y(0) = 0, y'(0) = 1.  Returns +inf where y has no zero before t_max.
    """
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
        tf = _first_zero(tg, y[j], yp[j], start, zero_tol)
        if tf is not None:
            out[j] = tf
    return out


def _first_zero(tg, y, yp, start, tol):
    sgn = np.sign(y[start:])
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if not flips.size:
        return None
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


def focal_bracket_jacobian(b: Backend, N: SubmanifoldSpec, frame,
                           t_max: float, dt: float, fd: float = 1e-4):
    """Secondary focal oracle: first sign change of det d(exp^nu) along the
    direction of ``frame``; None if the determinant never changes sign."""
    jac = normal_exp_jacobian(b, N, frame.s, frame.side, t_max, dt, fd)
    return jac.first_zero(), jac


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def loop_scan(b: Backend, N: SubmanifoldSpec, atlas: WavefrontAtlas,
              capture_radius: float = 1e-2, angle_tol: float = 1e-3,
              n_scan: int = 128) -> tuple[float, list[LoopReturn | None]]:
    """Detect N-geodesic loops: returns to N with g-orthogonal velocity.

    A candidate return must first leave a 3x capture tube around N.  The
    coarse return detector uses at most n_scan samples of N (the polish
    stage is exact).  Returns (half the minimal loop length, per-direction
    first loop or None).
    """
    N_pts = N.sample_points(min(N.m_N, n_scan) if N.dim == 1 else None)
    if N.dim == 1:
        spacing = float(np.max(b.aux_distance(
            N_pts, N_pts[np.roll(np.arange(len(N_pts)), -1)])))
    else:
        spacing = 0.0
    batch = atlas.batch
    k, n_t, d = batch.pos.shape
    thresh = capture_radius + 0.6 * spacing
    # distance to N per atlas sample, from the samples the spatial hash puts
    # within R of some N sample; the rest read +inf.  No comparison below
    # changes: values above R >= 3 * capture_radius escape either way, are
    # never below thresh <= R, and never undercut a local minimum below R
    R = max(3.0 * capture_radius, thresh)
    rings = int(math.ceil(R / atlas.cell))
    d_series = np.full(k * n_t, np.inf)
    for qi, cand in ring_pairs(atlas, N_pts, rings):
        gaps = b.aux_distance(batch.pos.reshape(-1, d)[cand], N_pts[qi])
        keep = gaps <= R
        np.minimum.at(d_series, cand[keep], gaps[keep])
    d_series = d_series.reshape(k, n_t)
    escaped = d_series > 3.0 * capture_radius
    i0 = np.where(escaped.any(axis=1), escaped.argmax(axis=1), n_t)
    interior = d_series[:, 1:-1]
    is_min = ((interior <= d_series[:, :-2]) & (interior <= d_series[:, 2:])
              & (interior < thresh))
    J, I = np.nonzero(is_min)
    I = I + 1
    after = I > i0[J]
    J, I = J[after], I[after]            # grid order within each direction
    t, s_ret, res, d_min = _polish_returns(b, N, batch, J, batch.t[I],
                                           capture_radius)
    ok = np.nonzero(~(d_min > capture_radius) & (res <= angle_tol))[0]
    # the earliest accepted return of each direction is its loop
    ok = ok[np.unique(J[ok], return_index=True)[1]]
    per_dir: list[LoopReturn | None] = [None] * k
    for c in ok:
        per_dir[J[c]] = LoopReturn(float(t[c]), float(s_ret[c]),
                                   float(res[c]), float(d_min[c]))
    return (0.5 * float(np.min(t[ok])) if ok.size else np.inf), per_dir


def _polish_returns(b, N, batch, J, t0, capture):
    """Joint (s, t) polish of every capture event (path J, grid time t0) by
    three alternating rounds of golden sections, all events in lockstep.
    Returns arrays (t, s, angle residual, d_min)."""
    tg, pos, vel = batch.t, batch.pos, batch.vel
    dt = batch.dt
    lo = np.maximum(t0 - 2 * dt, 0.0)
    hi = np.minimum(t0 + 2 * dt, float(tg[-1]))
    tube = 10 * capture
    t = t0
    target = np.broadcast_to(N.point, (len(J),) + N.point.shape) \
        if N.dim == 0 else None
    for _ in range(3):
        if N.dim == 1:
            p, _v = hermite_batch(tg, pos, vel, J, t)
            s_ret, _, _ = foot_points(b, N, b.wrap(p), tube)
            target = N.curve(s_ret)

        def f(tt, idx):
            pp, _ = hermite_batch(tg, pos, vel, J[idx], tt)
            return b.aux_distance(target[idx], b.wrap(pp))

        t = golden_section(f, lo, hi, 1e-9)
    p, v = hermite_batch(tg, pos, vel, J, t)
    pw = b.wrap(p)
    if N.dim == 0:
        zero = np.zeros(len(J))
        return t, zero, zero, b.aux_distance(N.point, pw)
    s, d_min, _ = foot_points(b, N, pw, tube)
    tan = N.curve.velocity(s)
    base = N.curve(s)
    vn = v / np.maximum(b.norm(pw, v), 1e-300)[:, None]
    tn = tan / np.maximum(b.norm(base, tan), 1e-300)[:, None]
    res = np.abs(b.inner(base, vn, tn))
    return t, s, res, d_min


# ---------------------------------------------------------------------------
# profiles and injectivity radii
# ---------------------------------------------------------------------------

def compute_profiles(b: Backend, N: SubmanifoldSpec, atlas: WavefrontAtlas,
                     tol: float = 1e-3, capture_radius: float = 1e-2,
                     angle_tol: float = 1e-3, loops: list | None = None,
                     workers: int | None = 1) -> list[CutProfile]:
    focal = focal_times_batch(b, N, atlas)
    if loops is None:
        _, loops = loop_scan(b, N, atlas, capture_radius, angle_tol)
    rho, flags = cut_times(atlas, tol, workers=workers)
    # a geodesic never minimizes past its first focal point; the excess
    # crossing lands late at focal-type cuts (cubic growth), so the focal
    # time is both a hard bound and the sharper estimate there
    clipped = focal < rho
    rho[clipped] = focal[clipped]
    for j in np.flatnonzero(clipped):
        flags[j]["focal_clipped"] = True
        flags[j]["no_cut"] = False
    batch = atlas.batch
    k = len(rho)
    cut = b.wrap(hermite_batch(batch.t, batch.pos, batch.vel, np.arange(k),
                               rho)[0])
    return [CutProfile(j, f.s, f.side, float(rho[j]), cut[j],
                       flags[j]["no_cut"], float(focal[j]), loops[j],
                       flags[j])
            for j, f in enumerate(atlas.frames)]


@dataclass
class PointCloud:
    """Compact subset sample with provenance and dedup radius."""

    backend: Backend
    points: np.ndarray
    dir_idx: np.ndarray
    dedup_radius: float


def cut_locus_cloud(b: Backend, profiles: list[CutProfile],
                    dedup_radius: float = 1e-6) -> PointCloud:
    pts = np.array([p.cut_point for p in profiles if not p.no_cut])
    dirs = np.array([p.dir_idx for p in profiles if not p.no_cut], dtype=int)
    if not len(pts):
        return PointCloud(b, np.empty((0, b.dim)), dirs, dedup_radius)
    keep = np.ones(len(pts), dtype=bool)
    for i in range(len(pts)):
        if not keep[i]:
            continue
        d = b.aux_distance(pts[i + 1:], pts[i])
        keep[i + 1:] &= d > dedup_radius
    return PointCloud(b, pts[keep], dirs[keep], dedup_radius)


@dataclass
class SepPoint:
    point: np.ndarray
    dir_idx: list[int]
    multiplicity: int
    flag: str   # "sep", "focal", or "both"


def separating_points(b: Backend, N: SubmanifoldSpec,
                      profiles: list[CutProfile], pair_tol: float,
                      frame_tol: float = 1e-3, focal_tol: float = 5e-3
                      ) -> list[SepPoint]:
    """Cluster cut points; clusters reached by >= 2 distinct initial frames
    are separating candidates, with the non-exclusive focal dichotomy flag."""
    prof = [p for p in profiles if not p.no_cut]
    clusters = _clusters(b, np.array([p.cut_point for p in prof]), pair_tol)
    out = []
    for members in clusters:
        frames = [(prof[i].s, prof[i].side) for i in members]
        distinct = _distinct_frames(N, frames, frame_tol)
        focal = any(np.isfinite(prof[i].focal_t)
                    and abs(prof[i].focal_t - prof[i].rho) <= focal_tol
                    for i in members)
        if distinct >= 2:
            flag = "both" if focal else "sep"
        elif focal:
            flag = "focal"
        else:
            continue
        pts = np.array([prof[i].cut_point for i in members])
        out.append(SepPoint(np.mean(pts, axis=0),
                            [prof[i].dir_idx for i in members],
                            distinct, flag))
    return out


def _clusters(b: Backend, pts: np.ndarray,
              pair_tol: float) -> list[list[int]]:
    """Connected components of the graph joining i < j when
    aux_distance(pts[i], pts[j]) <= pair_tol, ordered by first member, each
    in ascending order.  Pairs are measured 256 rows at a time."""
    n = len(pts)
    I, J = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i0 in range(0, n, 256):
        gaps = b.aux_distance(pts[i0:i0 + 256, None, :], pts[None, :, :])
        i, j = np.nonzero(gaps <= pair_tol)
        i += i0
        I.append(i[i < j])
        J.append(j[i < j])
    I, J = np.concatenate(I), np.concatenate(J)
    # propagate the smallest index over each component
    label = np.arange(n)
    while True:
        new = label.copy()
        low = np.minimum(label[I], label[J])
        np.minimum.at(new, I, low)
        np.minimum.at(new, J, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    first, which = np.unique(label, return_inverse=True)
    return [list(np.flatnonzero(which == c)) for c in range(len(first))]


def _distinct_frames(N, frames, frame_tol):
    distinct = []
    for s, side in frames:
        new = True
        for s2, side2 in distinct:
            if N.dim == 1 and side != side2:
                continue
            ds = abs(s - s2)
            period = 1.0 if N.dim == 1 else 2.0 * np.pi
            ds = min(ds % period, period - ds % period)
            if ds <= frame_tol and (N.dim == 0 or side == side2):
                new = False
                break
        if new:
            distinct.append((s, side))
    return len(distinct)


def f_min(focal: np.ndarray) -> float:
    return float(np.min(focal)) if len(focal) else np.inf


def injectivity_radius_direct(profiles: list[CutProfile]) -> float:
    """Inf of cut times over the direction set."""
    return float(min(p.rho for p in profiles))


def injectivity_radius_char(fmin: float, l_half: float,
                            tie_tol: float = 5e-3) -> tuple[float, str]:
    """min(first focal distance, half shortest loop), with branch label."""
    if not np.isfinite(fmin) and not np.isfinite(l_half):
        return np.inf, "inconclusive: increase t_max"
    value = min(fmin, l_half)
    if abs(fmin - l_half) <= tie_tol:
        branch = "both"
    elif fmin < l_half:
        branch = "focal"
    else:
        branch = "loop"
    return float(value), branch


def warner_bound(K_bound: float, Delta: float) -> dict:
    """Focal-free length bounds from curvature and principal-curvature data.

    Returns the printed variant arctan(K/Delta)/sqrt(K) and the standard
    comparison form arctan(sqrt(K)/Delta)/sqrt(K); both tend to
    pi/(2 sqrt(K)) as Delta -> 0.
    """
    if K_bound <= 0.0:
        raise ValueError("warner_bound needs K_bound > 0; flat or negatively "
                         "curved cases have no focal points from kappa >= 0")
    rk = math.sqrt(K_bound)
    if Delta <= 0.0:
        lim = 0.5 * math.pi / rk
        return {"eps_paper": lim, "eps_std": lim}
    return {"eps_paper": math.atan(K_bound / Delta) / rk,
            "eps_std": math.atan(rk / Delta) / rk}
