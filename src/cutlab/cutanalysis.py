"""Cut times, cut locus, separating points, focal times (scalar Jacobi
route), N-geodesic loops, injectivity radii, and the focal-free comparison
bound."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geodesics import _hermite, hermite_batch
from .geometry import Backend, row_sum
from .submanifold import (SubmanifoldSpec, foot_points, golden_section,
                          shape_operators)
# distance has no caller here; the benchmark's tracer patches this binding
from .wavefront import WavefrontAtlas, _front_next, distance, ring_pairs

FOCAL_ZERO_TOL = 1e-8   # Newton step that ends the polish of a Jacobi zero
LOOP_SCAN_SAMPLES = 128  # most samples of a curve N the loop scan reads
FRAME_TOL = 1e-3        # parameter gap within which two frames are one
FOCAL_TOL = 5e-3        # |t_f - rho| within which a cut point is focal
TIE_TOL = 5e-3          # |f_min - l_half| within which the branch is "both"
CROSS_BLOCK = 8         # grid steps that one bounding box per path spans
CROSS_CHUNK = 1024      # most (direction, edge) pairs one step test takes
EDGE_GROUP = 8          # consecutive front edges under one bounding ball
POLISH_STEPS = 3        # Newton steps of a crossing time on the Hermite paths
ROUND_SLACK = 1e-9      # rounding slack of a box, a step root and an edge
CUT_METHODS = ("crossing", "focal", "none")     # what decided a cut time
CAPTURE_RADIUS = 1e-2   # how near N a return must come to close a loop
ANGLE_TOL = 1e-3        # |cos| of the angle between a return and N's tangent
DEDUP_RADIUS = 1e-6     # cut points closer than this are one cloud point
PAIR_TOL = 3e-3         # cut points this close lie in one separating cluster


@dataclass
class CutProfile:
    """Per-normal-direction record of cut, focal and loop data."""

    dir_idx: int
    s: float
    side: int
    rho: float
    cut_point: np.ndarray
    method: str                 # what decided rho, one of CUT_METHODS
    focal_t: float              # +inf when no focal point before t_max
    loop: float | None          # the first loop's return time, if any

    @property
    def no_cut(self) -> bool:
        """Whether no cut point came before t_max."""
        return self.method == CUT_METHODS[2]

    @property
    def flags(self) -> dict:
        """The cut method and no_cut as one dict, as the benchmark's tracer
        reads them."""
        return {"method": self.method, "no_cut": self.no_cut}


# ---------------------------------------------------------------------------
# cut time
# ---------------------------------------------------------------------------

def cut_time(atlas: WavefrontAtlas, dir_idx: int) -> tuple[float, str]:
    """One direction's cut time and method, with no focal bound."""
    rho, method = cut_times(atlas, dirs=[dir_idx])
    return float(rho[0]), method[0]


def cut_times(atlas: WavefrontAtlas, focal=None,
              dirs=None) -> tuple[np.ndarray, list[str]]:
    """Cut times rho_j = min(t_c, t_f, t_max) of the directions ``dirs``
    (default: all), t_f their focal times ``focal`` (default: none) and t_c
    the first time gamma_j crosses an edge (gamma_k, gamma_{k+1}) of either
    side's front polygon (_front_next) with k, k + 1 != j: two minimizing
    geodesics that meet cross each other's fronts (Sinclair & Tanaka's
    Loki).  Each direction's method (CUT_METHODS) says which bound rho
    is."""
    batch = atlas.batch
    J = np.arange(batch.n_paths) if dirs is None else np.asarray(dirs, int)
    t_f = np.full(batch.n_paths, np.inf) if focal is None else focal
    t_c = _first_crossings(atlas, J, t_f)
    rho = np.minimum(np.minimum(t_c, t_f[J]), atlas.t_max)
    crossing, focal, none = CUT_METHODS
    method = np.where((t_c == rho) & (t_c < t_f[J]), crossing,
                      np.where(t_f[J] == rho, focal, none))
    return rho, method.tolist()


def _first_crossings(atlas: WavefrontAtlas, J, t_f) -> np.ndarray:
    """The first crossing time of each direction of J, +inf where none comes
    before its focal time, from blocks of CROSS_BLOCK grid steps in time
    order; a direction stops at the block of its crossing or focal time."""
    b, batch, tg = atlas.backend, atlas.batch, atlas.batch.t
    nxt = _front_next(atlas.N, batch.n_paths)
    t_c = np.full(len(J), np.inf)
    for i0 in range(0, len(tg) - 1, CROSS_BLOCK):
        live = np.flatnonzero((t_c == np.inf) & (t_f[J] > tg[i0]))
        if not live.size:
            break
        q = J[live]
        r, a = _near_pairs(b, batch.pos[:, i0:i0 + CROSS_BLOCK + 1], nxt, q)
        steps = np.arange(i0, min(i0 + CROSS_BLOCK, len(tg) - 1))
        for c in range(0, len(r), CROSS_CHUNK):    # bounds the memory
            rc = np.repeat(r[c:c + CROSS_CHUNK], len(steps))
            ac = np.repeat(a[c:c + CROSS_CHUNK], len(steps))
            i = np.tile(steps, len(rc) // len(steps))
            keep = np.flatnonzero(tg[i] < t_f[q[rc]])   # else rho <= t_f
            rc, ac, i = rc[keep], ac[keep], i[keep]
            rows, t = _step_crossings(b, batch, q[rc], ac, nxt[ac], i)
            np.minimum.at(t_c, live[rc[rows]], t)
    return t_c


def _near_pairs(b: Backend, seg: np.ndarray, nxt: np.ndarray, q):
    """The pairs (row of q, edge a) whose path q[row] and front edge
    (a, nxt[a]), a, nxt[a] != q[row], have bounding boxes over the nodes
    seg (paths by nodes) that meet.  An edge's box also holds, by half its
    longest length, the points that count as on it (_step_crossings)."""
    c = seg[:, 0]
    # node-major, so that the reductions run over contiguous rows
    off = np.ascontiguousarray(b.aux_gap(seg[:, :1], seg).transpose(1, 0, 2))
    lo = np.minimum.reduce(off) - ROUND_SLACK
    hi = np.maximum.reduce(off) + ROUND_SLACK
    edge = b.aux_gap(seg, seg[nxt])
    half = 0.5 * np.sqrt(np.max(row_sum(edge * edge), axis=1))[:, None]
    e_lo = np.minimum(lo, edge[:, 0] + lo[nxt]) - half
    e_hi = np.maximum(hi, edge[:, 0] + hi[nxt]) + half
    # first EDGE_GROUP edges at a time, in balls about the group's first
    # node: the triangle inequality of aux_distance holds across a seam too
    radius = lambda low, high: np.sqrt(row_sum(np.maximum(-low, high) ** 2))
    first = np.arange(0, len(c), EDGE_GROUP)
    reach = np.maximum.reduceat(radius(e_lo, e_hi) + b.aux_distance(
        c[np.repeat(first, EDGE_GROUP)[:len(c)]], c), first)
    r, g = np.nonzero(b.aux_distance(c[q, None], c[None, first])
                      <= radius(lo[q], hi[q])[:, None] + reach + ROUND_SLACK)
    a = (first[g, None] + np.arange(EDGE_GROUP)).ravel()
    keep = np.flatnonzero(a < len(c))
    r, a = np.repeat(r, EDGE_GROUP)[keep], a[keep]
    p = q[r]
    # gathers by take, and the boxes met axis by axis: NumPy's fancy
    # indexing and its reduction over a short last axis are several times
    # slower
    gap = b.aux_gap(c.take(p, axis=0), c.take(a, axis=0))
    meet = (gap + e_lo.take(a, axis=0) <= hi.take(p, axis=0)) \
        & (gap + e_hi.take(a, axis=0) >= lo.take(p, axis=0))
    keep = (a != p) & (nxt[a] != p)
    for axis in range(meet.shape[-1]):
        keep &= meet[:, axis]
    keep = np.flatnonzero(keep)
    return r[keep], a[keep]


def _step_crossings(b: Backend, batch, q, a, e, i):
    """The rows of (q, a, e, i) whose path q crosses the front edge (a, e)
    within grid step i, and the crossing times.

    With the three points moving linearly in the step, the orientation of
    q against the edge is a quadratic (the swept triangle).  A sign change
    between the step's nodes, its end counted and its start not, holds one
    root; a step without one counts when it holds two.  A root counts when
    q is on the edge there: edge parameter in [0, 1] and, on a surface,
    within half the edge's length of its chord, whose plane meets far
    points too.  Its time is then polished by POLISH_STEPS Newton steps on
    the Hermite paths, kept in the grid step."""
    tg, pos = batch.t, batch.pos
    idx = np.stack([q, a, e])
    # the nodes by take from the flat samples: fancy indexing is slower
    at = idx * len(tg) + i
    flat = pos.reshape(-1, pos.shape[-1])
    p0, p1 = flat.take(at, axis=0), flat.take(at + 1, axis=0)
    move = b.aux_gap(p0, p1)
    dA, dB = move[2] - move[1], move[0] - move[1]
    A0, B0 = b.aux_gap(p0[1], p0[2]), b.aux_gap(p0[1], p0[0])
    o = b.orientation(p0[1], np.stack([A0, A0, dA, dA]),
                      np.stack([B0, dB, B0, dB]))
    c0, c1, c2 = o[0], o[1] + o[2], o[3]
    o1 = b.orientation(p1[1], b.aux_gap(p1[1], p1[2]),
                       b.aux_gap(p1[1], p1[0]))
    odd = ((c0 > 0) & (o1 <= 0)) | ((c0 < 0) & (o1 >= 0))
    disc = c1 * c1 - 4.0 * c0 * c2
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
        s = np.stack([h / c2, c0 / h])
        ok = np.where(odd, (s >= -ROUND_SLACK) & (s <= 1.0 + ROUND_SLACK),
                      (disc > 0.0) & (s > 0.0) & (s < 1.0))
        root, rows = np.nonzero(ok)
        s = np.clip(s[root, rows], 0.0, 1.0)
        A = A0[rows] + s[:, None] * dA[rows]
        B = B0[rows] + s[:, None] * dB[rows]
        AA, AB, BB = row_sum(A * A), row_sum(A * B), row_sum(B * B)
        u = AB / AA
    hit = np.flatnonzero((u >= -ROUND_SLACK) & (u <= 1.0 + ROUND_SLACK)
                         & (4.0 * (BB - u * AB) <= AA))
    rows, s = rows[hit], s[hit]
    lo, hi = tg[i[rows]], tg[i[rows] + 1]
    t = lo + s * (hi - lo)
    J = idx[:, rows].reshape(-1)
    for _ in range(POLISH_STEPS if rows.size else 0):
        p, v = hermite_batch(tg, pos, batch.vel, J, np.tile(t, 3))
        (pq, pa, pe), (vq, va, ve) = np.split(p, 3), np.split(v, 3)
        A, B = b.aux_gap(pa, pe), b.aux_gap(pa, pq)
        f = b.orientation(pa, np.stack([A, ve - va, A]),
                          np.stack([B, B, vq - va]))
        slope = f[1] + f[2]
        t = np.clip(t - np.divide(f[0], slope, out=np.zeros_like(slope),
                                  where=slope != 0.0), lo, hi)
    return rows, t


# ---------------------------------------------------------------------------
# focal times: scalar Jacobi route
# ---------------------------------------------------------------------------

def focal_times_batch(b: Backend, N: SubmanifoldSpec,
                      atlas: WavefrontAtlas) -> np.ndarray:
    """First zero of y'' + K(gamma(t)) y = 0 along every atlas direction.

    Initial data: curve case y(0) = 1, y'(0) = kappa(s, side); point case
    y(0) = 0, y'(0) = 1.  Returns +inf where y has no zero before t_max.
    The steps stop once y has changed sign along every direction.
    """
    batch = atlas.batch
    k, n, d = batch.pos.shape
    K = b.gauss_curvature(batch.pos.reshape(-1, d)).reshape(k, n)
    # the coefficients -K at the nodes and at mid-step, and y, y' stored
    # time-major, so that every step reads and writes contiguous rows
    Kt = np.ascontiguousarray(K.T)
    neg_K, neg_Km = -Kt, -(0.5 * (Kt[:-1] + Kt[1:]))
    y = np.empty((n, k))
    yp = np.empty((n, k))
    if N.dim == 0:
        y[0], yp[0] = 0.0, 1.0
    else:
        y[0] = 1.0
        yp[0] = shape_operators(b, N, [f.s for f in atlas.frames],
                                [f.side for f in atlas.frames])
    tg = batch.t
    start = 1 if N.dim == 0 else 0
    flipped = np.zeros(k, dtype=bool)
    end = n
    for i in range(n - 1):
        h = tg[i + 1] - tg[i]
        a0, am, a1 = neg_K[i], neg_Km[i], neg_K[i + 1]
        y0, v0 = y[i], yp[i]
        k1y, k1v = v0, a0 * y0
        k2y, k2v = v0 + 0.5 * h * k1v, am * (y0 + 0.5 * h * k1y)
        k3y, k3v = v0 + 0.5 * h * k2v, am * (y0 + 0.5 * h * k2y)
        k4y, k4v = v0 + h * k3v, a1 * (y0 + h * k3y)
        y[i + 1] = y0 + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        yp[i + 1] = v0 + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if i >= start:
            # a negative product is a strict sign change (one that
            # underflows to -0.0 only delays the stop)
            flipped |= y0 * y[i + 1] < 0.0
            if flipped.all():
                end = i + 2
                break
    return _first_zeros(tg, y[:end], yp[:end], start)


def _first_zeros(tg, y, yp, start):
    """First zero after row start of every column of y (time-major), +inf
    if none: the secant root of its first strict sign change, polished by
    Newton steps on the cubic Hermite interpolant of (y, y') until a step
    is below FOCAL_ZERO_TOL or the slope is zero, eight steps at most."""
    sgn = np.sign(y[start:])
    flips = sgn[:-1] * sgn[1:] < 0
    cols = np.flatnonzero(flips.any(axis=0))
    out = np.full(y.shape[1], np.inf)
    if not cols.size:
        return out
    i = flips[:, cols].argmax(axis=0) + start
    t0, t1 = tg[i], tg[i + 1]
    y0, y1, v0, v1 = y[i, cols], y[i + 1, cols], yp[i, cols], yp[i + 1, cols]
    t = t0 - y0 * (t1 - t0) / (y1 - y0)
    h = t1 - t0
    live = np.ones(len(cols), dtype=bool)
    for _ in range(8):
        yt, dyt = _hermite(h, (t - t0) / h, y0, y1, v0, v1)
        live &= dyt != 0.0
        step = np.divide(yt, dyt, out=np.zeros_like(yt), where=live)
        t = np.where(live, t - step, t)
        live &= ~(np.abs(step) < FOCAL_ZERO_TOL)
        if not live.any():
            break
    out[cols] = np.clip(t, t0, t1)
    return out


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def loop_scan(b: Backend, N: SubmanifoldSpec, atlas: WavefrontAtlas
              ) -> tuple[float, list[float | None]]:
    """Detect N-geodesic loops: returns to within CAPTURE_RADIUS of N with
    g-orthogonal velocity (to ANGLE_TOL).

    A candidate return must first leave a 3x capture tube around N.  The
    coarse return detector uses at most LOOP_SCAN_SAMPLES samples of N (the
    polish stage is exact).  Returns (half the minimal loop length,
    per-direction return time of the first loop, or None).
    """
    N_pts = N.sample_points(min(N.m_N, LOOP_SCAN_SAMPLES))
    if N.dim == 1:
        spacing = float(np.max(b.aux_distance(
            N_pts, N_pts[np.roll(np.arange(len(N_pts)), -1)])))
    else:
        spacing = 0.0
    batch = atlas.batch
    k, n_t, d = batch.pos.shape
    thresh = CAPTURE_RADIUS + 0.6 * spacing
    # distance to N per atlas sample, from the samples the spatial hash puts
    # within R of some N sample; the rest read +inf.  No comparison below
    # changes: values above R >= 3 * CAPTURE_RADIUS escape either way, are
    # never below thresh <= R, and never undercut a local minimum below R
    R = max(3.0 * CAPTURE_RADIUS, thresh)
    rings = int(math.ceil(R / atlas.cell))
    d_series = np.full(k * n_t, np.inf)
    for qi, cand in ring_pairs(atlas, N_pts, rings):
        gaps = b.aux_distance(batch.pos.reshape(-1, d)[cand], N_pts[qi])
        keep = gaps <= R
        np.minimum.at(d_series, cand[keep], gaps[keep])
    d_series = d_series.reshape(k, n_t)
    escaped = d_series > 3.0 * CAPTURE_RADIUS
    i0 = np.where(escaped.any(axis=1), escaped.argmax(axis=1), n_t)
    interior = d_series[:, 1:-1]
    is_min = ((interior <= d_series[:, :-2]) & (interior <= d_series[:, 2:])
              & (interior < thresh))
    J, I = np.nonzero(is_min)
    I = I + 1
    after = I > i0[J]
    J, I = J[after], I[after]            # grid order within each direction
    t, res, d_min = _polish_returns(b, N, batch, J, batch.t[I])
    ok = np.nonzero(~(d_min > CAPTURE_RADIUS) & (res <= ANGLE_TOL))[0]
    # the earliest accepted return of each direction is its loop
    ok = ok[np.unique(J[ok], return_index=True)[1]]
    per_dir: list[float | None] = [None] * k
    for c in ok:
        per_dir[J[c]] = float(t[c])
    return (0.5 * float(np.min(t[ok])) if ok.size else np.inf), per_dir


def _polish_returns(b, N, batch, J, t0):
    """Joint (s, t) polish of every capture event (path J, grid time t0) by
    three alternating rounds of golden sections, all events in lockstep;
    a point N has a fixed target, so its one golden section is final.
    Returns arrays (t, angle residual, d_min)."""
    tg, pos, vel = batch.t, batch.pos, batch.vel
    dt = batch.dt
    lo = np.maximum(t0 - 2 * dt, 0.0)
    hi = np.minimum(t0 + 2 * dt, float(tg[-1]))
    t = t0
    target = np.broadcast_to(N.point, (len(J),) + N.point.shape) \
        if N.dim == 0 else None
    for _ in range(3 if N.dim else 1):
        if N.dim == 1:
            p, _v = hermite_batch(tg, pos, vel, J, t)
            s_ret, _ = foot_points(b, N, b.wrap(p))
            target = N.curve(s_ret)

        def f(tt, idx):
            pp, _ = hermite_batch(tg, pos, vel, J[idx], tt)
            return b.aux_distance(target[idx], b.wrap(pp))

        t = golden_section(f, lo, hi, 1e-9)
    p, v = hermite_batch(tg, pos, vel, J, t)
    pw = b.wrap(p)
    if N.dim == 0:
        return t, np.zeros(len(J)), b.aux_distance(N.point, pw)
    s, d_min = foot_points(b, N, pw)
    tan = N.curve.velocity(s)
    base = N.curve(s)
    vn = v / np.maximum(b.norm(pw, v), 1e-300)[:, None]
    tn = tan / np.maximum(b.norm(base, tan), 1e-300)[:, None]
    res = np.abs(b.inner(base, vn, tn))
    return t, res, d_min


# ---------------------------------------------------------------------------
# profiles and injectivity radii
# ---------------------------------------------------------------------------

def compute_profiles(b: Backend, atlas: WavefrontAtlas, focal: np.ndarray,
                     rho: np.ndarray, method: list[str],
                     loops: list) -> list[CutProfile]:
    """One CutProfile per atlas direction, from its focal time, its cut time
    and method (cut_times) and its entry of ``loops`` (the per-direction
    result of loop_scan)."""
    batch = atlas.batch
    cut = b.wrap(hermite_batch(batch.t, batch.pos, batch.vel,
                               np.arange(len(rho)), rho)[0])
    return [CutProfile(j, f.s, f.side, float(rho[j]), cut[j], method[j],
                       float(focal[j]), loops[j])
            for j, f in enumerate(atlas.frames)]


@dataclass
class PointCloud:
    """Compact subset sample with provenance."""

    points: np.ndarray
    dir_idx: np.ndarray


def cut_locus_cloud(b: Backend, profiles: list[CutProfile]) -> PointCloud:
    """The cut points of the cut directions, each dropped when an earlier
    one lies within DEDUP_RADIUS of it."""
    pts = np.array([p.cut_point for p in profiles if not p.no_cut])
    dirs = np.array([p.dir_idx for p in profiles if not p.no_cut], dtype=int)
    if not len(pts):
        return PointCloud(np.empty((0, b.dim)), dirs)
    keep = np.ones(len(pts), dtype=bool)
    for i in range(len(pts)):
        if not keep[i]:
            continue
        d = b.aux_distance(pts[i + 1:], pts[i])
        keep[i + 1:] &= d > DEDUP_RADIUS
    return PointCloud(pts[keep], dirs[keep])


@dataclass
class SepPoint:
    point: np.ndarray
    dir_idx: list[int]
    multiplicity: int
    flag: str   # "sep", "focal", or "both"


def separating_points(b: Backend, N: SubmanifoldSpec,
                      profiles: list[CutProfile]) -> list[SepPoint]:
    """Cluster cut points (PAIR_TOL); clusters reached by >= 2 distinct
    initial frames are separating candidates, with the non-exclusive focal
    dichotomy flag."""
    prof = [p for p in profiles if not p.no_cut]
    clusters = _clusters(b, np.array([p.cut_point for p in prof]), PAIR_TOL)
    out = []
    for members in clusters:
        frames = [(prof[i].s, prof[i].side) for i in members]
        distinct = _distinct_frames(N, frames)
        focal = any(np.isfinite(prof[i].focal_t)
                    and abs(prof[i].focal_t - prof[i].rho) <= FOCAL_TOL
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


def _distinct_frames(N, frames):
    distinct = []
    for s, side in frames:
        for s2, side2 in distinct:
            if N.dim == 1 and side != side2:
                continue
            ds = abs(s - s2)
            period = 1.0 if N.dim == 1 else 2.0 * np.pi
            if min(ds % period, period - ds % period) <= FRAME_TOL:
                break
        else:
            distinct.append((s, side))
    return len(distinct)


def f_min(focal: np.ndarray) -> float:
    return float(np.min(focal)) if len(focal) else np.inf


def injectivity_radius_direct(profiles: list[CutProfile]) -> float:
    """Inf of cut times over the direction set."""
    return float(min(p.rho for p in profiles))


def injectivity_radius_char(fmin: float, l_half: float) -> tuple[float, str]:
    """min(first focal distance, half shortest loop), with branch label."""
    if not np.isfinite(fmin) and not np.isfinite(l_half):
        return np.inf, "inconclusive: increase t_max"
    value = min(fmin, l_half)
    if abs(fmin - l_half) <= TIE_TOL:
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
