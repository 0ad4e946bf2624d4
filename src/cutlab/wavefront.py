"""Global distance to N via dense normal-geodesic wavefronts, with a
spatial index, conservative error bounds, and eikonal-residual validation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesics import BatchPaths, integrate_batch
from .geometry import Backend, ImplicitSurface, PeriodicChart
from .submanifold import NormalFrame, SubmanifoldSpec, frames_for

class CoverageError(Exception):
    """Query outside the t_max coverage of the atlas."""


@dataclass
class DistanceResult:
    d: float
    err: float
    dir_idx: int
    t: float


@dataclass
class WavefrontAtlas:
    """All normal geodesics of N up to t_max, flattened and spatially hashed."""

    backend: Backend
    N: SubmanifoldSpec
    frames: list[NormalFrame]
    batch: BatchPaths
    dt: float
    t_max: float
    certificate: float          # max gap between adjacent wavefront samples
    err: float                  # typical-scale bound: median gap * sqrt(lam_max) + dt
    # flattened sample arrays, ordered by (direction, t)
    sample_pos: np.ndarray      # wrapped positions
    sample_t: np.ndarray
    sample_dir: np.ndarray
    sample_lam: np.ndarray      # sqrt of max metric eigenvalue at the sample
    sample_vel: np.ndarray      # velocity at the sample (front direction)
    sample_gap: np.ndarray      # local gap to adjacent-direction samples
    median_gap: float
    # CSR spatial hash
    cell: float
    grid_shape: tuple
    origin: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    @property
    def m(self) -> int:
        return len(self.frames)

    def path_point(self, dir_idx: int, t: float):
        """Hermite-interpolated point and velocity of geodesic dir_idx at t."""
        return self.batch.sample_at(dir_idx, t)


def build_atlas(b: Backend, N: SubmanifoldSpec, m: int, t_max: float,
                dt: float, threads: int = 1) -> WavefrontAtlas:
    """Integrate all normal directions (m per side for a curve, m circle
    directions for a point) and index the samples for distance queries.

    ``threads`` is accepted for compatibility and ignored: the directions
    integrate as one batch, whose RK4 step loop holds the interpreter lock.
    """
    if m < 16:
        raise ValueError("need m >= 16 directions")
    frames = frames_for(b, N, m)
    p0 = np.stack([f.base for f in frames])
    v0 = np.stack([f.n for f in frames])
    # unit-speed start residual check
    speeds = b.norm(p0, v0)
    if np.max(np.abs(speeds - 1.0)) > 1e-10:
        raise ValueError("normal frames are not g-unit")
    batch = integrate_batch(b, p0, v0, t_max, dt)
    local_gap = _local_gaps(b, N, batch, m)
    cert = max(float(np.max(local_gap)), dt)
    med_gap = max(float(np.median(local_gap)), dt)
    wrapped = b.wrap(batch.pos.reshape(-1, batch.pos.shape[-1]))
    k, n_t = batch.pos.shape[0], batch.pos.shape[1]
    sample_t = np.broadcast_to(batch.t, (k, n_t)).reshape(-1)
    sample_dir = np.repeat(np.arange(k), n_t)
    sample_lam = b.lam_sqrt_max(wrapped)
    err = med_gap * float(np.max(sample_lam)) + dt
    cell = max(3.0 * med_gap, 5.0 * dt, 1e-6)
    origin, grid_shape, ids = _bucket_ids(b, wrapped, cell)
    order = np.argsort(ids, kind="stable")
    nb = int(np.prod(grid_shape))
    starts = np.zeros(nb + 1, dtype=np.int64)
    np.add.at(starts[1:], ids, 1)
    starts = np.cumsum(starts)
    sample_vel = batch.vel.reshape(-1, batch.pos.shape[-1])
    return WavefrontAtlas(b, N, frames, batch, dt, t_max, cert, err,
                          wrapped, sample_t, sample_dir, sample_lam,
                          sample_vel, local_gap.reshape(-1), med_gap,
                          cell, grid_shape, origin, order, starts)


def _local_gaps(b, N, batch: BatchPaths, m: int) -> np.ndarray:
    """Per-sample auxiliary gap to the adjacent-direction samples at the same
    time (max of the two cyclic neighbours within a side block), floored by
    the step size.  Shape (k, n_t)."""
    pos = batch.pos
    k = pos.shape[0]
    blocks = [np.arange(k)] if N.dim == 0 else [np.arange(m), m + np.arange(m)]
    out = np.empty(pos.shape[:2])
    for blk in blocks:
        p = pos[blk]
        nxt = b.aux_distance(p, p[np.roll(np.arange(len(blk)), -1)])
        prv = np.roll(nxt, 1, axis=0)
        out[blk] = np.maximum(nxt, prv)
    return np.maximum(out, batch.dt)


def _bucket_ids(b, pos, cell):
    if isinstance(b, PeriodicChart):
        L = np.array(b.periods)
        shape = tuple(int(max(1, np.floor(Li / cell))) for Li in L)
        cells = L / np.array(shape)
        ij = np.floor(pos / cells).astype(np.int64)
        ij = np.minimum(ij, np.array(shape) - 1)
        origin = np.zeros(2)
        ids = ij[:, 0] * shape[1] + ij[:, 1]
        return origin, shape, ids
    lo = np.min(pos, axis=0) - 1e-9
    hi = np.max(pos, axis=0) + 1e-9
    shape = tuple(int(np.floor((h - l) / cell)) + 1 for l, h in zip(lo, hi))
    ij = np.floor((pos - lo) / cell).astype(np.int64)
    ids = (ij[:, 0] * shape[1] + ij[:, 1]) * shape[2] + ij[:, 2]
    return lo, shape, ids


def _candidates(atlas: WavefrontAtlas, q: np.ndarray, rings: int = 1):
    b = atlas.backend
    shape = atlas.grid_shape
    if isinstance(b, PeriodicChart):
        L = np.array(b.periods)
        cells = L / np.array(shape)
        ij = np.floor(np.mod(q, L) / cells).astype(np.int64)
        ij = np.minimum(ij, np.array(shape) - 1)
        offs = range(-rings, rings + 1)
        cids = sorted({((ij[0] + di) % shape[0]) * shape[1]
                       + (ij[1] + dj) % shape[1]
                       for di in offs for dj in offs})
        idxs = []
        for cid in cids:
            lo, hi = atlas.starts[cid], atlas.starts[cid + 1]
            if hi > lo:
                idxs.append(atlas.order[lo:hi])
        return np.concatenate(idxs) if idxs else np.empty(0, dtype=np.int64)
    ij = np.floor((q - atlas.origin) / atlas.cell).astype(np.int64)
    offs = range(-rings, rings + 1)
    idxs = []
    for di in offs:
        for dj in offs:
            for dk in offs:
                ci, cj, ck = ij[0] + di, ij[1] + dj, ij[2] + dk
                if not (0 <= ci < shape[0] and 0 <= cj < shape[1]
                        and 0 <= ck < shape[2]):
                    continue
                cid = (ci * shape[1] + cj) * shape[2] + ck
                lo, hi = atlas.starts[cid], atlas.starts[cid + 1]
                if hi > lo:
                    idxs.append(atlas.order[lo:hi])
    return np.concatenate(idxs) if idxs else np.empty(0, dtype=np.int64)


def distance(atlas: WavefrontAtlas, q) -> DistanceResult:
    """d(N, q) = min over atlas samples of (t + g-bounded gap correction).

    Ties resolve to the smallest direction index, then smallest t (the
    flattened samples are ordered that way and argmin takes the first hit).
    """
    q = np.asarray(q, dtype=float)
    cand = np.empty(0, dtype=np.int64)
    for rings in (1, 2, 4, 8, 16):
        cand = _candidates(atlas, q, rings)
        if not cand.size:
            continue
        gaps = atlas.backend.aux_distance(atlas.sample_pos[cand], q)
        # the gap correction is only trustworthy at the local sample spacing:
        # for a far sample the auxiliary gap understates the metric gap and
        # t + gap stops being a distance bound
        cap = np.maximum(1.5 * atlas.sample_gap[cand], 3.0 * atlas.dt)
        near = gaps <= cap
        if np.any(near):
            cand, gaps = cand[near], gaps[near]
            break
    else:
        raise CoverageError("no trustworthy atlas sample near query; "
                            "increase m or t_max")
    order = np.argsort(cand, kind="stable")  # (dir, t) deterministic ties
    cand, gaps = cand[order], gaps[order]
    b = atlas.backend
    pos_c = atlas.sample_pos[cand]
    vel_c = atlas.sample_vel[cand]
    # first-order model d(q) = t_i + <v_i, q - x_i>_g: the transversal part
    # of the gap contributes only at second order; the absolute value folds
    # the two sides of a geodesic leaving N back to one distance
    if isinstance(b, PeriodicChart):
        delta = b.aux_gap(pos_c, q)
    else:
        delta = b.tangent_project(pos_c, q - pos_c)
    vals = np.abs(atlas.sample_t[cand] + b.inner(pos_c, vel_c, delta))
    i = int(np.argmin(vals))
    d = float(vals[i])
    if d >= atlas.t_max - max(5.0 * atlas.dt, 2.0 * atlas.median_gap):
        raise CoverageError(f"distance {d:.4g} at coverage edge "
                            f"t_max={atlas.t_max}; increase t_max")
    err = float(gaps[i] * atlas.sample_lam[cand[i]]) ** 2 + atlas.dt
    return DistanceResult(d, err, int(atlas.sample_dir[cand[i]]),
                          float(atlas.sample_t[cand[i]]))


# ---------------------------------------------------------------------------
# eikonal validation
# ---------------------------------------------------------------------------

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


def eikonal_residual(atlas: WavefrontAtlas, grid_spacing: float,
                     exclusion_radius: float | None = None,
                     cut_points: np.ndarray | None = None) -> dict:
    """Distribution of | ||grad u||_g - 1 | on a grid, excluding tubes around
    N and around the supplied cut-locus cloud where u is not differentiable."""
    b = atlas.backend
    if exclusion_radius is None:
        exclusion_radius = max(2.0 * grid_spacing, 2.0 * atlas.err)
    grid = validation_grid(b, grid_spacing)
    N_pts = atlas.N.sample_points()
    keep = np.ones(len(grid), dtype=bool)
    for blockers in ([N_pts] if cut_points is None else [N_pts, cut_points]):
        if not len(blockers):
            continue
        for i, q in enumerate(grid):
            if keep[i] and float(np.min(b.aux_distance(blockers, q))) < exclusion_radius:
                keep[i] = False
    h = 0.5 * grid_spacing
    residuals = []
    dropped = 0
    for q in grid[keep]:
        try:
            grad_norm = _grad_norm(atlas, q, h)
        except CoverageError:
            dropped += 1
            continue
        residuals.append(abs(grad_norm - 1.0))
    residuals = np.array(residuals)
    return {
        "count": int(residuals.size),
        "dropped": int(dropped),
        "excluded": int(np.count_nonzero(~keep)),
        "frac_below_1e2": float(np.mean(residuals < 1e-2)) if residuals.size else 0.0,
        "median": float(np.median(residuals)) if residuals.size else float("nan"),
        "max": float(np.max(residuals)) if residuals.size else float("nan"),
        "residuals": residuals,
    }


def _grad_norm(atlas: WavefrontAtlas, q: np.ndarray, h: float) -> float:
    b = atlas.backend
    if isinstance(b, PeriodicChart):
        du = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            du[i] = (distance(atlas, q + e).d - distance(atlas, q - e).d) / (2 * h)
        g = b.metric(q[None, :])[0]
        ginv = np.linalg.inv(g)
        return float(np.sqrt(du @ ginv @ du))
    from .geometry import _tangent_frame
    n = b.unit_surface_normal(q[None, :])
    e1, e2 = _tangent_frame(n)
    du = np.empty(2)
    for i, e in enumerate((e1[0], e2[0])):
        qp = b.project(q + h * e)
        qm = b.project(q - h * e)
        step = 0.5 * float(np.linalg.norm(qp - qm))
        du[i] = (distance(atlas, qp).d - distance(atlas, qm).d) / (2 * step)
    return float(np.sqrt(np.sum(du ** 2)) / np.exp(b.psi(q[None, :])[0]))


# ---------------------------------------------------------------------------
# convergence of distance functions along a family
# ---------------------------------------------------------------------------

def distance_convergence_probe(family, taus, q_family, m: int, t_max: float,
                               dt: float, tol: float = 1e-2) -> dict:
    """|d_tau(N_tau, q_tau) - d_0(N_0, q_0)| along a ladder of taus.

    ``family(tau) -> (backend, N)`` and ``q_family(tau) -> point``.  The
    ladder must decrease to 0; the verdict asks the deviations to decrease
    to below tol.
    """
    b0, N0 = family(0.0)
    atlas0 = build_atlas(b0, N0, m, t_max, dt)
    d0 = distance(atlas0, q_family(0.0)).d
    rows = []
    for tau in taus:
        bt, Nt = family(tau)
        atlas = build_atlas(bt, Nt, m, t_max, dt)
        dt_val = distance(atlas, q_family(tau)).d
        rows.append({"tau": tau, "d": dt_val, "deviation": abs(dt_val - d0)})
    devs = [r["deviation"] for r in rows]
    slack = 2.0 * atlas0.err
    decreasing = all(devs[i + 1] <= devs[i] + slack for i in range(len(devs) - 1))
    return {"d0": d0, "rows": rows,
            "verdict": bool(decreasing and devs[-1] < tol)}
