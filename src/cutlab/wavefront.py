"""Dense normal-geodesic wavefronts of N on a coarse cell grid; d(N, q) from
an index that the first query builds, with conservative error bounds; and
eikonal-residual validation from an index trimmed at the focal times."""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geodesics import BatchPaths, integrate_batch
from .geometry import Backend, row_sum, validation_grid, wrap_periodic
from .submanifold import NormalFrame, SubmanifoldSpec, frames_for

class CoverageError(Exception):
    """Query outside the t_max coverage of the atlas."""


@dataclass
class DistanceResult:
    d: float
    err: float
    dir_idx: int
    t: float


@dataclass(frozen=True)
class _Grid:
    """Uniform cell grid: periodic over a chart's periods, or a box in
    3-space whose cells past the box hold nothing."""

    origin: np.ndarray
    width: np.ndarray           # cell width per axis
    shape: tuple
    period: np.ndarray | None   # chart periods; None for a box

    @classmethod
    def over(cls, b: Backend, pos: np.ndarray, cells) -> list["_Grid"]:
        """One grid per width of ``cells``, with cells at least that wide: a
        chart's periods split into whole cells, or the box around the points
        pos of an implicit surface, which is reduced once for every width."""
        if b.periods is not None:
            L = np.array(b.periods)
            shapes = [tuple(int(max(1, np.floor(Li / cell))) for Li in L)
                      for cell in cells]
            return [cls(np.zeros(2), L / np.array(shape), shape, L)
                    for shape in shapes]
        # column by column: NumPy reduces (n, 3) along axis 0 ~7x slower
        lo = np.array([c.min() for c in pos.T]) - 1e-9
        hi = np.array([c.max() for c in pos.T]) + 1e-9
        return [cls(lo, np.full(3, cell),
                    tuple(int(np.floor((h - l) / cell)) + 1
                          for l, h in zip(lo, hi)), None)
                for cell in cells]

    def cells(self, pts, wrap: bool = True) -> np.ndarray:
        """Integer cell coordinates (n, dim); ``wrap`` reduces chart points
        modulo the periods first (atlas samples are already wrapped)."""
        if self.period is None:
            return np.floor((pts - self.origin) / self.width).astype(np.int64)
        x = wrap_periodic(pts, self.period) if wrap else pts
        ij = np.floor(x / self.width).astype(np.int64)
        return np.minimum(ij, np.array(self.shape) - 1)

    def ids(self, ij) -> np.ndarray:
        mode = "clip" if self.period is None else "wrap"
        return np.ravel_multi_index(tuple(np.moveaxis(ij, -1, 0)), self.shape,
                                    mode=mode)

    def ring(self, ij, r: int):
        """Ids of the cells within r of each row of ij, shape (n, K), and a
        mask of the cells that exist, each counted once per row."""
        c = ij[:, None, :] + _ring_offsets(ij.shape[1], r)
        ids = self.ids(c)
        if self.period is None:     # axis by axis: np.all over 3 is slower
            valid = np.ones(ids.shape, dtype=bool)
            for axis, n in enumerate(self.shape):
                valid &= (c[..., axis] >= 0) & (c[..., axis] < n)
        else:       # a ring wider than the grid meets some cells twice
            ids.sort(axis=1)
            valid = np.ones(ids.shape, dtype=bool)
            valid[:, 1:] = ids[:, 1:] != ids[:, :-1]
        return ids, valid


@functools.cache
def _ring_offsets(dim: int, r: int) -> np.ndarray:
    """Every offset in {-r, ..., r}^dim, in C order, shape (K, dim)."""
    return np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)


@dataclass(frozen=True)
class _Tier:
    """Samples bucketed on one grid: ``order[starts[c]:starts[c + 1]]`` are
    the samples of the occupied cell ``keys[c]``."""

    grid: _Grid
    keys: np.ndarray
    starts: np.ndarray

    def ranges(self, ij, r: int):
        """Query row, start and end in ``order`` of every non-empty cell
        within ring r of the cells ij."""
        ids, valid = self.grid.ring(ij, r)
        ids = np.where(valid, ids, 0)
        at = np.minimum(np.searchsorted(self.keys, ids), len(self.keys) - 1)
        valid &= self.keys.take(at) == ids
        lo, hi = self.starts.take(at), self.starts.take(at + 1)
        keep = np.flatnonzero(valid & (hi > lo))
        return keep // ids.shape[1], lo.take(keep), hi.take(keep)


def _tier(grid: _Grid, pos: np.ndarray, members: np.ndarray, base: int):
    """Sparse tier of the samples ``members`` (ascending), whose slice of
    the shared order array starts at ``base``."""
    ids = grid.ids(grid.cells(pos.take(members, axis=0), wrap=False))
    o = np.argsort(ids, kind="stable")
    keys, first = np.unique(ids.take(o), return_index=True)
    starts = base + np.append(first, len(members))
    return _Tier(grid, keys, starts), members.take(o)


@dataclass(frozen=True)
class SampleIndex:
    """Exact index of the near samples of a query within its coarse ring 1.

    A sample is near q when its gap to q is at most its cap
    max(1.5 * sample_gap, 3 * dt).  A sample whose cap is below the coarse
    cell can only be near queries in its coarse ring 1.  Such samples are
    grouped by power-of-two cap level, each level on cells at least as wide
    as its largest cap, so a near sample lies in the 3^dim cells around q
    at its level: that finds them without gathering the far samples of the
    coarse cells.  The other samples sit on the coarse grid.  Only occupied
    cells are stored; ``order`` holds the samples of every tier.  ``covel``
    is each sample's velocity lowered by the metric there, for every sample
    of the atlas: a query without a near sample widens its ring over them
    all (ring_pairs).
    """

    tiers: list
    order: np.ndarray
    covel: np.ndarray


def _sample_index(atlas: WavefrontAtlas, focal=None) -> SampleIndex:
    """The index of the samples with t <= t_f + cap, t_f the focal time of
    their direction in ``focal`` (default: none, every sample)."""
    b, pos, cell, dt = atlas.backend, atlas.sample_pos, atlas.cell, atlas.dt
    cap = _caps(atlas.sample_gap, dt)
    t_f = np.inf if focal is None else focal[atlas.sample_dir]
    live = atlas.sample_t <= t_f + cap
    # the margins absorb rounding in the cell coordinates
    is_small = cap <= cell * (1.0 - 1e-9)
    small = np.flatnonzero(live & is_small)
    level = np.ceil(np.log2(cap[small] / (3.0 * dt))).astype(np.int64)
    members = [small[level == k] for k in np.unique(level)]
    widths = [float(np.max(cap[m])) * (1.0 + 1e-9) for m in members]
    groups = [(atlas.grid, np.flatnonzero(live & ~is_small)),
              *zip(_Grid.over(b, pos, widths), members)]
    tiers, orders, base = [], [], 0
    for grid, members in groups:
        if members.size:
            tier, order = _tier(grid, pos, members, base)
            tiers.append(tier)
            orders.append(order)
            base += len(order)
    return SampleIndex(tiers, np.concatenate(orders),
                       b.lower(pos, atlas.sample_vel))


@dataclass
class WavefrontAtlas:
    """All normal geodesics of N up to t_max, flattened and bucketed on a
    coarse cell grid; the distance queries' index is built on first use."""

    backend: Backend
    N: SubmanifoldSpec
    frames: list[NormalFrame]
    batch: BatchPaths
    dt: float
    t_max: float
    err: float                  # typical-scale bound: median gap * sqrt(lam_max) + dt
    # flattened sample arrays, ordered by (direction, t)
    sample_pos: np.ndarray      # wrapped positions
    sample_t: np.ndarray
    sample_dir: np.ndarray
    sample_lam: np.ndarray      # sqrt of max metric eigenvalue at the sample
    sample_vel: np.ndarray      # velocity at the sample (front direction)
    sample_gap: np.ndarray      # local gap to adjacent-direction samples
    median_gap: float
    # every sample on the coarse grid, as the _Tier (grid, keys, starts)
    cell: float
    grid: _Grid
    order: np.ndarray
    keys: np.ndarray
    starts: np.ndarray

    @functools.cached_property
    def index(self) -> SampleIndex:
        """The ring-1 near-sample index of the distance queries."""
        return _sample_index(self)


def normal_starts(b: Backend, N: SubmanifoldSpec, m: int):
    """The frames of N's normal directions (m per side for a curve, m circle
    directions for a point) and their start states p0, v0, checked g-unit."""
    if m < 16:
        raise ValueError("need m >= 16 directions")
    frames = frames_for(b, N, m)
    p0 = np.stack([f.base for f in frames])
    v0 = np.stack([f.n for f in frames])
    # unit-speed start residual check
    speeds = b.norm(p0, v0)
    if np.max(np.abs(speeds - 1.0)) > 1e-10:
        raise ValueError("normal frames are not g-unit")
    return frames, p0, v0


def stacked_paths(b_rows: Backend, cases, t_max: float,
                  dt: float) -> list[BatchPaths]:
    """The paths of several problems from one RK4 batch: ``cases`` holds
    each problem's backend and normal_starts, and row i of the stack steps
    on b_rows with the metric of the problem it belongs to.  Every problem
    gets the paths, drift audit included, that integrating it alone gives."""
    sizes = [len(p0) for _, (_, p0, _) in cases]
    batch = integrate_batch(
        b_rows, np.concatenate([p0 for _, (_, p0, _) in cases]),
        np.concatenate([v0 for _, (_, _, v0) in cases]), t_max, dt,
        blocks=[(b, k) for (b, _), k in zip(cases, sizes)])
    return batch.split(sizes)


def build_atlas(b: Backend, N: SubmanifoldSpec, m: int, t_max: float,
                dt: float, paths=None, timings: dict | None = None
                ) -> WavefrontAtlas:
    """Integrate all normal directions as one batch and bucket the samples
    on the coarse grid.  ``paths`` are the (frames, BatchPaths) of the
    directions when they were integrated elsewhere (stacked_paths); else
    the RK4's seconds go to ``timings["rk4"]`` when timings is given.  The
    seconds after the RK4 go to ``timings["atlas"]``."""
    if paths is None:
        frames, p0, v0 = normal_starts(b, N, m)
        t0 = time.perf_counter()
        batch = integrate_batch(b, p0, v0, t_max, dt)
        if timings is not None:
            timings["rk4"] = time.perf_counter() - t0
    else:
        frames, batch = paths
    t0 = time.perf_counter()
    local_gap = _local_gaps(b, N, batch).reshape(-1)
    med_gap = max(float(np.median(local_gap)), dt)
    wrapped = b.wrap(batch.pos.reshape(-1, batch.pos.shape[-1]))
    k, n_t = batch.pos.shape[0], batch.pos.shape[1]
    sample_t = np.broadcast_to(batch.t, (k, n_t)).reshape(-1)
    sample_dir = np.repeat(np.arange(k), n_t)
    sample_lam = b.lam_sqrt_max(wrapped)
    err = med_gap * float(np.max(sample_lam)) + dt
    cell = max(3.0 * med_gap, 5.0 * dt, 1e-6)
    grid, = _Grid.over(b, wrapped, [cell])
    coarse, order = _tier(grid, wrapped, np.arange(len(wrapped)), 0)
    sample_vel = batch.vel.reshape(-1, batch.pos.shape[-1])
    if timings is not None:
        timings["atlas"] = time.perf_counter() - t0
    return WavefrontAtlas(b, N, frames, batch, dt, t_max, err,
                          wrapped, sample_t, sample_dir, sample_lam,
                          sample_vel, local_gap, med_gap,
                          cell, grid, order, coarse.keys, coarse.starts)


def _front_next(N: SubmanifoldSpec, k: int) -> np.ndarray:
    """The next vertex of each of the k directions on its side's closed
    front polygon, in s order: k / 2 per side of a curve, one for a point."""
    m = k if N.dim == 0 else k // 2
    j = np.arange(k)
    return j - j % m + (j + 1) % m


def _local_gaps(b, N, batch: BatchPaths) -> np.ndarray:
    """Per-sample auxiliary gap to the adjacent-direction samples at the same
    time (max of the two neighbours on the side's front polygon), floored by
    the step size.  Shape (k, n_t)."""
    nxt = _front_next(N, batch.n_paths)
    gap = b.aux_distance(batch.pos, batch.pos[nxt])     # to the next vertex
    return np.maximum(np.maximum(gap, gap[np.argsort(nxt)]), batch.dt)


def _caps(gap, dt):
    """Largest gap at which a sample's first-order model is trusted: for a
    far sample the auxiliary gap understates the metric gap and t + gap
    stops being a distance bound."""
    return np.maximum(1.5 * gap, 3.0 * dt)


# distance queries gather candidates for at most _CHUNK_Q queries and about
# _CHUNK_PAIRS (query, sample) pairs at a time
_CHUNK_Q = 1024
_CHUNK_PAIRS = 32768
_RING_LADDER = (2, 4, 8, 16)


def _pairs(rows, lo, hi, order):
    """(query row, sample) pairs of the order slices [lo, hi), in groups of
    whole queries with about _CHUNK_PAIRS pairs each."""
    cnt = hi - lo
    if not cnt.size:
        return
    per_row = np.bincount(rows, weights=cnt)
    group = ((np.cumsum(per_row) - per_row) // _CHUNK_PAIRS)[rows]
    for g in np.unique(group):
        sel = np.flatnonzero(group == g)
        c = cnt[sel]
        skip = np.cumsum(c) - c
        at = np.repeat(lo[sel] - skip, c) + np.arange(int(c.sum()))
        yield np.repeat(rows[sel], c), order[at]


def ring_pairs(atlas: WavefrontAtlas, Q: np.ndarray, rings: int):
    """(query row, sample) pairs of every sample in the coarse cells within
    ``rings`` of each query, over all samples; yields bounded batches."""
    full = _Tier(atlas.grid, atlas.keys, atlas.starts)
    K = (2 * rings + 1) ** Q.shape[1]
    step = max(1, min(_CHUNK_Q, (1 << 20) // K))
    for c0 in range(0, len(Q), step):
        rows, lo, hi = full.ranges(atlas.grid.cells(Q[c0:c0 + step]), rings)
        for qi, s in _pairs(rows + c0, lo, hi, atlas.order):
            yield qi, s


def _distance_rows(atlas: WavefrontAtlas, Q: np.ndarray, ix: SampleIndex):
    """distance() of every row of Q from the index ix without raising:
    arrays d, err, dir_idx, t and status (0 certified, 1 no trustworthy
    sample, 2 at the coverage edge)."""
    n = len(Q)
    pick = np.full(n, -1, dtype=np.int64)
    d = np.full(n, np.nan)
    gap = np.full(n, np.nan)
    for c0 in range(0, n, _CHUNK_Q):
        Qc = Q[c0:c0 + _CHUNK_Q]
        parts = [t.ranges(t.grid.cells(Qc), 1) for t in ix.tiers]
        rows, lo, hi = (np.concatenate(a) for a in zip(*parts))
        for qi, s in _pairs(rows + c0, lo, hi, ix.order):
            _nearest(atlas, ix.covel, *_near(atlas, Q, qi, s), pick, d, gap)
    # no near sample in ring 1: widen the ring over every sample
    pending = np.flatnonzero(pick < 0)
    for rings in _RING_LADDER:
        if not pending.size:
            break
        for qi, s in ring_pairs(atlas, Q[pending], rings):
            _nearest(atlas, ix.covel, *_near(atlas, Q, pending[qi], s),
                     pick, d, gap)
        pending = pending[pick[pending] < 0]
    found = pick >= 0
    s = pick[found]
    err = np.full(n, np.nan)
    # float_power rounds as the scalar float ** 2 does; ndarray ** 2 may not
    err[found] = np.float_power(gap[found] * atlas.sample_lam[s], 2) + atlas.dt
    dir_idx = np.full(n, -1, dtype=np.int64)
    dir_idx[found] = atlas.sample_dir[s]
    t = np.full(n, np.nan)
    t[found] = atlas.sample_t[s]
    status = np.where(found, 0, 1)
    status[found & (d >= atlas.t_max - _edge_margin(atlas))] = 2
    return d, err, dir_idx, t, status


def _near(atlas, Q, qi, s):
    """The (query row, sample) pairs whose auxiliary gap is at most the
    sample's cap, with that gap's length and vector.

    Row gathers use take and masks flatnonzero: NumPy's fancy and boolean
    indexing copy the same values several times slower."""
    cap = _caps(atlas.sample_gap.take(s), atlas.dt)
    vec = atlas.backend.aux_gap(atlas.sample_pos.take(s, axis=0),
                                Q.take(qi, axis=0))
    # the length b.aux_distance takes, on both backends, bit for bit
    gaps = np.sqrt(row_sum(vec * vec))
    i = np.flatnonzero(gaps <= cap)
    return qi.take(i), s.take(i), gaps.take(i), vec.take(i, axis=0)


def _nearest(atlas, covel, qi, s, gaps, vec, pick, d, gap):
    """Per query row, the near sample of least first-order distance; ties
    go to the smallest sample index, i.e. the smallest (dir, t).  vec holds
    each pair's auxiliary gap from the sample to the query, covel every
    sample's lowered velocity; each pair occurs once."""
    if not qi.size:
        return
    # first-order model d(q) = t_i + <v_i, q - x_i>_g: the transversal part
    # of the gap contributes only at second order; the absolute value folds
    # the two sides of a geodesic leaving N back to one distance (on a
    # surface the gap is first projected to the tangent plane at x_i)
    delta = atlas.backend.constrain_velocity(atlas.sample_pos.take(s, axis=0),
                                             vec)
    vals = np.abs(atlas.sample_t.take(s)
                  + row_sum(covel.take(s, axis=0) * delta))
    # the least value of each query, then the least sample among its hits
    row = qi - qi.min()
    low = np.full(row.max() + 1, np.inf)
    np.minimum.at(low, row, vals)
    hit = np.flatnonzero(vals == low[row])
    first = np.full(len(low), len(atlas.sample_t))
    np.minimum.at(first, row[hit], s[hit])
    hit = hit[s[hit] == first[row[hit]]]
    rows = qi[hit]
    pick[rows] = s[hit]
    d[rows] = vals[hit]
    gap[rows] = gaps[hit]


def _edge_margin(atlas: WavefrontAtlas) -> float:
    return max(5.0 * atlas.dt, 2.0 * atlas.median_gap)


def _coverage_reason(atlas: WavefrontAtlas, status: int, d: float) -> str:
    if status == 1:
        return "no trustworthy atlas sample near query; increase m or t_max"
    if 2.0 * atlas.median_gap > 5.0 * atlas.dt:
        # the margin comes from the spacing of the direction set
        return (f"distance {d:.4g} at coverage edge t_max={atlas.t_max} "
                f"less margin 2*median_gap={2.0 * atlas.median_gap:.4g}; "
                "increase m")
    return (f"distance {d:.4g} at coverage edge t_max={atlas.t_max}; "
            "increase t_max")


def distance_many(atlas: WavefrontAtlas, Q) -> DistanceResult:
    """``distance`` of every row of Q, as a DistanceResult of arrays.

    Raises the CoverageError of the first row that cannot be certified.
    """
    Q = np.asarray(Q, dtype=float).reshape(-1, atlas.sample_pos.shape[1])
    d, err, dir_idx, t, status = _distance_rows(atlas, Q, atlas.index)
    bad = np.flatnonzero(status)
    if bad.size:
        i = bad[0]
        raise CoverageError(_coverage_reason(atlas, status[i], d[i]))
    return DistanceResult(d, err, dir_idx, t)


def distance(atlas: WavefrontAtlas, q) -> DistanceResult:
    """d(N, q) = min over atlas samples of (t + g-bounded gap correction).

    Ties resolve to the smallest direction index, then smallest t (the
    flattened samples are ordered that way).
    """
    r = distance_many(atlas, q)
    return DistanceResult(float(r.d[0]), float(r.err[0]), int(r.dir_idx[0]),
                          float(r.t[0]))


# ---------------------------------------------------------------------------
# eikonal validation
# ---------------------------------------------------------------------------

class EikonalProbes(NamedTuple):
    """u's central differences at the grid points outside N's tube."""

    radius: float               # of the tubes around N and the cut locus
    excluded: int               # grid points in N's tube
    pts: np.ndarray             # the others
    du: np.ndarray              # u's difference quotients, shape (n, 2)
    ok: np.ndarray              # whether all four probes were certified


def eikonal_probes(atlas: WavefrontAtlas, grid_spacing: float,
                   focal=None) -> EikonalProbes:
    """u at q +- h e along two tangent axes e of every grid point q outside
    N's tube, h half the spacing.  The distances come from an index of the
    samples within their cap of their direction's focal time in ``focal``
    (default: none, every sample): past its cut time, which is at most its
    focal time, a geodesic no longer minimizes.  That index is built for
    these queries alone, not stored as ``atlas.index``; a row's answer does
    not depend on the other rows."""
    b = atlas.backend
    radius = max(2.0 * grid_spacing, 2.0 * atlas.err)
    grid = validation_grid(b, grid_spacing)
    keep = ~(_min_aux_distance(b, grid, atlas.N.sample_points()) < radius)
    pts = grid[keep]
    # steps is the half-width of each difference
    probes, steps = b.probe_pairs(pts, 0.5 * grid_spacing)
    d, _err, _j, _t, status = _distance_rows(
        atlas, probes.reshape(-1, probes.shape[-1]),
        _sample_index(atlas, focal))
    d = d.reshape(len(pts), 2, 2)
    # central differences (u(q + h e) - u(q - h e)) / (2 h) along each axis
    du = (d[:, :, 0] - d[:, :, 1]) / (2 * steps)
    return EikonalProbes(radius, int(np.count_nonzero(~keep)), pts, du,
                         ~np.any(status.reshape(len(pts), 4) != 0, axis=1))


def eikonal_residual(atlas: WavefrontAtlas, probes: EikonalProbes,
                     cut_points: np.ndarray | None = None) -> dict:
    """Distribution of | ||grad u||_g - 1 | over the grid points of
    ``probes`` (eikonal_probes), excluding the tubes around the supplied
    cut-locus cloud too, where u is not differentiable.  A point whose
    central-difference probes cannot all be certified is dropped."""
    b = atlas.backend
    radius, excluded, pts, du, ok = probes
    if cut_points is not None and len(cut_points):
        clear = ~(_min_aux_distance(b, pts, cut_points) < radius)
        excluded += int(np.count_nonzero(~clear))
        pts, du, ok = pts[clear], du[clear], ok[clear]
    residuals = np.abs(b.dual_norm(pts[ok], du[ok]) - 1.0)
    return {
        "count": int(residuals.size),
        "dropped": int(np.count_nonzero(~ok)),
        "excluded": excluded,
        "frac_below_1e2": float(np.mean(residuals < 1e-2)) if residuals.size else 0.0,
        "median": float(np.median(residuals)) if residuals.size else float("nan"),
        "max": float(np.max(residuals)) if residuals.size else float("nan"),
        "residuals": residuals,
    }


def _min_aux_distance(b: Backend, pts: np.ndarray,
                      others: np.ndarray) -> np.ndarray:
    """Auxiliary distance from each point to its nearest point of others,
    256 points at a time."""
    out = np.empty(len(pts))
    for i in range(0, len(pts), 256):
        q = pts[i:i + 256]
        gaps = b.aux_distance(others[None, :, :], q[:, None, :])
        out[i:i + 256] = np.min(gaps, axis=1)
    return out
