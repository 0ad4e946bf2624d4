"""Spans and call counters around cutlab's public functions, installed from
outside the package.

A ``Tracer`` replaces module-level names that callers resolve at call time
(``cutlab.stability.loop_scan``, ``cutlab.cutanalysis.distance``, ...) and
methods of the backend classes with timing wrappers, and restores them on
``uninstall``.  Stage-level calls become spans (name, start, end, parent,
run id) kept in memory; hot per-call boundaries are aggregated as a count
plus summed time.  Nothing inside ``src/`` is changed.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

_perf = time.perf_counter

# callers of geometry.aux_distance that get their own counter; the innermost
# enclosing one wins, everything else counts as "other"
AUX_CALLERS = ("loop_scan", "distance", "separating_points", "eikonal")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index into Tracer.spans
    run: int


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval covered by its
    child spans (children may overlap each other; the union is removed)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _n_points(pts) -> int:
    shape = np.shape(pts)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Collects spans and hot-call tallies for one traced command."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.tally: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._caller = "other"
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, caller=None, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, args,
        kwargs, result)`` derives work counts from the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open:      # a child shares its root's run id
                parent = self._open[-1]
                run = self.spans[parent].run
            else:               # a root span starts the next run
                parent = None
                run = sum(s.parent is None for s in self.spans)
            idx = len(self.spans)
            self.spans.append(Span(name, _perf(), 0.0, parent, run))
            self._open.append(idx)
            prev = self._caller
            if caller is not None:
                self._caller = caller
            try:
                result = fn(*args, **kwargs)
            finally:
                self._caller = prev
                self._open.pop()
                self.spans[idx].end = _perf()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def hot(self, name, fn, caller=None, before=None):
        """Wrap ``fn`` so calls only add to a count and a summed time;
        ``before(tracer, args, kwargs)`` tallies work from the arguments."""
        rec = self.calls[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            prev = self._caller
            if caller is not None:
                self._caller = caller
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[1] += _perf() - t0
                rec[0] += 1
                self._caller = prev
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced boundary; returns self for ``with``."""
        from cutlab import cli, config, cutanalysis, geodesics, geometry, \
            stability, submanifold, wavefront

        # stage-level spans; a name bound in several modules gets one wrapper
        # per binding so every caller is seen
        spans = [
            ("config.parse", [(cli, "parse_config"),
                              (cli, "load_scenario")], None, None),
            ("config.build", [(config, "build_backend"),
                              (config, "build_submanifold")], None, None),
            ("stability.run_case", [(cli, "run_case"),
                                    (stability, "run_case")], None, None),
            ("stability.sweep", [(cli, "sweep_metric_family"),
                                 (cli, "sweep_embedding_family")], None, None),
            ("wavefront.build_atlas", [(stability, "build_atlas")], None,
             _after_atlas),
            ("geodesics.integrate_batch", [(wavefront, "integrate_batch"),
                                           (geodesics, "integrate_batch")],
             None, _after_integrate),
            ("cutanalysis.loop_scan", [(stability, "loop_scan")], "loop_scan",
             _after_loop_scan),
            ("cutanalysis.compute_profiles", [(stability, "compute_profiles")],
             None, _after_profiles),
            ("cutanalysis.focal_times_batch",
             [(cutanalysis, "focal_times_batch")], None, None),
            ("cutanalysis.separating_points",
             [(stability, "separating_points")], "separating_points",
             _after_separating),
            ("stability.hausdorff_report", [(stability, "hausdorff_report")],
             None, _after_hausdorff),
            ("wavefront.eikonal_residual", [(cli, "eikonal_residual")],
             "eikonal", _after_eikonal),
        ]
        for name, targets, caller, after in spans:
            for owner, attr in targets:
                self._patch(owner, attr, self.span(
                    name, owner.__dict__[attr], caller, after))

        hot = [
            ("wavefront.distance", [(cutanalysis, "distance"),
                                    (wavefront, "distance")], "distance", None),
            ("submanifold.foot_point", [(submanifold, "foot_point")], None,
             None),
            ("geodesics.hermite_sample", [(geodesics, "hermite_sample")], None,
             None),
            ("geometry.gamma2", [(geometry.PeriodicChart, "gamma2"),
                                 (geometry.ImplicitSurface, "gamma2")], None,
             _before_gamma2),
            ("geometry.metric", [(geometry.PeriodicChart, "metric")], None,
             _before_metric),
        ]
        for name, targets, caller, before in hot:
            for owner, attr in targets:
                self._patch(owner, attr, self.hot(
                    name, owner.__dict__[attr], caller, before))
        # cut_time also counts the distance queries it makes
        self._patch(cutanalysis, "cut_time",
                    self._counting(cutanalysis.cut_time))
        for cls in (geometry.PeriodicChart, geometry.ImplicitSurface):
            self._patch(cls, "aux_distance",
                        self._aux(cls.__dict__["aux_distance"]))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _counting(self, fn):
        inner = self.hot("cutanalysis.cut_time", fn)
        queries = self.calls["wavefront.distance"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n0, s0 = queries
            try:
                return inner(*args, **kwargs)
            finally:
                self.tally["cutanalysis.cut_time.queries"] += queries[0] - n0
                self.tally["cutanalysis.cut_time.query_s"] += queries[1] - s0
        return wrapper

    def _aux(self, fn):
        rec = self.calls["geometry.aux_distance"]
        by_caller = {c: self.calls["geometry.aux_distance.in_" + c]
                     for c in AUX_CALLERS + ("other",)}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                rec[0] += 1
                rec[1] += dt
                part = by_caller[self._caller]
                part[0] += 1
                part[1] += dt
        return wrapper

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "self_s": self_times(self.spans),
                "calls": {k: {"count": v[0], "s": v[1]}
                          for k, v in sorted(self.calls.items())},
                "tally": dict(sorted(self.tally.items())),
                "maxima": dict(sorted(self.maxima.items()))}


# -- work counts derived at the boundaries ----------------------------------

def _after_atlas(tr, args, kwargs, atlas):
    arrays = [atlas.sample_pos, atlas.sample_t, atlas.sample_dir,
              atlas.sample_lam, atlas.sample_vel, atlas.sample_gap,
              atlas.order, atlas.starts, atlas.batch.t, atlas.batch.pos,
              atlas.batch.vel, atlas.batch.drift]
    tr.maxima["wavefront.atlas.samples"] = max(
        tr.maxima["wavefront.atlas.samples"], float(atlas.sample_t.size))
    tr.maxima["wavefront.atlas.bytes"] = max(
        tr.maxima["wavefront.atlas.bytes"],
        float(sum(np.asarray(a).nbytes for a in arrays)))


def _after_integrate(tr, args, kwargs, batch):
    k, n = batch.pos.shape[:2]
    tr.tally["geodesics.path_steps"] += k * (n - 1)
    if k:
        tr.maxima["geodesics.max_speed_drift"] = max(
            tr.maxima["geodesics.max_speed_drift"], float(np.max(batch.drift)))


def _after_loop_scan(tr, args, kwargs, result):
    _, per_dir = result
    tr.tally["cutanalysis.loop_scan.directions"] += len(per_dir)
    tr.tally["cutanalysis.loop_scan.loops"] += sum(
        r is not None for r in per_dir)


def _after_profiles(tr, args, kwargs, profiles):
    for p in profiles:
        tr.tally["cutanalysis.cut_method." + p.flags.get("method", "none")] += 1
        if p.flags.get("focal_clipped"):
            tr.tally["cutanalysis.focal_clipped"] += 1


def _after_separating(tr, args, kwargs, result):
    profiles = args[2] if len(args) > 2 else kwargs["profiles"]
    n = sum(not p.no_cut for p in profiles)
    tr.tally["cutanalysis.separating_points.pairs"] += n * (n - 1) // 2


def _after_hausdorff(tr, args, kwargs, result):
    A, B = args[0], args[1]
    tr.tally["stability.hausdorff.pairs"] += len(A.points) * len(B.points)


def _after_eikonal(tr, args, kwargs, result):
    tr.tally["wavefront.eikonal.points"] += result["count"] + result["dropped"]
    tr.tally["wavefront.eikonal.dropped"] += result["dropped"]


def _before_gamma2(tr, args, kwargs):
    tr.tally["geometry.gamma2.points"] += _n_points(args[1])


def _before_metric(tr, args, kwargs):
    check = kwargs.get("check", args[2] if len(args) > 2 else True)
    if check:
        tr.tally["geometry.metric.points"] += _n_points(args[1])


# -- per-layer metrics --------------------------------------------------------

# (name, unit) of every metric a traced run reports, in report order
PER_LAYER = [
    ("stability.run_case.count", "count"), ("stability.run_case.s", "s"),
    ("config.parse_s", "s"), ("cli.write_s", "s"),
    ("wavefront.build_atlas.s", "s"), ("wavefront.build_atlas.self_s", "s"),
    ("wavefront.atlas.samples", "count"), ("wavefront.atlas.bytes", "B"),
    ("geodesics.integrate_batch.count", "count"),
    ("geodesics.integrate_batch.s", "s"),
    ("geodesics.path_steps", "count"), ("geodesics.max_speed_drift", "1"),
    ("geometry.gamma2.count", "count"), ("geometry.gamma2.points", "count"),
    ("geometry.gamma2.s", "s"), ("geometry.metric.points", "count"),
    ("cutanalysis.loop_scan.s", "s"), ("cutanalysis.loop_scan.share", "1"),
    ("cutanalysis.loop_scan.hit_ratio", "1"),
    ("submanifold.foot_point.count", "count"),
    ("submanifold.foot_point.s", "s"),
    ("geodesics.hermite_sample.count", "count"),
    ("geodesics.hermite_sample.s", "s"),
    ("cutanalysis.focal_times_batch.s", "s"),
    ("cutanalysis.cut_time.count", "count"), ("cutanalysis.cut_time.s", "s"),
    ("cutanalysis.cut_time.queries_per_call", "count"),
    ("wavefront.distance.count", "count"), ("wavefront.distance.s", "s"),
    ("wavefront.distance.us_per_call", "us"),
    ("wavefront.distance_cut_time.share", "1"),
    ("cutanalysis.cut_method.kink", "count"),
    ("cutanalysis.cut_method.edge", "count"),
    ("cutanalysis.cut_method.none", "count"),
    ("cutanalysis.focal_clipped", "count"),
    ("cutanalysis.separating_points.s", "s"),
    ("cutanalysis.separating_points.pairs", "count"),
    ("stability.hausdorff_report.s", "s"),
    ("stability.hausdorff.pairs", "count"),
    ("wavefront.eikonal_residual.s", "s"),
    ("wavefront.eikonal.points", "count"),
    ("wavefront.eikonal.dropped", "count"), ("eikonal_miss_frac", "1"),
    ("geometry.aux_distance.count", "count"),
    ("geometry.aux_distance.in_loop_scan", "count"),
    ("geometry.aux_distance.in_distance", "count"),
    ("geometry.aux_distance.in_separating_points", "count"),
    ("geometry.aux_distance.in_eikonal", "count"),
    ("geometry.aux_distance.in_other", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "1"),
    ("trace.spans", "count"),
]


def layer_metrics(dump: dict, traced_wall: float, untraced_wall: float,
                  eikonal_miss_frac: float) -> dict[str, float]:
    """Per-layer values from one ``Tracer.dump()``; shares are of the traced
    command's wall time."""
    span_s: dict[str, float] = defaultdict(float)
    span_n: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, own in zip(dump["spans"], dump["self_s"]):
        span_s[s["name"]] += s["end"] - s["start"]
        span_n[s["name"]] += 1
        self_s[s["name"]] += own
    calls, tally, maxima = dump["calls"], dump["tally"], dump["maxima"]

    def n(name):
        return calls.get(name, {}).get("count", 0)

    def sec(name):
        return calls.get(name, {}).get("s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    dist_outside_cut = sec("wavefront.distance") - tally.get(
        "cutanalysis.cut_time.query_s", 0.0)
    v = {
        "stability.run_case.count": span_n["stability.run_case"],
        "stability.run_case.s": span_s["stability.run_case"],
        "config.parse_s": self_s["config.parse"] + self_s["config.build"],
        "cli.write_s": self_s["cli.main"],
        "wavefront.build_atlas.s": span_s["wavefront.build_atlas"],
        "wavefront.build_atlas.self_s": self_s["wavefront.build_atlas"],
        "geodesics.integrate_batch.count":
            span_n["geodesics.integrate_batch"],
        "geodesics.integrate_batch.s": span_s["geodesics.integrate_batch"],
        "cutanalysis.loop_scan.s": span_s["cutanalysis.loop_scan"],
        "cutanalysis.loop_scan.share":
            ratio(span_s["cutanalysis.loop_scan"], traced_wall),
        "cutanalysis.loop_scan.hit_ratio":
            ratio(tally.get("cutanalysis.loop_scan.loops", 0),
                  tally.get("cutanalysis.loop_scan.directions", 0)),
        "cutanalysis.focal_times_batch.s":
            span_s["cutanalysis.focal_times_batch"],
        "cutanalysis.cut_time.queries_per_call":
            ratio(tally.get("cutanalysis.cut_time.queries", 0),
                  n("cutanalysis.cut_time")),
        "wavefront.distance.us_per_call":
            1e6 * ratio(sec("wavefront.distance"), n("wavefront.distance")),
        "wavefront.distance_cut_time.share":
            ratio(sec("cutanalysis.cut_time") + dist_outside_cut,
                  traced_wall),
        "cutanalysis.separating_points.s":
            span_s["cutanalysis.separating_points"],
        "stability.hausdorff_report.s": span_s["stability.hausdorff_report"],
        "wavefront.eikonal_residual.s": span_s["wavefront.eikonal_residual"],
        "eikonal_miss_frac": eikonal_miss_frac,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": ratio(traced_wall - untraced_wall,
                                     untraced_wall),
        "trace.spans": len(dump["spans"]),
    }
    for name in ("wavefront.distance", "cutanalysis.cut_time",
                 "submanifold.foot_point", "geodesics.hermite_sample",
                 "geometry.gamma2"):
        v[name + ".count"] = n(name)
        v[name + ".s"] = sec(name)
    v["geometry.aux_distance.count"] = n("geometry.aux_distance")
    for c in AUX_CALLERS + ("other",):
        v["geometry.aux_distance.in_" + c] = n("geometry.aux_distance.in_" + c)
    for name, unit in PER_LAYER:
        if name not in v:
            v[name] = tally.get(name, maxima.get(name, 0))
    return {name: float(v[name]) for name, _ in PER_LAYER}
