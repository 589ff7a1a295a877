"""Outside-in tracing of dynlo: wrap the calls the pipeline makes, record spans.

``instrumented(tracer)`` replaces, for the duration of a ``with`` block, the
public functions and methods that ``dynlo.pipeline`` calls (plus the file
readers and writers the replay calls) by wrappers that record one span per
call: name, start, end, enclosing span, and the replay and scan it belongs
to, plus the work counts of that call. The originals are put back when the
block exits, also on error. Nothing under ``src/`` changes.

``layer_metrics`` turns the spans of the traced replays into per-layer
metrics; a layer's time is the self time of its spans, that is their duration
minus the time of the spans nested in them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from dynlo import (detections, fileio, ground, keyframes, pipeline,
                   registration, tracking)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 at top level
    replay: int
    scan: int     # scan index; -1 for work outside the per-scan loop
    counts: Dict[str, int] = field(default_factory=dict)


class Tracer:
    """Spans of the wrapped calls, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.replay = -1
        self.scan = -1
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args, kwargs,
             observe: Optional[Callable]):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.replay, self.scan)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            observe(span, args, kwargs, result)
        return result

    def write(self, path: str) -> None:
        """One JSON object per line, in call order."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "replay": s.replay, "scan": s.scan,
                    "counts": s.counts}) + "\n")


# --- what is wrapped, and the counts taken at each boundary -------------------

def _file_bytes(span, args, kwargs, result):
    span.counts["bytes"] = os.path.getsize(args[0])


def _map_points(span, args, kwargs, result):
    span.counts["points"] = len(args[1])


def _boxes(span, args, kwargs, result):
    span.counts["boxes_in"] = len(args[0].boxes)
    span.counts["boxes_kept"] = len(result.boxes)


def _points_in(span, args, kwargs, result):
    span.counts["points_in"] = len(args[0])


def _points_out(span, args, kwargs, result):
    span.counts["points_out"] = len(result)


def _track_step(span, args, kwargs, result):
    span.counts["live_tracks"] = len(args[0].tracks)
    span.counts["dynamic_tracks"] = len(result.dynamic_boxes)


def _removed(span, args, kwargs, result):
    span.counts["points_removed"] = len(result[1])


def _window_boxes(span, args, kwargs, result):
    span.counts["window_boxes"] = len(args[0])


def _gicp(span, args, kwargs, result):
    # the pipeline passes a prebuilt target tree only to scan-to-map
    if kwargs.get("target_tree") is not None:
        span.name = "registration.s2m"
        span.counts["target_points"] = len(args[1])
    span.counts["iterations"] = result.iterations
    span.counts["nonconverged"] = int(not result.converged)


def _submap(span, args, kwargs, result):
    span.counts["ids"] = list(result[0])


def _inserted(span, args, kwargs, result):
    span.counts["inserted"] = int(result)


# (owner, attribute, span name, observer)
_TARGETS = (
    (fileio, "read_scan_bin", "fileio.read_scan_bin", _file_bytes),
    (fileio, "read_labels", "fileio.read_labels", _file_bytes),
    (detections, "load_detection_frame", "detections.load_detection_frame",
     _file_bytes),
    (fileio, "write_trajectory", "fileio.write_trajectory", None),
    (fileio, "write_map_ascii", "fileio.write_map_ascii", _map_points),
    (fileio, "write_removal_provenance", "fileio.write_removal_provenance",
     None),
    (pipeline, "crop_self_returns", "preprocess.crop", _points_in),
    (pipeline, "voxel_downsample", "preprocess.voxel", _points_out),
    (pipeline, "estimate_point_covariances", "preprocess.covariance", None),
    (pipeline, "filter_detections", "detections.filter", _boxes),
    (tracking.Tracker, "step", "tracking.step", _track_step),
    (pipeline, "remove_dynamic_points", "removal.remove", _removed),
    (pipeline, "dynamic_point_mask", "removal.label_mask", None),
    (pipeline, "gicp_align", "registration.s2s", _gicp),
    (pipeline, "cKDTree", "registration.kdtree", None),
    (registration, "cKDTree", "registration.kdtree", None),
    (ground.SlidingBoxWindow, "advance", "ground.window_advance", None),
    (pipeline, "fit_ground_from_boxes", "ground.fit", _window_boxes),
    (pipeline, "apply_consistency_constraint", "ground.constraint", None),
    (keyframes.KeyframeDB, "select_submap", "keyframes.select_submap",
     _submap),
    (keyframes.KeyframeDB, "maybe_insert", "keyframes.insert", _inserted),
    (pipeline, "compute_spaciousness", "keyframes.spaciousness", None),
)


def _wrapper(tracer: Tracer, name: str, fn: Callable,
             observe: Optional[Callable]) -> Callable:
    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)
    return traced


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target while the block runs; restore the originals after."""
    saved = []
    try:
        for owner, attr, name, observe in _TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics ----------------------------------------------------------

# metric name -> span names whose self time it sums, per scan
_SCAN_TIMES = {
    "fileio.read_ms": ("fileio.read_scan_bin", "fileio.read_labels",
                       "detections.load_detection_frame"),
    "preprocess.crop_ms": ("preprocess.crop",),
    "preprocess.voxel_ms": ("preprocess.voxel",),
    "preprocess.covariance_ms": ("preprocess.covariance",),
    "tracking.step_ms": ("tracking.step",),
    "removal.remove_ms": ("removal.remove",),
    "removal.label_mask_ms": ("removal.label_mask",),
    "ground.window_advance_ms": ("ground.window_advance",),
    "ground.fit_ms": ("ground.fit",),
    "ground.constraint_ms": ("ground.constraint",),
    "registration.s2s_ms": ("registration.s2s",),
    "registration.s2m_ms": ("registration.s2m",),
    "registration.kdtree_ms": ("registration.kdtree",),
    "keyframes.select_submap_ms": ("keyframes.select_submap",),
    "keyframes.insert_ms": ("keyframes.insert",),
    "keyframes.spaciousness_ms": ("keyframes.spaciousness",),
}

# metric name -> (span names, count key), summed and divided by scans
_SCAN_COUNTS = {
    "fileio.read_bytes": (_SCAN_TIMES["fileio.read_ms"], "bytes"),
    "detections.boxes_in": (("detections.filter",), "boxes_in"),
    "detections.boxes_kept": (("detections.filter",), "boxes_kept"),
    "preprocess.points_in": (("preprocess.crop",), "points_in"),
    "preprocess.points_out": (("preprocess.voxel",), "points_out"),
    "tracking.live_tracks": (("tracking.step",), "live_tracks"),
    "tracking.dynamic_tracks": (("tracking.step",), "dynamic_tracks"),
    "removal.points_removed": (("removal.remove",), "points_removed"),
    "ground.window_boxes": (("ground.fit",), "window_boxes"),
    "registration.s2s_iterations": (("registration.s2s",), "iterations"),
    "registration.s2m_iterations": (("registration.s2m",), "iterations"),
}

# metric name -> (span names, count key or None for calls), summed per replay
_REPLAY_COUNTS = {
    "fileio.map_points_written": (("fileio.write_map_ascii",), "points"),
    "registration.kdtree_builds": (("registration.kdtree",), None),
    "registration.nonconverged": (("registration.s2s", "registration.s2m"),
                                  "nonconverged"),
    "keyframes.count": (("keyframes.insert",), "inserted"),
}

# name -> unit of every metric ``layer_metrics`` returns
UNITS = {
    **{name: "ms/scan" for name in _SCAN_TIMES},
    "fileio.read_bytes": "bytes/scan",
    **{name: "count/scan" for name in _SCAN_COUNTS if name != "fileio.read_bytes"},
    "fileio.write_ms": "ms/replay",
    **{name: "count/replay" for name in _REPLAY_COUNTS},
    "registration.s2m_target_points": "points",
    "keyframes.submap_changes": "count/replay",
    "pipeline.self_ms": "ms/scan",
}


def layer_metrics(spans: List[Span], scans: int, replays: int,
                  scan_time_s: float) -> Dict[str, float]:
    """Per-layer metrics of traced replays.

    ``scans`` and ``replays`` count the traced replays' work and
    ``scan_time_s`` is the sum of their per-scan latencies; the part of it not
    inside any top-level span is the pipeline's own time.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    self_s: Dict[str, float] = {}
    totals: Dict[tuple, int] = {}
    calls: Dict[str, int] = {}
    top_level_scan_s = 0.0
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start) - child_s[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            if key != "ids":
                totals[s.name, key] = totals.get((s.name, key), 0) + value
        if s.parent < 0 and s.scan >= 0:
            top_level_scan_s += s.end - s.start

    def total(names, key):
        if key is None:
            return sum(calls.get(n, 0) for n in names)
        return sum(totals.get((n, key), 0) for n in names)

    out: Dict[str, float] = {}
    for name, names in _SCAN_TIMES.items():
        out[name] = 1e3 * sum(self_s.get(n, 0.0) for n in names) / scans
    for name, (names, key) in _SCAN_COUNTS.items():
        out[name] = total(names, key) / scans
    for name, (names, key) in _REPLAY_COUNTS.items():
        out[name] = total(names, key) / replays
    writes = [n for n in self_s if n.startswith("fileio.write_")]
    out["fileio.write_ms"] = 1e3 * sum(self_s[n] for n in writes) / replays
    s2m_calls = calls.get("registration.s2m", 0)
    out["registration.s2m_target_points"] = (
        total(("registration.s2m",), "target_points") / s2m_calls
        if s2m_calls else 0.0)
    changes = 0
    previous: Dict[int, list] = {}
    for s in spans:
        if s.name == "keyframes.select_submap" and "ids" in s.counts:
            if previous.get(s.replay) != s.counts["ids"]:
                changes += 1
            previous[s.replay] = s.counts["ids"]
    out["keyframes.submap_changes"] = changes / replays
    out["pipeline.self_ms"] = 1e3 * (scan_time_s - top_level_scan_s) / scans
    return out
