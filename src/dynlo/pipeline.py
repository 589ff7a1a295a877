"""End-to-end odometry loop: preprocess, track, remove, register, constrain, map.

Per scan: crop + voxel filter, detection filtering, tracker step, dynamic-point
removal, covariance estimation, scan-to-scan GICP, world propagation, submap
selection, scan-to-map GICP, posture consistency correction, and adaptive
keyframe insertion. A registration failure on a scan falls back to the
propagated prediction; the stats count it and keep its reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .config import PipelineConfig
from .detections import DetectionFrame, filter_detections
from .geometry import PointCloud, Pose
from .ground import SlidingBoxWindow, apply_consistency_constraint, fit_ground_from_boxes
from .keyframes import KeyframeDB, compute_spaciousness
from .metrics import RemovalCounts, Trajectory
from .preprocess import crop_self_returns, estimate_point_covariances, voxel_downsample
from .removal import dynamic_point_mask, remove_dynamic_points
from .registration import gicp_align, propagate_world
from .tracking import Tracker, format_track_rows


@dataclass
class ScanStats:
    scan_index: int
    n_raw: int
    n_static: int
    n_tracks: int
    n_dynamic_boxes: int
    preprocess_ms: float
    tracker_ms: float
    odometry_ms: float
    total_ms: float
    s2s_converged: bool = True
    s2m_converged: bool = True
    keyframe_inserted: bool = False
    # why the scan fell back, e.g. "s2m:solver diverged"; "" if it did not
    fallback_reason: str = ""

    @property
    def fallback(self) -> bool:
        return bool(self.fallback_reason)


@dataclass
class PipelineResult:
    trajectory: Trajectory
    map_cloud: PointCloud
    stats: List[ScanStats]
    counts: Optional[RemovalCounts]
    provenance_rows: List[Tuple[int, int, int, int, int]]
    db: KeyframeDB
    track_rows: List[List[str]] = field(default_factory=list)


def run_pipeline(scans: Iterable[PointCloud],
                 detections: Iterable[DetectionFrame],
                 config: PipelineConfig | None = None) -> PipelineResult:
    cfg = config if config is not None else PipelineConfig()
    pre = cfg.preprocess
    tracker = Tracker(cfg.tracker, kind=cfg.tracker_kind)
    db = KeyframeDB(cell_size=cfg.keyframe_cell_size)
    window = SlidingBoxWindow(cfg.constraint.window_scans)

    poses: List[Pose] = []
    indices: List[int] = []
    stats: List[ScanStats] = []
    track_rows: List[List[str]] = []
    provenance_rows: List[Tuple[int, int, int, int, int]] = []
    counts: Optional[RemovalCounts] = None

    prev_cloud: Optional[PointCloud] = None
    prev_pose = Pose.identity()
    prev_rel = Pose.identity()
    track_world_z: dict = {}
    submap_tree_key: Optional[tuple] = None
    submap_tree: Optional[cKDTree] = None

    for k, (raw, frame) in enumerate(zip(scans, detections)):
        t_start = time.perf_counter()
        cropped = crop_self_returns(raw, pre.self_crop_half_extent)
        downsampled = voxel_downsample(cropped, pre.voxel_leaf)
        t_pre = time.perf_counter()

        frame_f = filter_detections(frame, cfg.detection_min_score,
                                    cfg.detection_classes)
        step = tracker.step(frame_f, cfg.dt)
        dyn_boxes = step.dynamic_boxes if cfg.enable_removal else []
        static, _removed = remove_dynamic_points(downsampled, dyn_boxes,
                                                 cfg.removal_margin)
        if raw.labels is not None:
            if counts is None:
                counts = RemovalCounts()
            removed_raw = dynamic_point_mask(raw.points, dyn_boxes,
                                             cfg.removal_margin)
            labels = raw.labels
            row = (k,
                   int(np.sum(~labels)), int(np.sum(labels)),
                   int(np.sum(~labels & ~removed_raw)),
                   int(np.sum(labels & removed_raw)))
            provenance_rows.append(row)
            counts.add_scan(labels, removed_raw)
        t_track = time.perf_counter()

        reasons: List[str] = []
        s2s_ok = True
        s2m_ok = True
        if len(static) < pre.covariance_knn:
            # degenerate scan: coast on the previous relative motion
            pose = propagate_world(prev_pose, prev_rel)
            rel = prev_rel
            cov_cloud = None
            reasons.append("degenerate:too few static points")
        else:
            cov_cloud = estimate_point_covariances(static, pre.covariance_knn,
                                                   pre.plane_epsilon)
            if prev_cloud is None:
                pose = Pose.identity()
                rel = Pose.identity()
            else:
                try:
                    res = gicp_align(cov_cloud, prev_cloud, Pose.identity(),
                                     cfg.gicp)
                    rel = res.pose
                    s2s_ok = res.converged
                except ValueError as exc:
                    rel = prev_rel
                    s2s_ok = False
                    reasons.append(f"s2s:{exc}")
                world_init = propagate_world(prev_pose, rel)
                ids, submap = db.select_submap(world_init,
                                               cfg.keyframe_k_nearest,
                                               cfg.keyframe_l_hull,
                                               cfg.keyframe_j_concave,
                                               cfg.keyframe_concave_alpha)
                key = tuple(ids)
                if key != submap_tree_key:
                    submap_tree = cKDTree(submap.points)
                    submap_tree_key = key
                try:
                    res = gicp_align(cov_cloud, submap, world_init, cfg.gicp,
                                     target_tree=submap_tree)
                    pose = res.pose
                    s2m_ok = res.converged
                except ValueError as exc:
                    pose = world_init
                    s2m_ok = False
                    reasons.append(f"s2m:{exc}")

        if cfg.enable_constraint:
            if poses:
                window.advance(pose.inverse().compose(prev_pose))
            window.push(frame_f.boxes)
            ground = fit_ground_from_boxes(window.boxes(), cfg.constraint)
            dzs = []
            for track in tracker.tracks:
                if track.id in step.matched_ids and track.id in track_world_z:
                    z_now = float(pose.apply(track.state.mean[:3])[2])
                    dzs.append(z_now - track_world_z[track.id])
            mean_dz = float(np.mean(dzs)) if dzs else None
            pose = apply_consistency_constraint(pose, prev_pose, ground,
                                                mean_dz, cfg.constraint)

        track_world_z = {
            t.id: float(pose.apply(t.state.mean[:3])[2]) for t in tracker.tracks}

        inserted = False
        if cov_cloud is not None and len(cov_cloud) > 0:
            db.spaciousness = compute_spaciousness(static, db.spaciousness)
            inserted = db.maybe_insert(pose, cov_cloud)
            prev_cloud = cov_cloud
        prev_rel = rel
        prev_pose = pose
        poses.append(pose)
        indices.append(k)
        track_rows.append(format_track_rows(tracker))
        t_end = time.perf_counter()
        stats.append(ScanStats(
            scan_index=k,
            n_raw=len(raw),
            n_static=len(static),
            n_tracks=len(tracker.tracks),
            n_dynamic_boxes=len(dyn_boxes),
            preprocess_ms=(t_pre - t_start) * 1e3,
            tracker_ms=(t_track - t_pre) * 1e3,
            odometry_ms=(t_end - t_track) * 1e3,
            total_ms=(t_end - t_start) * 1e3,
            s2s_converged=s2s_ok,
            s2m_converged=s2m_ok,
            keyframe_inserted=inserted,
            fallback_reason=";".join(reasons),
        ))

    trajectory = Trajectory(np.array(indices, dtype=int),
                            np.array(indices, dtype=float) * cfg.dt, poses)
    return PipelineResult(trajectory=trajectory, map_cloud=db.world_map(),
                          stats=stats, counts=counts,
                          provenance_rows=provenance_rows, db=db,
                          track_rows=track_rows)


def stats_summary(stats: List[ScanStats]) -> dict:
    """Mean per-stage wall times in milliseconds plus fallback count."""
    if not stats:
        return {"preprocess_ms": 0.0, "tracker_ms": 0.0, "odometry_ms": 0.0,
                "total_ms": 0.0, "fallbacks": 0}
    return {
        "preprocess_ms": float(np.mean([s.preprocess_ms for s in stats])),
        "tracker_ms": float(np.mean([s.tracker_ms for s in stats])),
        "odometry_ms": float(np.mean([s.odometry_ms for s in stats])),
        "total_ms": float(np.mean([s.total_ms for s in stats])),
        "fallbacks": int(sum(1 for s in stats if s.fallback)),
    }


def write_stats_file(path: str, stats: List[ScanStats]) -> None:
    summary = stats_summary(stats)
    with open(path, "w") as fh:
        fh.write("# scan n_raw n_static n_tracks n_dynamic_boxes "
                 "preprocess_ms tracker_ms odometry_ms total_ms "
                 "s2s_converged s2m_converged fallback keyframe_inserted "
                 "fallback_reason\n")
        for s in stats:
            # spaces in the reason become "_", so every column is one token
            fh.write("%d %d %d %d %d %.3f %.3f %.3f %.3f %d %d %d %d %s\n" % (
                s.scan_index, s.n_raw, s.n_static, s.n_tracks,
                s.n_dynamic_boxes, s.preprocess_ms, s.tracker_ms,
                s.odometry_ms, s.total_ms, int(s.s2s_converged),
                int(s.s2m_converged), int(s.fallback),
                int(s.keyframe_inserted),
                "_".join(s.fallback_reason.split()) or "-"))
        fh.write("# mean preprocess_ms=%.3f tracker_ms=%.3f odometry_ms=%.3f "
                 "total_ms=%.3f fallbacks=%d\n" % (
                     summary["preprocess_ms"], summary["tracker_ms"],
                     summary["odometry_ms"], summary["total_ms"],
                     summary["fallbacks"]))
