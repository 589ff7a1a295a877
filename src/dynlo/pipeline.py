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

from .config import PipelineConfig, check_config
from .detections import DetectionFrame, filter_detections
from .geometry import PointCloud, Pose
from .ground import SlidingBoxWindow, apply_consistency_constraint, fit_ground_from_boxes
from .keyframes import KeyframeDB, compute_spaciousness
from .metrics import RemovalCounts, Trajectory
from .preprocess import crop_self_returns, estimate_point_covariances, voxel_downsample
from .removal import dynamic_point_mask, remove_dynamic_points
from .registration import gicp_align
from .tracking import Tracker, track_table


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
    # GICP iterations of each stage; 0 where the stage did not run or raised
    s2s_iterations: int = 0
    s2m_iterations: int = 0
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
    # per labelled scan: (scan, static_total, dynamic_total, static_preserved,
    # dynamic_removed)
    provenance_rows: List[Tuple[int, int, int, int, int]]
    db: KeyframeDB
    # per scan, the (n, 10) ``track_table`` that ``format_track_rows`` prints
    track_tables: List[np.ndarray] = field(default_factory=list)

    @property
    def counts(self) -> Optional[RemovalCounts]:
        """Removal counts summed over the labelled scans; None without any."""
        return (RemovalCounts.from_rows(self.provenance_rows)
                if self.provenance_rows else None)


def run_pipeline(scans: Iterable[PointCloud],
                 detections: Iterable[DetectionFrame],
                 config: PipelineConfig | None = None) -> PipelineResult:
    cfg = config if config is not None else PipelineConfig()
    check_config(cfg)  # before the first scan is pulled
    pre = cfg.preprocess
    det, rem, kf = cfg.detections, cfg.removal, cfg.keyframes
    tracker = Tracker(cfg.tracker)
    db = KeyframeDB(cell_size=kf.cell_size)
    window = SlidingBoxWindow(cfg.constraint.window_scans)

    poses: List[Pose] = []
    stats: List[ScanStats] = []
    track_tables: List[np.ndarray] = []
    provenance_rows: List[Tuple[int, int, int, int, int]] = []

    prev_cloud: Optional[PointCloud] = None
    cloud_pose = Pose.identity()  # pose of the scan prev_cloud came from
    prev_pose = Pose.identity()
    prev_rel = Pose.identity()  # motion over the last scan
    # world z of each track after the previous scan, by ascending track id
    prev_ids, prev_z = np.empty(0, dtype=np.int64), np.empty(0)

    for k, (raw, frame) in enumerate(zip(scans, detections)):
        t_start = time.perf_counter()
        cropped = crop_self_returns(raw, pre.self_crop_half_extent)
        downsampled = voxel_downsample(cropped, pre.voxel_leaf)
        t_pre = time.perf_counter()

        frame_f = filter_detections(frame, det.min_score, det.classes)
        step = tracker.step(frame_f, cfg.dt)
        dyn_boxes = step.dynamic_boxes if rem.enabled else np.empty((0, 7))
        static, _removed = remove_dynamic_points(downsampled, dyn_boxes,
                                                 rem.margin)
        if raw.labels is not None:
            removed_raw = dynamic_point_mask(raw.points, dyn_boxes, rem.margin)
            labels = raw.labels
            provenance_rows.append((k,
                                    int(np.sum(~labels)), int(np.sum(labels)),
                                    int(np.sum(~labels & ~removed_raw)),
                                    int(np.sum(labels & removed_raw))))
        t_track = time.perf_counter()

        reasons: List[str] = []
        s2s_ok = True
        s2m_ok = True
        s2s_iterations = 0
        s2m_iterations = 0
        if len(static) < pre.covariance_knn:
            # degenerate scan: coast on the previous relative motion
            pose = prev_pose.compose(prev_rel)
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
                # constant velocity: s2s starts from one more scan of the last
                # motion, expressed in the frame of prev_cloud's scan (earlier
                # than the last one if that fell back as degenerate)
                world_init = prev_pose.compose(prev_rel)
                rel = prev_rel
                try:
                    res = gicp_align(cov_cloud, prev_cloud,
                                     cloud_pose.inverse().compose(world_init),
                                     cfg.gicp)
                    world_init = cloud_pose.compose(res.pose)
                    rel = prev_pose.inverse().compose(world_init)
                    s2s_ok = res.converged
                    s2s_iterations = res.iterations
                except ValueError as exc:
                    s2s_ok = False
                    reasons.append(f"s2s:{exc}")
                ids, submap = db.select_submap(world_init, kf.k_nearest,
                                               kf.l_hull, kf.j_concave,
                                               kf.concave_alpha)
                # the same ids give the same cloud until the next insert
                if submap.tree is None:
                    submap.tree = cKDTree(submap.points, balanced_tree=False,
                                          compact_nodes=False)
                try:
                    res = gicp_align(cov_cloud, submap, world_init, cfg.gicp,
                                     target_tree=submap.tree)
                    pose = res.pose
                    s2m_ok = res.converged
                    s2m_iterations = res.iterations
                except ValueError as exc:
                    pose = world_init
                    s2m_ok = False
                    reasons.append(f"s2m:{exc}")

        if cfg.constraint.enabled:
            if poses:
                window.advance(pose.inverse().compose(prev_pose))
            window.push(frame_f.boxes)
            ground = fit_ground_from_boxes(window.footprints(), cfg.constraint)
            # matched tracks already seen last scan, in tracker order
            ids = tracker.ids
            seen = np.isin(ids, step.matched_ids) & np.isin(ids, prev_ids)
            dzs = (pose.apply(tracker.means[seen, :3])[:, 2]
                   - prev_z[np.searchsorted(prev_ids, ids[seen])])
            mean_dz = float(np.mean(dzs)) if dzs.size else None
            pose = apply_consistency_constraint(pose, prev_pose, ground,
                                                mean_dz, cfg.constraint)
            prev_ids, prev_z = ids, pose.apply(tracker.means[:, :3])[:, 2]

        inserted = False
        if cov_cloud is not None:
            db.spaciousness = compute_spaciousness(static, db.spaciousness)
            inserted = db.maybe_insert(pose, cov_cloud)
            prev_cloud = cov_cloud
            cloud_pose = pose
        prev_rel = rel
        prev_pose = pose
        poses.append(pose)
        track_tables.append(track_table(tracker))
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
            s2s_iterations=s2s_iterations,
            s2m_iterations=s2m_iterations,
            fallback_reason=";".join(reasons),
        ))

    return PipelineResult(trajectory=Trajectory.from_poses(poses, cfg.dt),
                          map_cloud=db.world_map(),
                          stats=stats, provenance_rows=provenance_rows, db=db,
                          track_tables=track_tables)


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
                 "s2s_iterations s2m_iterations fallback_reason\n")
        for s in stats:
            # spaces in the reason become "_", so every column is one token
            fh.write("%d %d %d %d %d %.3f %.3f %.3f %.3f %d %d %d %d %d %d %s\n"
                     % (s.scan_index, s.n_raw, s.n_static, s.n_tracks,
                        s.n_dynamic_boxes, s.preprocess_ms, s.tracker_ms,
                        s.odometry_ms, s.total_ms, int(s.s2s_converged),
                        int(s.s2m_converged), int(s.fallback),
                        int(s.keyframe_inserted), s.s2s_iterations,
                        s.s2m_iterations,
                        "_".join(s.fallback_reason.split()) or "-"))
        fh.write("# mean preprocess_ms=%.3f tracker_ms=%.3f odometry_ms=%.3f "
                 "total_ms=%.3f fallbacks=%d\n" % (
                     summary["preprocess_ms"], summary["tracker_ms"],
                     summary["odometry_ms"], summary["total_ms"],
                     summary["fallbacks"]))
