"""The per-scan odometry: preprocess, track, remove, register, constrain, map.

``Odometry.step`` runs one scan: crop + voxel filter, detection filtering,
tracker step, dynamic-point removal, covariance estimation, scan-to-scan
GICP, submap selection, scan-to-map GICP, posture consistency correction and
adaptive keyframe insertion. A registration failure falls back to the
propagated prediction; the scan's record keeps its reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .config import PipelineConfig, check_config
from .detections import DetectionFrame, filter_detections
from .geometry import PointCloud, Pose
from .ground import SlidingBoxWindow, apply_consistency_constraint, fit_ground_from_boxes
from .keyframes import KeyframeDB, compute_spaciousness
from .metrics import Trajectory
from .preprocess import crop_self_returns, estimate_point_covariances, voxel_downsample
from .removal import dynamic_point_mask, remove_dynamic_points
from .registration import gicp_align
from .tracking import Tracker


@dataclass
class ScanStats:
    """The record of one scan: its pose, tracks, counts, timers, registration."""

    scan_index: int
    pose: Pose  # after registration and the posture constraint
    tracks: np.ndarray  # the (n, 10) ``Tracker.tracks`` after this scan
    n_raw: int
    n_static: int
    # the (n, 7) rows ``cx cy cz yaw l w h`` removal used; none if disabled
    removal_boxes: np.ndarray
    preprocess_ms: float  # crop and voxel
    tracker_ms: float  # detection filter, tracker step and removal
    # covariance through keyframe insert and the track table
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
    # the ``removal_provenance`` of each labelled scan, in scan order
    provenance_rows: List[Tuple[int, int, int, int, int]]
    db: KeyframeDB


def _check_input(raw: PointCloud, frame: DetectionFrame) -> None:
    """The scan's points and box rows are finite, box dimensions positive."""
    if not np.isfinite(raw.points).all():
        raise ValueError("points: non-finite coordinate")
    boxes = frame.boxes
    if not np.isfinite(boxes).all():
        raise ValueError("boxes: non-finite box row")
    if not (boxes[:, 4:] > 0.0).all():
        raise ValueError("boxes: box dimension not positive")


class Odometry:
    """The pipeline between scans; ``step(raw, frame)`` runs one scan.

    Beside the tracker, keyframe database and box window, it holds what a
    scan hands the next: the scan-to-scan target cloud and its scan's pose,
    the last pose and motion, and each track's world z after the last scan.
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.cfg = config if config is not None else PipelineConfig()
        check_config(self.cfg)  # before the first scan is pulled
        self.tracker = Tracker(self.cfg.tracker)
        self.db = KeyframeDB()
        self.window = SlidingBoxWindow(self.cfg.constraint.window_scans)
        self.scans = 0  # scans stepped, so the next scan's index
        self.prev_cloud: Optional[PointCloud] = None
        self.cloud_pose = Pose.identity()  # pose of prev_cloud's scan
        self.prev_pose = Pose.identity()
        self.prev_rel = Pose.identity()  # motion over the last scan
        # world z of each track after the last scan, by ascending track id
        self.prev_ids, self.prev_z = np.empty(0, dtype=np.int64), np.empty(0)

    def step(self, raw: PointCloud, frame: DetectionFrame) -> ScanStats:
        """Run one scan with its detections and return the scan's record.

        Raises ValueError on a non-finite point, a non-finite box row or a
        box dimension that is not positive, before any state changes.
        """
        _check_input(raw, frame)
        cfg, k = self.cfg, self.scans
        pre = cfg.preprocess
        det, rem, kf = cfg.detections, cfg.removal, cfg.keyframes
        t_start = time.perf_counter()
        cropped = crop_self_returns(raw, pre.self_crop_half_extent)
        downsampled = voxel_downsample(cropped, pre.voxel_leaf)
        t_pre = time.perf_counter()

        frame_f = filter_detections(frame, det.min_score, det.classes)
        tracked = self.tracker.step(frame_f, cfg.dt)
        dyn_boxes = tracked.dynamic_boxes if rem.enabled else np.empty((0, 7))
        static, _removed = remove_dynamic_points(downsampled, dyn_boxes,
                                                 rem.margin)
        t_track = time.perf_counter()

        reasons: List[str] = []
        s2s_ok = True
        s2m_ok = True
        s2s_iterations = 0
        s2m_iterations = 0
        # constant velocity: one more scan of the last motion. A degenerate
        # scan coasts on it; scan-to-scan GICP starts from it
        pose = self.prev_pose.compose(self.prev_rel)
        rel = self.prev_rel
        if len(static) < pre.covariance_knn:
            cov_cloud = None
            reasons.append("degenerate:too few static points")
        else:
            cov_cloud = estimate_point_covariances(static, pre.covariance_knn,
                                                   pre.plane_epsilon)
            if self.prev_cloud is None:
                pose = Pose.identity()
                rel = Pose.identity()
            else:
                # in the frame of prev_cloud's scan, which is earlier than the
                # last one if that fell back as degenerate
                try:
                    res = gicp_align(cov_cloud, self.prev_cloud,
                                     self.cloud_pose.inverse().compose(pose),
                                     cfg.gicp)
                    pose = self.cloud_pose.compose(res.pose)
                    rel = self.prev_pose.inverse().compose(pose)
                    s2s_ok = res.converged
                    s2s_iterations = res.iterations
                except ValueError as exc:
                    s2s_ok = False
                    reasons.append(f"s2s:{exc}")
                _, submap = self.db.select_submap(pose, kf.k_nearest,
                                                  kf.l_hull, kf.j_concave,
                                                  kf.concave_alpha)
                # the same ids give the same cloud until the next insert
                if submap.tree is None:
                    submap.tree = cKDTree(submap.points, balanced_tree=False,
                                          compact_nodes=False)
                try:  # on failure the pose stays scan-to-scan's
                    res = gicp_align(cov_cloud, submap, pose, cfg.gicp,
                                     target_tree=submap.tree)
                    pose = res.pose
                    s2m_ok = res.converged
                    s2m_iterations = res.iterations
                except ValueError as exc:
                    s2m_ok = False
                    reasons.append(f"s2m:{exc}")

        if cfg.constraint.enabled:
            if k:
                self.window.advance(pose.inverse().compose(self.prev_pose))
            self.window.push(frame_f.boxes)
            normal = fit_ground_from_boxes(self.window.footprints(),
                                           cfg.constraint)
            # the tracks matched this scan, in tracker order; each was live
            # after the last scan, so prev_ids holds it
            ids, means = self.tracker.ids, self.tracker.means
            seen = np.isin(ids, tracked.matched_ids)
            dzs = (pose.apply(means[seen, :3])[:, 2]
                   - self.prev_z[np.searchsorted(self.prev_ids, ids[seen])])
            mean_dz = float(np.mean(dzs)) if dzs.size else None
            pose = apply_consistency_constraint(pose, self.prev_pose, normal,
                                                mean_dz, cfg.constraint)
            self.prev_ids, self.prev_z = ids, pose.apply(means[:, :3])[:, 2]

        inserted = False
        if cov_cloud is not None:
            self.db.spaciousness = compute_spaciousness(static,
                                                        self.db.spaciousness)
            inserted = self.db.maybe_insert(pose, cov_cloud)
            self.prev_cloud = cov_cloud
            self.cloud_pose = pose
        self.prev_rel = rel
        self.prev_pose = pose
        self.scans += 1
        tracks = self.tracker.tracks
        t_end = time.perf_counter()
        return ScanStats(
            scan_index=k,
            pose=pose,
            tracks=tracks,
            n_raw=len(raw),
            n_static=len(static),
            removal_boxes=dyn_boxes,
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
        )


def run_pipeline(scans: Iterable[PointCloud],
                 detections: Iterable[DetectionFrame],
                 config: PipelineConfig | None = None) -> PipelineResult:
    """Run ``Odometry.step`` per (scan, frame) pair, until either runs out."""
    odometry = Odometry(config)
    stats, provenance_rows = [], []
    for raw, frame in zip(scans, detections):
        try:
            stats.append(odometry.step(raw, frame))
        except ValueError as exc:
            raise ValueError(f"scan {len(stats)}: {exc}") from exc
        if raw.labels is not None:  # now, so no raw scan outlives its step
            provenance_rows.append(removal_provenance(
                raw, stats[-1], odometry.cfg.removal.margin))
    return PipelineResult(
        trajectory=Trajectory.from_poses([s.pose for s in stats],
                                         odometry.cfg.dt),
        map_cloud=odometry.db.world_map(),
        stats=stats,
        provenance_rows=provenance_rows,
        db=odometry.db,
    )


def removal_provenance(raw: PointCloud, record: ScanStats,
                       margin: float) -> Tuple[int, int, int, int, int]:
    """``(scan, static_total, dynamic_total, static_preserved,
    dynamic_removed)`` of a labelled raw scan, given its record: a point
    counts as removed if it lies in one of the record's removal boxes,
    dilated by ``margin``."""
    removed = dynamic_point_mask(raw.points, record.removal_boxes, margin)
    labels = raw.labels
    return (record.scan_index, int(np.sum(~labels)), int(np.sum(labels)),
            int(np.sum(~labels & ~removed)), int(np.sum(labels & removed)))


# the per-stage wall times of a record, in milliseconds
_TIMERS = ("preprocess_ms", "tracker_ms", "odometry_ms", "total_ms")


def stats_summary(stats: List[ScanStats]) -> dict:
    """Mean per-stage wall times in milliseconds plus fallback count."""
    summary = {name: float(np.mean([getattr(s, name) for s in stats]))
               if stats else 0.0 for name in _TIMERS}
    summary["fallbacks"] = sum(1 for s in stats if s.fallback)
    return summary


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
                     % (s.scan_index, s.n_raw, s.n_static, len(s.tracks),
                        len(s.removal_boxes), s.preprocess_ms, s.tracker_ms,
                        s.odometry_ms, s.total_ms, int(s.s2s_converged),
                        int(s.s2m_converged), int(s.fallback),
                        int(s.keyframe_inserted), s.s2s_iterations,
                        s.s2m_iterations,
                        "_".join(s.fallback_reason.split()) or "-"))
        fh.write("# mean %s fallbacks=%d\n" % (
            " ".join("%s=%.3f" % (name, summary[name]) for name in _TIMERS),
            summary["fallbacks"]))
