"""Trajectory error metrics (APE/RPE RMSE) and map preservation/removal rates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .geometry import Pose, orthonormalize


@dataclass
class Trajectory:
    scan_indices: np.ndarray
    timestamps: np.ndarray
    poses: List[Pose]

    def __post_init__(self):
        self.scan_indices = np.asarray(self.scan_indices, dtype=int).reshape(-1)
        self.timestamps = np.asarray(self.timestamps, dtype=float).reshape(-1)
        if not (len(self.scan_indices) == len(self.timestamps) == len(self.poses)):
            raise ValueError("trajectory component lengths differ")
        if np.any(np.diff(self.scan_indices) <= 0):
            raise ValueError("scan indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.poses)

    def translations(self) -> np.ndarray:
        if not self.poses:
            return np.empty((0, 3))
        return np.stack([p.translation for p in self.poses])

    @staticmethod
    def from_poses(poses: List[Pose], dt: float = 0.1) -> "Trajectory":
        n = len(poses)
        return Trajectory(np.arange(n), np.arange(n) * dt, list(poses))


def align_rigid(src: np.ndarray, dst: np.ndarray) -> Pose:
    """Closed-form rigid transform (no scale) minimizing |R src + t - dst|^2."""
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    R = orthonormalize((dst - cd).T @ (src - cs))
    return Pose(R, cd - R @ cs)


def _check_matching(est: Trajectory, gt: Trajectory) -> None:
    if len(est) != len(gt):
        raise ValueError("trajectory length mismatch")
    if not np.array_equal(est.scan_indices, gt.scan_indices):
        raise ValueError("trajectory scan indices do not match")


def ape_rmse(est: Trajectory, gt: Trajectory) -> float:
    """RMSE of translation residuals after closed-form rigid alignment to gt."""
    _check_matching(est, gt)
    a = est.translations()
    b = gt.translations()
    T = align_rigid(a, b)
    residuals = T.apply(a) - b
    return float(np.sqrt(np.mean(np.sum(residuals ** 2, axis=1))))


def rpe_rmse(est: Trajectory, gt: Trajectory, delta: int = 1) -> float:
    """RMSE of relative-increment translation errors at a fixed scan delta."""
    _check_matching(est, gt)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if len(est) <= delta:
        raise ValueError("trajectory too short for the requested delta")
    errors = []
    for k in range(len(est) - delta):
        gt_rel = gt.poses[k].inverse().compose(gt.poses[k + delta])
        est_rel = est.poses[k].inverse().compose(est.poses[k + delta])
        E = gt_rel.inverse().compose(est_rel)
        errors.append(np.linalg.norm(E.translation))
    return float(np.sqrt(np.mean(np.square(errors))))


def max_z_drift(est: Trajectory, gt: Trajectory) -> float:
    """Largest absolute z deviation from ground truth, both anchored at the start."""
    _check_matching(est, gt)
    e0 = est.poses[0].inverse()
    g0 = gt.poses[0].inverse()
    ez = np.array([e0.compose(p).translation[2] for p in est.poses])
    gz = np.array([g0.compose(p).translation[2] for p in gt.poses])
    return float(np.max(np.abs(ez - gz)))


@dataclass
class RemovalCounts:
    """Per-point removal bookkeeping against ground-truth dynamic labels."""

    static_total: int = 0
    dynamic_total: int = 0
    static_preserved: int = 0
    dynamic_removed: int = 0

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "RemovalCounts":
        """Sum of per-scan removal provenance rows ``(scan, static_total,
        dynamic_total, static_preserved, dynamic_removed)``."""
        table = np.asarray(rows, dtype=np.int64).reshape(len(rows), 5)
        return cls(*(int(v) for v in table[:, 1:].sum(axis=0)))


@dataclass
class MapQuality:
    pr: Optional[float]  # preserved static points, percent
    rr: Optional[float]  # removed dynamic points, percent
    f1: Optional[float]  # 0-1 score


def map_pr_rr_f1(counts: RemovalCounts) -> MapQuality:
    """Preserved/removed rates (percent) and their F1 combined as a 0-1 score.

    Components with a zero denominator are reported as None (undefined).
    """
    pr = (100.0 * counts.static_preserved / counts.static_total
          if counts.static_total > 0 else None)
    rr = (100.0 * counts.dynamic_removed / counts.dynamic_total
          if counts.dynamic_total > 0 else None)
    if pr is None or rr is None:
        f1 = None
    elif pr + rr == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * pr * rr / (pr + rr) / 100.0
    return MapQuality(pr=pr, rr=rr, f1=f1)
