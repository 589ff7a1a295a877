"""Posture consistency from detection boxes: ground fitting and pose correction.

Detected objects are assumed to stand on a common flat ground, so box centers
dropped by half their height give ground samples. A plane fit over a sliding
window of boxes constrains roll/pitch; a small mean box-height change between
scans indicates flat terrain and constrains t_z toward the previous pose.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import Pose, euler_zyx, from_euler_zyx, rotation_aligning, wrap_angle


@dataclass
class ConstraintParams:
    enabled: bool = field(default=True, metadata={"bound": None})
    window_scans: int = field(default=10, metadata={"bound": ">= 1"})
    min_inliers: int = field(default=8, metadata={"bound": None})
    plane_inlier_distance: float = field(default=0.2, metadata={"bound": "> 0"})
    z_change_threshold: float = field(default=0.1, metadata={"bound": ">= 0"})
    blend_weight: float = field(default=0.5, metadata={"bound": "in [0, 1]"})


# footprints whose middle scatter eigenvalue is at most this share of the
# largest lie nearly on one line, which leaves the plane's tilt about that
# line unobserved
MIN_SPREAD_RATIO = 1e-3


def _fit_plane(points: np.ndarray):
    """Unit normal (z >= 0) and centroid of the least-squares plane through
    ``points``, and the ascending eigenvalues of their scatter."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    scatter = centered.T @ centered
    vals, vecs = np.linalg.eigh(scatter)
    normal = vecs[:, 0]
    if normal[2] < 0.0:
        normal = -normal
    return normal, centroid, vals


def fit_ground_from_boxes(footprints: np.ndarray,
                          params: ConstraintParams | None = None
                          ) -> Optional[np.ndarray]:
    """Unit normal (z >= 0) of the least-squares ground plane through box
    footprints; None when under-supported.

    ``footprints`` is (n, 3), one row per box (``SlidingBoxWindow.footprints``).
    Fits once, keeps points within the inlier distance, refits once on the
    inliers. Returns None if fewer than ``min_inliers`` points lie within the
    inlier distance of the refit plane, or if those points lie nearly on one
    line: their middle scatter eigenvalue is at most ``MIN_SPREAD_RATIO`` of
    the largest.
    """
    params = params if params is not None else ConstraintParams()
    pts = np.asarray(footprints, dtype=float).reshape(-1, 3)
    if pts.shape[0] < max(3, params.min_inliers):
        return None
    normal, centroid, _ = _fit_plane(pts)
    dist = np.abs((pts - centroid) @ normal)
    inliers = pts[dist <= params.plane_inlier_distance]
    if inliers.shape[0] < 3:
        return None
    normal, centroid, _ = _fit_plane(inliers)
    dist = np.abs((pts - centroid) @ normal)
    support = pts[dist <= params.plane_inlier_distance]
    if support.shape[0] < max(3, params.min_inliers):
        return None
    _, _, spread = _fit_plane(support)
    if spread[1] <= MIN_SPREAD_RATIO * spread[2]:
        return None
    return normal


def apply_consistency_constraint(pose: Pose, prev_pose: Pose,
                                 ground_normal: Optional[np.ndarray],
                                 mean_box_dz: Optional[float],
                                 params: ConstraintParams | None = None) -> Pose:
    """Blend roll/pitch toward a level ground normal and t_z toward the previous pose.

    ``ground_normal`` is the body-frame ground normal of
    ``fit_ground_from_boxes``. Yaw and t_x/t_y are never modified. With no
    ground normal and no small box-height change the input pose is returned
    unchanged.
    """
    params = params if params is not None else ConstraintParams()
    w = params.blend_weight
    rotation = pose.rotation
    translation = pose.translation
    changed = False
    if ground_normal is not None:
        world_normal = rotation @ ground_normal
        align = rotation_aligning(world_normal, np.array([0.0, 0.0, 1.0]))
        constrained = align @ rotation
        yaw_e, pitch_e, roll_e = euler_zyx(rotation)
        _, pitch_c, roll_c = euler_zyx(constrained)
        pitch_new = pitch_e + w * wrap_angle(pitch_c - pitch_e)
        roll_new = roll_e + w * wrap_angle(roll_c - roll_e)
        rotation = from_euler_zyx(yaw_e, pitch_new, roll_new)
        changed = True
    if mean_box_dz is not None and abs(mean_box_dz) < params.z_change_threshold:
        translation = translation.copy()
        translation[2] = w * prev_pose.translation[2] + (1.0 - w) * translation[2]
        changed = True
    if not changed:
        return pose
    return Pose(rotation, translation)


class SlidingBoxWindow:
    """Box centers and heights of the last N scans, in the current body frame:
    one (n, 4) array of rows ``x y z h`` per scan, all the ground fit reads."""

    def __init__(self, window_scans: int):
        self._frames: deque = deque(maxlen=window_scans)

    def advance(self, prev_to_current: Pose) -> None:
        """Carry stored box centers from the previous body frame into the current one."""
        for frame in self._frames:
            frame[:, :3] = prev_to_current.apply(frame[:, :3])

    def push(self, boxes: np.ndarray) -> None:
        """Store one scan's box rows ``cx cy cz yaw l w h`` (n, 7) as ``x y z h``."""
        self._frames.append(np.asarray(boxes, dtype=float).reshape(-1, 7)[:, [0, 1, 2, 6]])

    def footprints(self) -> np.ndarray:
        """Box centers dropped by h/2 along the current -z: (n, 3), oldest scan
        first and detection order within a scan."""
        if not self._frames:
            return np.empty((0, 3))
        rows = np.concatenate(self._frames)
        pts = rows[:, :3].copy()
        pts[:, 2] -= rows[:, 3] / 2.0
        return pts
