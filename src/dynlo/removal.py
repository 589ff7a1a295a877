"""Dynamic-point removal: delete returns inside boxes of tracks flagged dynamic."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .geometry import PointCloud

_CHUNK_PAIRS = 1 << 16  # (point, box) pairs per prefilter chunk


@dataclass
class RemovalParams:
    enabled: bool = field(default=True, metadata={"bound": None})
    margin: float = field(default=0.1, metadata={"bound": None})


def _rot_z_stack(yaws: np.ndarray) -> np.ndarray:
    """``rot_z`` of each yaw as one (n, 3, 3) array, equal to it bit for bit:
    the same ``math`` cosines and sines, and the same signed zeros."""
    yaws = yaws.tolist()
    cos = np.array([math.cos(yaw) for yaw in yaws])
    sin = np.array([math.sin(yaw) for yaw in yaws])
    rots = np.zeros((len(yaws), 3, 3))
    rots[:, 0, 0] = cos
    rots[:, 0, 1] = -sin
    rots[:, 1, 0] = sin
    rots[:, 1, 1] = cos
    rots[:, 2, 2] = 1.0
    return rots


def dynamic_point_mask(points: np.ndarray, boxes: np.ndarray,
                       margin: float) -> np.ndarray:
    """True where a point lies inside any box row ``cx cy cz yaw l w h`` (dilated
    by margin): a conservative circumscribed-sphere prefilter of all (point,
    box) pairs at once, then ``point_in_box``'s exact test, same arithmetic."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 7)
    removed = np.zeros(pts.shape[0], dtype=bool)
    if not len(boxes) or not len(pts):
        return removed
    centers = boxes[:, :3]
    half = boxes[:, 4:] / 2.0 + margin
    rots = _rot_z_stack(boxes[:, 3])
    # |p - c|^2 <= r^2 as |p|^2 - 2 p.c <= r^2 - |c|^2, one GEMM per chunk; the
    # slack exceeds the expansion's rounding, so no accepted pair is dropped
    p2 = np.einsum("ij,ij->i", pts, pts)
    c2 = np.einsum("ij,ij->i", centers, centers)
    bound = (np.sum(half ** 2, axis=1) * (1.0 + 1e-9) - c2
             + 1e-12 * (p2.max() + c2.max()))
    step = max(1, _CHUNK_PAIRS // len(boxes))
    for start in range(0, len(pts), step):
        lhs = pts[start:start + step] @ (-2.0 * centers.T)
        lhs += p2[start:start + step, None]
        pi, bi = np.divmod(np.flatnonzero(lhs <= bound), len(boxes))
        pi += start
        local = ((pts[pi] - centers[bi])[:, None, :] @ rots[bi])[:, 0]
        removed[pi[np.all(np.abs(local) <= half[bi], axis=1)]] = True
    return removed


def remove_dynamic_points(cloud: PointCloud, dynamic_boxes: np.ndarray,
                          margin: float) -> Tuple[PointCloud, np.ndarray]:
    """Split a cloud into survivors and the ascending indices of removed points."""
    removed = dynamic_point_mask(cloud.points, dynamic_boxes, margin)
    return cloud.subset(~removed), np.flatnonzero(removed)
