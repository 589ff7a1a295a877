"""File formats: binary scans, label files, trajectories, maps, run records."""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.transform import Rotation

from .geometry import PointCloud, Pose
from .metrics import RemovalCounts, Trajectory


# --- scans -------------------------------------------------------------------

def read_scan_bin(path: str) -> PointCloud:
    """Little-endian float32 records of (x, y, z, intensity); intensity ignored.

    Raises ValueError if any point has a NaN or infinite coordinate.
    """
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 4 != 0:
        raise ValueError(f"{path}: scan file size is not a multiple of 4 floats")
    points = raw.reshape(-1, 4)[:, :3].astype(float)
    non_finite = int(np.count_nonzero(~np.isfinite(points).all(axis=1)))
    if non_finite:
        raise ValueError(f"{path}: {non_finite} non-finite points")
    return PointCloud(points)


def write_scan_bin(path: str, cloud: PointCloud,
                   intensity: Optional[np.ndarray] = None) -> None:
    n = len(cloud)
    rec = np.zeros((n, 4), dtype="<f4")
    rec[:, :3] = cloud.points.astype("<f4")
    if intensity is not None:
        rec[:, 3] = np.asarray(intensity, dtype="<f4")
    rec.tofile(path)


def list_scan_files(directory: str) -> List[str]:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".bin"))
    return [os.path.join(directory, n) for n in names]


# --- labels ------------------------------------------------------------------

def read_labels(path: str) -> np.ndarray:
    with open(path, "r") as fh:
        vals = [int(line.strip()) for line in fh if line.strip()]
    return np.array(vals, dtype=bool)


def write_labels(path: str, labels: Optional[np.ndarray]) -> None:
    if labels is None:
        labels = np.zeros(0, dtype=bool)
    with open(path, "w") as fh:
        fh.write("\n".join("1" if v else "0" for v in labels))
        if len(labels):
            fh.write("\n")


# --- trajectories ------------------------------------------------------------

def write_trajectory(path: str, traj: Trajectory) -> None:
    """``.kitti`` extension: 3x4 row-major matrix per line; anything else:
    ``timestamp tx ty tz qx qy qz qw`` per line."""
    lines = []
    if path.endswith(".kitti"):
        for pose in traj.poses:
            M = np.hstack([pose.rotation, pose.translation[:, None]])
            lines.append(" ".join("%.9f" % v for v in M.reshape(-1)))
    else:
        for ts, pose in zip(traj.timestamps, traj.poses):
            q = Rotation.from_matrix(pose.rotation).as_quat()  # x, y, z, w
            vals = [ts, *pose.translation, *q]
            lines.append(" ".join("%.9f" % v for v in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def read_trajectory(path: str) -> Trajectory:
    """Auto-detects the two trajectory formats by column count (12 vs 8)."""
    poses: List[Pose] = []
    stamps: List[float] = []
    with open(path, "r") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            vals = [float(v) for v in text.split()]
            if len(vals) == 12:
                M = np.array(vals).reshape(3, 4)
                poses.append(Pose(M[:, :3], M[:, 3]))
                stamps.append(float(len(stamps)))
            elif len(vals) == 8:
                ts, tx, ty, tz, qx, qy, qz, qw = vals
                R = Rotation.from_quat([qx, qy, qz, qw]).as_matrix()
                poses.append(Pose(R, (tx, ty, tz)))
                stamps.append(ts)
            else:
                raise ValueError(
                    f"{path}: unrecognized trajectory line with {len(vals)} columns")
    n = len(poses)
    return Trajectory(np.arange(n), np.array(stamps), poses)


# --- maps --------------------------------------------------------------------

_MAP_CHUNK = 1024  # rows per write: a larger block raises the peak memory


def write_map_ascii(path: str, cloud: PointCloud) -> None:
    """Plain point list ``x y z`` with an optional trailing label column."""
    fmt = "%.6f %.6f %.6f\n" if cloud.labels is None else "%.6f %.6f %.6f %d\n"
    with open(path, "w") as fh:
        for start in range(0, len(cloud), _MAP_CHUNK):
            rows = cloud.points[start:start + _MAP_CHUNK]
            if cloud.labels is not None:
                # the labels are bool, so "%d" of their float value is 0 or 1
                rows = np.column_stack([rows, cloud.labels[start:start + _MAP_CHUNK]])
            fh.write((fmt * len(rows)) % tuple(rows.ravel().tolist()))


# --- run records -------------------------------------------------------------

PROVENANCE_FILENAME = "removal_provenance.txt"


def write_removal_provenance(path: str,
                             rows: Sequence[Tuple[int, int, int, int, int]]) -> None:
    with open(path, "w") as fh:
        fh.write("# scan static_total dynamic_total static_preserved dynamic_removed\n")
        for row in rows:
            fh.write(" ".join(str(v) for v in row) + "\n")


def read_removal_provenance(path: str) -> RemovalCounts:
    counts = RemovalCounts()
    with open(path, "r") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            _, st, dt_, sp, dr = (int(v) for v in text.split())
            counts.static_total += st
            counts.dynamic_total += dt_
            counts.static_preserved += sp
            counts.dynamic_removed += dr
    return counts
