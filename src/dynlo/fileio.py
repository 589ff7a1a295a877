"""File formats: binary scans, label files, trajectories, maps, run records."""

from __future__ import annotations

import os
import re
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.transform import Rotation

from .geometry import PointCloud, Pose
from .metrics import RemovalCounts, Trajectory

_INT = re.compile(r"[+-]?[0-9]+")


def _is_int64(text: str) -> bool:
    return bool(_INT.fullmatch(text)) and -2**63 <= int(text) < 2**63


def _data_lines(path: str, comments: bool = True):
    """("<path> line <n>", fields) per non-blank line; '#' lines skipped if ``comments``."""
    with open(path, "r") as fh:
        for n, line in enumerate(fh, 1):
            fields = line.split()
            if fields and not (comments and fields[0].startswith("#")):
                yield f"{path} line {n}", fields


# --- scans -------------------------------------------------------------------

def read_scan_bin(path: str) -> PointCloud:
    """Little-endian float32 records of (x, y, z, intensity); intensity ignored.

    Raises ValueError on a partial record or a NaN or infinite coordinate.
    """
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % 16 != 0:
        raise ValueError(f"{path}: size is not a multiple of 4 floats (16 B)")
    points = raw.view("<f4").reshape(-1, 4)[:, :3].astype(float)
    non_finite = int(np.count_nonzero(~np.isfinite(points).all(axis=1)))
    if non_finite:
        raise ValueError(f"{path}: {non_finite} non-finite points")
    return PointCloud(points)


def write_scan_bin(path: str, cloud: PointCloud) -> None:
    """Records of (x, y, z, 0): :func:`read_scan_bin`'s format."""
    rec = np.zeros((len(cloud), 4), dtype="<f4")
    rec[:, :3] = cloud.points.astype("<f4")
    rec.tofile(path)


def list_scan_files(directory: str) -> List[str]:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".bin"))
    return [os.path.join(directory, n) for n in names]


# --- labels ------------------------------------------------------------------

_ZERO, _ONE, _NEWLINE = b"01\n"  # byte values of a label file


def read_labels(path: str) -> np.ndarray:
    """One int64 per non-blank line, nonzero meaning dynamic; ValueError else.

    A file of ``0\\n`` and ``1\\n`` lines only, the form :func:`write_labels`
    writes, is parsed in one pass over its bytes; any other file by
    :func:`_parse_label_lines`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) % 2 == 0:
        lines = np.frombuffer(data, dtype=np.uint8).reshape(-1, 2)
        digits = lines[:, 0]
        if (np.all(lines[:, 1] == _NEWLINE)
                and np.all((digits == _ZERO) | (digits == _ONE))):
            return digits == _ONE
    return _parse_label_lines(path)


def _parse_label_lines(path: str) -> np.ndarray:
    """:func:`read_labels` of any file: errors name the file's line."""
    with open(path, "r") as fh:
        if not fh.read().strip():  # loadtxt warns on a file without data
            return np.zeros(0, dtype=bool)
    try:
        table = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2)
        if table.shape[1] == 1:
            return table[:, 0].astype(bool)
    except ValueError:
        pass
    # loadtxt's row numbers skip blank lines, so find the line of the file
    for where, fields in _data_lines(path, comments=False):
        if not (len(fields) == 1 and _is_int64(fields[0])):
            raise ValueError(f"{where}: expected one 64-bit integer")
    raise ValueError(f"{path}: expected one 64-bit integer a line")


def write_labels(path: str, labels: Optional[np.ndarray]) -> None:
    """One ``0`` or ``1`` line per label, 1 meaning dynamic."""
    flags = np.asarray([] if labels is None else labels, dtype=bool)
    lines = np.full((len(flags), 2), _NEWLINE, dtype=np.uint8)
    lines[:, 0] = _ZERO + flags
    with open(path, "wb") as fh:
        fh.write(lines.tobytes())


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
        rotations = np.array([pose.rotation for pose in traj.poses])
        quats = Rotation.from_matrix(rotations.reshape(-1, 3, 3)).as_quat()
        for ts, pose, q in zip(traj.timestamps, traj.poses, quats):
            vals = [ts, *pose.translation, *q]  # q: x, y, z, w
            lines.append(" ".join("%.9f" % v for v in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def read_trajectory(path: str) -> Trajectory:
    """Auto-detects the two trajectory formats by column count (12 vs 8)."""
    poses: List[Pose] = []
    stamps: List[float] = []
    for where, fields in _data_lines(path):
        try:
            vals = [float(v) for v in fields]
        except ValueError:
            vals = []
        if len(vals) == 12:
            M = np.array(vals).reshape(3, 4)
            poses.append(Pose(M[:, :3], M[:, 3]))
            stamps.append(float(len(stamps)))
        elif len(vals) == 8:
            quat = np.array(vals[4:])  # qx qy qz qw
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(quat)  # as Rotation.from_quat divides by it
            if not 0.0 < norm < np.inf:
                raise ValueError(f"{where}: expected a quaternion of finite, "
                                 "nonzero norm")
            poses.append(Pose(Rotation.from_quat(quat).as_matrix(), vals[1:4]))
            stamps.append(vals[0])
        else:
            raise ValueError(f"{where}: expected 8 or 12 columns of numbers")
    return Trajectory(np.arange(len(poses)), np.array(stamps), poses)


# --- maps --------------------------------------------------------------------

_MAP_CHUNK = 1024  # rows per write: a larger block raises the peak memory


def write_map_ascii(path: str, cloud: PointCloud) -> None:
    """Plain point list, one ``x y z`` line per point."""
    with open(path, "w") as fh:
        for start in range(0, len(cloud), _MAP_CHUNK):
            rows = cloud.points[start:start + _MAP_CHUNK]
            fh.write(("%.6f %.6f %.6f\n" * len(rows)) % tuple(rows.ravel().tolist()))


# --- run records -------------------------------------------------------------

PROVENANCE_FILENAME = "removal_provenance.txt"


def write_removal_provenance(path: str,
                             rows: Sequence[Tuple[int, int, int, int, int]]) -> None:
    with open(path, "w") as fh:
        fh.write("# scan static_total dynamic_total static_preserved dynamic_removed\n")
        for row in rows:
            fh.write(" ".join(str(v) for v in row) + "\n")


def read_removal_provenance(path: str) -> RemovalCounts:
    rows = []
    for where, fields in _data_lines(path):
        if len(fields) != 5 or not all(_is_int64(v) for v in fields):
            raise ValueError(f"{where}: expected 5 64-bit integers")
        rows.append([int(v) for v in fields])
    return RemovalCounts.from_rows(rows)
