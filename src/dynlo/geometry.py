"""SE(3) poses, oriented boxes, and point-cloud containers shared by every stage."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# Rotation drift beyond this triggers re-orthonormalization on compose.
_ORTHO_TOL = 1e-9
_EYE3 = np.eye(3)  # read-only: added to, never written

# Neighbour queries of at least this many rows are split over the CPUs; scipy
# starts the threads on each call. Rows per call: lane_traffic <= 1.7k,
# long_route's covariance (k = 10) and first GICP (k = 2) searches ~2.4k,
# dense_corridor's 13-19k. Median milliseconds, one thread -> two workers, on
# a 2-vCPU shared VM (k = 2 bounded at 1 m against a 17k-point scan; k = 10
# within the queried rows):
#   rows    500         1k          2k          4k          16k
#   k = 2   0.38->0.49  0.74->0.70  1.55->1.29  2.93->3.09  12.1->9.6
#   k = 10  0.61->0.70  1.34->0.95  3.04->1.90  6.21->5.13  29.4->19.4
# The split's times spread widely on a shared host; from 2k rows its 10th
# percentiles were 0.55-0.7x one thread's. 8 rows took 0.02 ms on one thread
# and 0.17 ms on two workers.
_PARALLEL_QUERY_POINTS = 2048

# CPUs this process may use, read once
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


# n symmetric 3x3 matrices pack into (6, n) upper-triangle rows
# [00, 01, 02, 11, 12, 22]: row p holds entry (PACKED_ROWS[p], PACKED_COLS[p])
PACKED_ROWS, PACKED_COLS = np.triu_indices(3)
PACKED_DIAG = np.array([0, 3, 5])  # rows of the diagonal entries
UNPACK_INDEX = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])  # row of each flat entry
# conjugation_map's K[p, q] = R[r_q, r_p] R[c_q, c_p] + R[c_q, r_p] R[r_q, c_p]
# (r, c = PACKED_ROWS, PACKED_COLS) as flat indices into R: entry q of
# R C R^T takes both C_kl and C_lk from the packed entry p of (k, l), and a
# diagonal p counts its one product twice, so its row is halved
_CONJ_I1, _CONJ_J1, _CONJ_I2, _CONJ_J2 = (
    3 * a + b[:, None] for a, b in ((PACKED_ROWS, PACKED_ROWS),
                                    (PACKED_COLS, PACKED_COLS),
                                    (PACKED_COLS, PACKED_ROWS),
                                    (PACKED_ROWS, PACKED_COLS)))
_CONJ_SCALE = np.ones((6, 1))
_CONJ_SCALE[PACKED_DIAG] = 0.5


def wrap_angle(theta):
    """Wrap angle(s) into (-pi, pi]."""
    if np.ndim(theta) == 0:
        # float % rounds as numpy's remainder does, without its call overhead
        return math.pi - (math.pi - float(theta)) % (2.0 * math.pi)
    return np.pi - (np.pi - np.asarray(theta, dtype=float)) % (2.0 * np.pi)


def skew(v) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rot_x(roll: float) -> np.ndarray:
    c, s = math.cos(roll), math.sin(roll)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(pitch: float) -> np.ndarray:
    c, s = math.cos(pitch), math.sin(pitch)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def unpack(S: np.ndarray) -> np.ndarray:
    """(n, 3, 3) matrices of (6, n) packed rows."""
    return S[UNPACK_INDEX].T.reshape(-1, 3, 3)


def conjugation_map(R: np.ndarray) -> np.ndarray:
    """The 6x6 K with packed(R C R^T) = K^T packed(C) for symmetric C."""
    f = R.ravel()
    K = f[_CONJ_I1] * f[_CONJ_J1]
    K += f[_CONJ_I2] * f[_CONJ_J2]
    K *= _CONJ_SCALE
    return K


def _rodrigues(K: np.ndarray, angle: float) -> np.ndarray:
    """:func:`so3_exp` of the axis-angle vector of skew matrix K and norm angle."""
    if angle < 1e-12:
        return _EYE3 + K + 0.5 * (K @ K)
    Kn = K / angle
    return _EYE3 + math.sin(angle) * Kn + (1.0 - math.cos(angle)) * (Kn @ Kn)


def so3_exp(omega) -> np.ndarray:
    """Rodrigues rotation for an axis-angle vector."""
    omega = np.asarray(omega, dtype=float)
    return _rodrigues(skew(omega), float(np.linalg.norm(omega)))


def se3_exp(xi) -> "Pose":
    """Exponential of a twist [v, omega]; used for right-multiplied pose increments."""
    xi = np.asarray(xi, dtype=float)
    v, omega = xi[:3], xi[3:]
    angle = float(np.linalg.norm(omega))
    K = skew(omega)
    if angle < 1e-12:
        V = _EYE3 + 0.5 * K + (K @ K) / 6.0
    else:
        V = (_EYE3
             + (1.0 - math.cos(angle)) / angle**2 * K
             + (angle - math.sin(angle)) / angle**3 * (K @ K))
    return Pose(_rodrigues(K, angle), V @ v)


def rotation_angle(R) -> float:
    """Geodesic angle of a rotation matrix."""
    c = (float(np.trace(np.asarray(R))) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def orthonormalize(R) -> np.ndarray:
    """Project a near-rotation onto SO(3) (closest rotation in Frobenius norm)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    D = np.eye(3)
    if np.linalg.det(U @ Vt) < 0.0:
        D[2, 2] = -1.0
    return U @ D @ Vt


def euler_zyx(R):
    """Decompose R = Rz(yaw) @ Ry(pitch) @ Rx(roll); returns (yaw, pitch, roll)."""
    R = np.asarray(R)
    sp = max(-1.0, min(1.0, -float(R[2, 0])))
    pitch = math.asin(sp)
    if abs(sp) < 1.0 - 1e-12:
        yaw = math.atan2(R[1, 0], R[0, 0])
        roll = math.atan2(R[2, 1], R[2, 2])
    else:  # gimbal lock: fold roll into yaw
        yaw = math.atan2(-R[0, 1], R[1, 1])
        roll = 0.0
    return yaw, pitch, roll


def from_euler_zyx(yaw: float, pitch: float, roll: float) -> np.ndarray:
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def rotation_aligning(a, b) -> np.ndarray:
    """Minimal rotation taking unit direction a onto unit direction b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    axis = np.cross(a, b)
    s = float(np.linalg.norm(axis))
    c = float(a @ b)
    if s < 1e-12:
        if c > 0.0:
            return np.eye(3)
        # antiparallel: rotate pi about any axis orthogonal to a
        pick = np.eye(3)[int(np.argmin(np.abs(a)))]
        ortho = np.cross(a, pick)
        ortho /= np.linalg.norm(ortho)
        return so3_exp(math.pi * ortho)
    return so3_exp(axis / s * math.atan2(s, c))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: x_out = rotation @ x_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation",
                           np.asarray(self.rotation, dtype=float).reshape(3, 3))
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float).reshape(3))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_yaw(yaw: float, translation=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(rot_z(yaw), translation)

    def compose(self, other: "Pose") -> "Pose":
        R = self.rotation @ other.rotation
        if np.max(np.abs(R.T @ R - _EYE3)) > _ORTHO_TOL:
            R = orthonormalize(R)
        return Pose(R, self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(Rt, -(Rt @ self.translation))

    def apply(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T


@dataclass
class PointCloud:
    """3D points with optional per-point covariances and dynamic labels.

    ``covariances`` packs one symmetric 3x3 matrix per point into (6, n)
    rows ``[00, 01, 02, 11, 12, 22]``, the form GICP reads; ``subset`` takes
    its columns and ``transformed`` conjugates them by the rotation.

    ``labels`` is a boolean array where True marks a return on a moving object.
    Only raw scans carry them: ``subset`` keeps them, ``transformed`` does not.

    ``tree`` caches a k-d tree over ``points`` (kept by
    ``estimate_point_covariances``, and by the pipeline on a cached submap).
    It assumes ``points`` is not modified in place, and ``subset`` and
    ``transformed`` return clouds without it.
    """

    points: np.ndarray
    covariances: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    tree: Optional["cKDTree"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        n = self.points.shape[0]
        if self.covariances is not None:
            self.covariances = np.asarray(self.covariances, dtype=float)
            if self.covariances.shape != (6, n):
                raise ValueError(f"covariances of shape "
                                 f"{self.covariances.shape}, expected (6, {n})")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool).reshape(-1)
            if self.labels.shape[0] != n:
                raise ValueError("labels length does not match points")

    def __len__(self) -> int:
        return self.points.shape[0]

    def subset(self, index) -> "PointCloud":
        return PointCloud(
            self.points[index],
            None if self.covariances is None else self.covariances[:, index],
            None if self.labels is None else self.labels[index],
        )

    def transformed(self, pose: Pose) -> "PointCloud":
        covs = (None if self.covariances is None
                else conjugation_map(pose.rotation).T @ self.covariances)
        return PointCloud(pose.apply(self.points), covs)


def query_neighbors(tree: "cKDTree", points: np.ndarray, k: int,
                    distance_upper_bound: float = np.inf):
    """``tree.query(points, k, distance_upper_bound)``; from
    ``_PARALLEL_QUERY_POINTS`` rows scipy splits the rows into one contiguous
    slice per CPU (``workers``). Each row is answered on its own, so the
    split does not change the result."""
    workers = _CPUS if len(points) >= _PARALLEL_QUERY_POINTS else 1
    return tree.query(points, k=k, distance_upper_bound=distance_upper_bound,
                      workers=workers)


@dataclass(frozen=True)
class DetectionBox:
    """Oriented 3D box: center, yaw about +z measured from +x, dims (l, w, h)."""

    center: np.ndarray
    yaw: float
    dims: np.ndarray
    cls: str = "car"

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "dims", np.asarray(self.dims, dtype=float).reshape(3))
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))
        values = [*self.center.tolist(), self.yaw, *self.dims.tolist()]
        if not all(map(math.isfinite, values)):
            raise ValueError("box center, yaw and dims must be finite")
        if min(values[4:]) <= 0.0:
            raise ValueError("box dims must be strictly positive")

    def __array__(self, dtype=None, copy=None):
        """Row ``cx cy cz yaw l w h``: ``np.array(boxes)`` is the (n, 7) rows."""
        return np.array([*self.center, self.yaw, *self.dims], dtype=dtype)


def point_in_box(points, box: DetectionBox, margin: float):
    """True where a point falls inside the box dilated by ``margin`` per axis."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    local = (pts - box.center) @ rot_z(box.yaw)
    half = box.dims / 2.0 + margin
    inside = np.all(np.abs(local) <= half, axis=1)
    if np.ndim(points) == 1:
        return bool(inside[0])
    return inside
