import math

import hypothesis
import numpy as np
import pytest

from dynlo.geometry import (PACKED_COLS, PACKED_DIAG, PACKED_ROWS,
                            DetectionBox, Pose, euler_zyx, unpack, wrap_angle)
from dynlo.simulate import Mover, RectPatch, SensorModel, SimScene

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


def random_pose(rng: np.random.Generator, trans_scale: float = 5.0) -> Pose:
    """Uniformly random rotation (QR on a Gaussian) plus Gaussian translation."""
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 2] = -Q[:, 2]
    return Pose(Q, rng.normal(scale=trans_scale, size=3))


def pack(C) -> np.ndarray:
    """(6, n) packed rows, the form ``PointCloud.covariances`` holds, of an
    (n, 3, 3) stack of symmetric matrices; :func:`unpack` inverts it."""
    C = np.asarray(C, dtype=float)
    return C.reshape(-1, 9).T[3 * PACKED_ROWS + PACKED_COLS]


def einsum_conjugation_map(R) -> np.ndarray:
    """``conjugation_map`` by its definition: K[p] holds the coefficients of
    packed entry p of C in R C R^T, the outer product of the rows of R at
    (k, l) plus that at (l, k), halved where k = l, read at the packed
    entries. The library's index form must equal it bit for bit."""
    R = np.asarray(R, dtype=float)
    a, b = R[:, PACKED_ROWS], R[:, PACKED_COLS]
    K = np.einsum("ip,jp->pij", a, b)
    K += K.transpose(0, 2, 1)  # an off-diagonal entry stands for C_kl and C_lk
    K[PACKED_DIAG] *= 0.5
    return K[:, PACKED_ROWS, PACKED_COLS]


def transform_rows(pose: Pose, rows) -> np.ndarray:
    """Box rows ``cx cy cz yaw l w h`` re-expressed under a rigid transform:
    the centres exactly, the yaw turned by the pose's yaw (its roll and pitch
    dropped, so exact for yaw-only poses)."""
    rows = np.array(rows, dtype=float).reshape(-1, 7)
    rows[:, :3] = pose.apply(rows[:, :3])
    rows[:, 3] = wrap_angle(rows[:, 3] + euler_zyx(pose.rotation)[0])
    return rows


def classification_scene(mover_speed: float, n_scans: int,
                         noise_sigma: float = 0.05,
                         dt: float = 0.1) -> SimScene:
    """Stationary ego watching a single object, moving or parked."""
    ego = [Pose.from_yaw(0.0, (0.0, 0.0, 1.6)) for _ in range(n_scans)]
    rects = [RectPatch((-20, -20, 0), (40, 0, 0), (0, 40, 0))]
    movers = [Mover(DetectionBox((8.0, -10.0, 0.8), math.pi / 2,
                                 (4.2, 1.9, 1.6)),
                    (0.0, mover_speed, 0.0))]
    sensor = SensorModel(rays_per_scan=1500, max_range=40.0,
                         noise_sigma=noise_sigma)
    return SimScene(dt=dt, ego_poses=ego, sensor=sensor, rects=rects,
                    boxes=[], movers=movers)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
