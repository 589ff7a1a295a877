import hypothesis
import numpy as np
import pytest

from dynlo.geometry import Pose, euler_zyx, wrap_angle

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


def transform_rows(pose: Pose, rows) -> np.ndarray:
    """Box rows ``cx cy cz yaw l w h`` re-expressed under a rigid transform:
    the centres exactly, the yaw turned by the pose's yaw (its roll and pitch
    dropped, so exact for yaw-only poses)."""
    rows = np.array(rows, dtype=float).reshape(-1, 7)
    rows[:, :3] = pose.apply(rows[:, :3])
    rows[:, 3] = wrap_angle(rows[:, 3] + euler_zyx(pose.rotation)[0])
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
