"""UKF-based 3D multi-object tracking with nearest-neighbor association.

Track state is [x, y, z, yaw, v, l, w, h] in the current sensor/body frame:
a constant-velocity model along the heading, with speed v the only
unobserved component. Objects whose estimated |v| exceeds the dynamic speed
threshold are flagged dynamic; everything else is treated as semi-static.
Sigma points serve only the nonlinear motion model: the observation selects
state rows, a linear map the unscented transform gets exact, so the
correction is a plain Kalman update. The tracker filters its stacked tracks
at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from .detections import DetectionFrame
from .geometry import wrap_angle

STATE_DIM = 8
# observation keeps [x, y, z, yaw, l, w, h] and drops v
_OBS_IDX = np.array([0, 1, 2, 3, 5, 6, 7])
# sigma-point spread and prior (Wan & van der Merwe, 2000): the sigma spread
# n + lambda = _ALPHA^2 (n + _KAPPA) is 8e-6 for the 8-dim state
_ALPHA, _BETA, _KAPPA = 1e-3, 2.0, 0.0


def _default_process_noise() -> np.ndarray:
    # per-second rates: position/yaw walk mildly, speed dominates, dims nearly fixed
    return np.diag([0.01, 0.01, 0.01, 0.01, 0.25, 1e-4, 1e-4, 1e-4])


def _default_measurement_noise() -> np.ndarray:
    return np.diag([0.04, 0.04, 0.04, 0.01, 0.01, 0.01, 0.01])


@dataclass
class UkfParams:
    process_noise: np.ndarray = field(default_factory=_default_process_noise,
                                      metadata={"bound": ">= 0"})
    measurement_noise: np.ndarray = field(
        default_factory=_default_measurement_noise, metadata={"bound": ">= 0"})
    initial_velocity_variance: float = field(default=100.0,
                                             metadata={"bound": "> 0"})
    dynamic_speed_threshold: float = field(default=1.0,
                                           metadata={"bound": ">= 0"})
    gate_distance: float = field(default=2.0, metadata={"bound": "> 0"})
    age_max: int = field(default=3, metadata={"bound": ">= 0"})


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _per_row_retry(fn: Callable, a: np.ndarray, b: np.ndarray, message: str):
    """``fn(a, b)`` on stacks (T, n, n) and (T, ...). If LAPACK rejects the
    stack, its rows are redone one by one, and a rejected row once more on
    ``a + 1e-9 I`` before ValueError(message)."""
    try:
        return fn(a, b)
    except np.linalg.LinAlgError:
        if a.ndim == 3:
            return np.stack([_per_row_retry(fn, ai, bi, message)
                             for ai, bi in zip(a, b)])
    try:
        return fn(a + 1e-9 * np.eye(len(a)), b)
    except np.linalg.LinAlgError:
        raise ValueError(message) from None


def sigma_points(mean, cov):
    """Scaled symmetric sigma sets (..., 2n+1, n) of means (..., n) and
    covariances (..., n, n), by one batched Cholesky, plus the weights."""
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    n = mean.shape[-1]
    lam = _ALPHA ** 2 * (n + _KAPPA) - n
    scale = n + lam
    L = _per_row_retry(lambda c, _: np.linalg.cholesky(scale * c), cov, cov,
                       "covariance not decomposable")
    pts = np.empty(mean.shape[:-1] + (2 * n + 1, n))
    pts[..., 0, :] = mean
    pts[..., 1:n + 1, :] = mean[..., None, :] + _swap(L)
    pts[..., n + 1:, :] = mean[..., None, :] - _swap(L)
    wm = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    wm[0] = lam / scale
    wc = wm.copy()
    wc[0] += 1.0 - _ALPHA ** 2 + _BETA
    return pts, wm, wc


def motion_model(state, dt: float):
    """Constant velocity along the heading, with the yaw left unwrapped.

    Sigma points must stay on a continuous branch of the angle around their
    mean: wrapping individual points near +-pi tears the set apart and
    corrupts the reconstructed covariance. The predicted mean's yaw is
    wrapped once, after the sums.
    """
    s = np.array(state, dtype=float, copy=True)
    th = s[..., 3]
    v = s[..., 4]
    s[..., 0] = s[..., 0] + v * np.cos(th) * dt
    s[..., 1] = s[..., 1] + v * np.sin(th) * dt
    return s


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return (P + _swap(P)) / 2.0


def _predict(means, covs, dt: float, params: UkfParams):
    """Propagate stacked means (T, 8) and covariances (T, 8, 8) by ``dt``
    through the unscented transform of the motion model."""
    pts, wm, _ = sigma_points(means, covs)
    prop = motion_model(pts, dt)
    # sums about the centre point y0 (e_i = y_i - y0, so e_0 = 0): the
    # ~-1e6 centre weights drop out, and mean = y0 + mu, mu = w sum e_i
    e = prop[:, 1:] - prop[:, :1]
    mu = wm[1] * e.sum(axis=1)
    mean = prop[:, 0] + mu
    cov = (wm[1] * (_swap(e) @ e) + (_BETA - _ALPHA ** 2)
           * mu[:, :, None] * mu[:, None, :])
    mean[:, 3] = wrap_angle(mean[:, 3])
    return mean, _symmetrize(cov + params.process_noise * dt)


def _correct(means, covs, obs, params: UkfParams):
    """Kalman correction of stacked tracks by one observation (T, 7) each."""
    # the observation Jacobian selects rows and columns _OBS_IDX
    yhat, pxy = means[:, _OBS_IDX], covs[:, :, _OBS_IDX]
    pyy = pxy[:, _OBS_IDX, :] + params.measurement_noise
    innov = obs - yhat
    # yaw innovations fold into (-pi/2, pi/2]: boxes are front/back symmetric
    r = wrap_angle(innov[:, 3])
    innov[:, 3] = np.where(r > np.pi / 2.0, r - np.pi,
                           np.where(r <= -np.pi / 2.0, r + np.pi, r))
    gain = _swap(_per_row_retry(
        lambda p, x: np.linalg.solve(_swap(p), _swap(x)), pyy, pxy,
        "innovation covariance singular"))
    if not np.all(np.isfinite(gain)):
        raise ValueError("innovation covariance singular")
    new_mean = means + (gain @ innov[:, :, None])[:, :, 0]
    new_mean[:, 3] = wrap_angle(new_mean[:, 3])
    new_mean[:, 5:8] = np.maximum(new_mean[:, 5:8], 1e-6)
    return new_mean, _symmetrize(covs - gain @ pyy @ _swap(gain))


def associate_nn(track_pos: np.ndarray, track_ids: np.ndarray,
                 det_pos: np.ndarray, gate: float
                 ) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Greedy globally-nearest assignment on 3D center distance.

    Centres ``track_pos`` (T, 3) and ``det_pos`` (D, 3); the pairs within the
    gate are taken in order of (distance, ``track_ids``, detection index), and
    a pair is accepted iff both sides are still free. Returns (matches,
    unmatched_tracks, unmatched_dets) as indices into the inputs.
    """
    dists = np.linalg.norm(np.reshape(track_pos, (-1, 1, 3))
                           - np.reshape(det_pos, (1, -1, 3)), axis=2)
    ti, di = np.nonzero(dists <= gate)
    order = np.lexsort((di, np.asarray(track_ids)[ti], dists[ti, di]))
    matches: List[Tuple[int, int]] = []
    free_t, free_d = np.ones(dists.shape[0], bool), np.ones(dists.shape[1], bool)
    for t, d in zip(ti[order].tolist(), di[order].tolist()):
        if free_t[t] and free_d[d]:
            matches.append((t, d))
            free_t[t] = free_d[d] = False
    return (matches, np.flatnonzero(free_t).tolist(),
            np.flatnonzero(free_d).tolist())


@dataclass
class TrackerStep:
    dynamic_boxes: np.ndarray  # rows ``cx cy cz yaw l w h`` of dynamic tracks
    matched_ids: List[int]


_ROW_FIELDS = ("means", "covariances", "ids", "ages", "dynamic")


class Tracker:
    """Track lifecycle on stacked state: predict, associate, update, spawn, prune.

    Row i of each array in ``_ROW_FIELDS`` is one track; ``ages`` counts scans
    since its last update. Rows are appended with growing ids, so ``ids``
    ascends. ``tracks`` stacks the rows into the track table.
    """

    def __init__(self, params: UkfParams | None = None):
        self.params = params if params is not None else UkfParams()
        self.next_id = 0
        for name, rows in zip(_ROW_FIELDS, self._new_rows(np.empty((0, 7)))):
            setattr(self, name, rows)

    @property
    def tracks(self) -> np.ndarray:
        """Rows ``track_id dynamic x y z yaw v l w h``, one per track: (n, 10)."""
        return np.column_stack([self.ids, self.dynamic, self.means])

    def predict(self, dt: float) -> None:
        self.means, self.covariances = _predict(
            self.means, self.covariances, dt, self.params)
        self.ages += 1

    def update(self, rows, boxes: np.ndarray) -> None:
        """Correct the tracks in ``rows`` with one box row (observation) each."""
        self.means[rows], self.covariances[rows] = _correct(
            self.means[rows], self.covariances[rows], boxes, self.params)
        self.ages[rows] = 0
        self.dynamic[rows] = (np.abs(self.means[rows, 4])
                              > self.params.dynamic_speed_threshold)

    def _new_rows(self, boxes: np.ndarray) -> tuple:
        """The ``_ROW_FIELDS`` arrays of new tracks, one per box row."""
        n, p = len(boxes), self.params
        cov = np.zeros((STATE_DIM, STATE_DIM))
        cov[np.ix_(_OBS_IDX, _OBS_IDX)] = p.measurement_noise
        cov[4, 4] = p.initial_velocity_variance
        means = np.zeros((n, STATE_DIM))
        means[:, _OBS_IDX] = boxes
        return (means, np.tile(cov, (n, 1, 1)),
                np.arange(self.next_id, self.next_id + n),
                np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))

    def step(self, frame: DetectionFrame, dt: float) -> TrackerStep:
        self.predict(dt)
        matches, _, unmatched_d = associate_nn(
            self.means[:, :3], self.ids, frame.boxes[:, :3],
            self.params.gate_distance)
        rows, dets = np.array(matches, dtype=np.int64).reshape(-1, 2).T
        self.update(rows, frame.boxes[dets])
        matched_ids = sorted(self.ids[rows].tolist())
        # prune stale tracks, then append one per unmatched detection
        keep = self.ages <= self.params.age_max
        new = self._new_rows(frame.boxes[unmatched_d])
        for name, added in zip(_ROW_FIELDS, new):
            setattr(self, name, np.concatenate([getattr(self, name)[keep], added]))
        self.next_id += len(unmatched_d)
        return TrackerStep(dynamic_boxes=self.means[self.dynamic][:, _OBS_IDX],
                           matched_ids=matched_ids)


def format_track_rows(table: np.ndarray) -> List[str]:
    """Dump rows ``track_id dynamic x y z yaw v l w h`` of ``Tracker.tracks``."""
    return ["%d %d %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f" % tuple(row)
            for row in table]
