"""UKF-based 3D multi-object tracking with nearest-neighbor association.

Track state is [x, y, z, yaw, v, l, w, h] in the current sensor/body frame:
a constant-velocity model along the heading, with speed v the only
unobserved component. Objects whose estimated |v| exceeds the dynamic speed
threshold are flagged dynamic; everything else is treated as semi-static.
An EKF variant of the same models is available behind the same interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from .detections import DetectionFrame
from .geometry import DetectionBox, wrap_angle

STATE_DIM = 8
OBS_DIM = 7
# observation keeps [x, y, z, yaw, l, w, h] and drops v
_OBS_IDX = np.array([0, 1, 2, 3, 5, 6, 7])


def _default_process_noise() -> np.ndarray:
    # per-second rates: position/yaw walk mildly, speed dominates, dims nearly fixed
    return np.diag([0.01, 0.01, 0.01, 0.01, 0.25, 1e-4, 1e-4, 1e-4])


def _default_measurement_noise() -> np.ndarray:
    return np.diag([0.04, 0.04, 0.04, 0.01, 0.01, 0.01, 0.01])


@dataclass
class UkfParams:
    alpha: float = 1e-3
    beta: float = 2.0
    kappa: float = 0.0
    process_noise: np.ndarray = field(default_factory=_default_process_noise)
    measurement_noise: np.ndarray = field(default_factory=_default_measurement_noise)
    initial_velocity_variance: float = 100.0
    dynamic_speed_threshold: float = 1.0
    gate_distance: float = 2.0
    age_max: int = 3


@dataclass
class TrackState:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.covariance = np.asarray(self.covariance, dtype=float)


@dataclass
class Track:
    id: int
    state: TrackState
    age_since_update: int = 0
    hits: int = 1
    dynamic: bool = False
    cls: str = "car"


def sigma_points(mean, cov, params: UkfParams):
    """Scaled symmetric sigma set: 2n+1 points plus mean/covariance weights."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    lam = params.alpha ** 2 * (n + params.kappa) - n
    scale = n + lam
    try:
        L = np.linalg.cholesky(scale * cov)
    except np.linalg.LinAlgError:
        try:
            L = np.linalg.cholesky(scale * (cov + 1e-9 * np.eye(n)))
        except np.linalg.LinAlgError:
            raise ValueError("covariance not decomposable") from None
    pts = np.empty((2 * n + 1, n))
    pts[0] = mean
    pts[1:n + 1] = mean + L.T
    pts[n + 1:] = mean - L.T
    wm = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    wm[0] = lam / scale
    wc = wm.copy()
    wc[0] += 1.0 - params.alpha ** 2 + params.beta
    return pts, wm, wc


def _motion_model_raw(state, dt: float):
    """Constant-velocity propagation with the yaw coordinate left unwrapped.

    Sigma points must stay on a continuous branch of the angle around their
    mean: wrapping individual points near +-pi tears the set apart and
    corrupts the reconstructed covariance.
    """
    s = np.array(state, dtype=float, copy=True)
    th = s[..., 3]
    v = s[..., 4]
    s[..., 0] = s[..., 0] + v * np.cos(th) * dt
    s[..., 1] = s[..., 1] + v * np.sin(th) * dt
    return s


def motion_model(state, dt: float):
    """Constant velocity along the heading; yaw renormalized into (-pi, pi]."""
    s = _motion_model_raw(state, dt)
    s[..., 3] = wrap_angle(s[..., 3])
    return s


def observation_model(state):
    """Project a state onto the observed components [x, y, z, yaw, l, w, h]."""
    return np.asarray(state, dtype=float)[..., _OBS_IDX]


def _wrap_yaw_residual(r: float) -> float:
    """Wrap a yaw innovation into (-pi/2, pi/2]: boxes are front/back symmetric."""
    r = wrap_angle(r)
    if r > math.pi / 2.0:
        r -= math.pi
    elif r <= -math.pi / 2.0:
        r += math.pi
    return r


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


def _detection_observation(det: DetectionBox) -> np.ndarray:
    return np.array([det.center[0], det.center[1], det.center[2],
                     det.yaw, det.dims[0], det.dims[1], det.dims[2]])


def ukf_predict(track: Track, dt: float, params: UkfParams) -> Track:
    pts, wm, wc = sigma_points(track.state.mean, track.state.covariance, params)
    prop = _motion_model_raw(pts, dt)
    mean = wm @ prop
    diff = prop - mean
    cov = np.einsum("i,ij,ik->jk", wc, diff, diff) + params.process_noise * dt
    mean[3] = wrap_angle(mean[3])
    return replace(track, state=TrackState(mean, _symmetrize(cov)),
                   age_since_update=track.age_since_update + 1)


def ukf_update(track: Track, detection: DetectionBox, params: UkfParams) -> Track:
    mean, cov = track.state.mean, track.state.covariance
    pts, wm, wc = sigma_points(mean, cov, params)
    ys = observation_model(pts)
    yhat = wm @ ys
    dy = ys - yhat
    dx = pts - mean
    pyy = np.einsum("i,ij,ik->jk", wc, dy, dy) + params.measurement_noise
    pxy = np.einsum("i,ij,ik->jk", wc, dx, dy)
    return _correct(track, detection, yhat, pxy, pyy, params)


def _correct(track: Track, detection: DetectionBox, yhat: np.ndarray,
             pxy: np.ndarray, pyy: np.ndarray, params: UkfParams) -> Track:
    """Kalman correction of both filters from the predicted observation, the
    state-observation and innovation covariances; reclassifies by speed."""
    mean, cov = track.state.mean, track.state.covariance
    innov = _detection_observation(detection) - yhat
    innov[3] = _wrap_yaw_residual(innov[3])
    gain = _kalman_gain(pxy, pyy)
    new_mean = mean + gain @ innov
    new_mean[3] = wrap_angle(new_mean[3])
    new_mean[5:8] = np.maximum(new_mean[5:8], 1e-6)
    new_cov = _symmetrize(cov - gain @ pyy @ gain.T)
    dynamic = abs(new_mean[4]) > params.dynamic_speed_threshold
    return replace(track, state=TrackState(new_mean, new_cov),
                   age_since_update=0, hits=track.hits + 1,
                   dynamic=dynamic, cls=detection.cls)


def _kalman_gain(pxy: np.ndarray, pyy: np.ndarray) -> np.ndarray:
    try:
        gain = np.linalg.solve(pyy.T, pxy.T).T
    except np.linalg.LinAlgError:
        try:
            jittered = pyy + 1e-9 * np.eye(pyy.shape[0])
            gain = np.linalg.solve(jittered.T, pxy.T).T
        except np.linalg.LinAlgError:
            raise ValueError("innovation covariance singular") from None
    if not np.all(np.isfinite(gain)):
        raise ValueError("innovation covariance singular")
    return gain


def _motion_jacobian(state: np.ndarray, dt: float) -> np.ndarray:
    x, y, z, th, v = state[:5]
    F = np.eye(STATE_DIM)
    F[0, 3] = -v * math.sin(th) * dt
    F[0, 4] = math.cos(th) * dt
    F[1, 3] = v * math.cos(th) * dt
    F[1, 4] = math.sin(th) * dt
    return F


_OBS_JACOBIAN = np.zeros((OBS_DIM, STATE_DIM))
_OBS_JACOBIAN[np.arange(OBS_DIM), _OBS_IDX] = 1.0


def ekf_predict(track: Track, dt: float, params: UkfParams) -> Track:
    mean, cov = track.state.mean, track.state.covariance
    F = _motion_jacobian(mean, dt)
    new_mean = motion_model(mean, dt)
    new_cov = _symmetrize(F @ cov @ F.T + params.process_noise * dt)
    return replace(track, state=TrackState(new_mean, new_cov),
                   age_since_update=track.age_since_update + 1)


def ekf_update(track: Track, detection: DetectionBox, params: UkfParams) -> Track:
    mean, cov = track.state.mean, track.state.covariance
    H = _OBS_JACOBIAN
    pyy = H @ cov @ H.T + params.measurement_noise
    pxy = cov @ H.T
    return _correct(track, detection, observation_model(mean), pxy, pyy,
                    params)


def associate_nn(tracks: Sequence[Track], detections: Sequence[DetectionBox],
                 gate: float) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Greedy globally-nearest assignment on 3D center distance.

    All (track, detection) pairs are sorted by (distance, track id, detection
    index); a pair is accepted iff both sides are still free and the distance
    is within the gate. Returns (matches, unmatched_tracks, unmatched_dets)
    as indices into the input sequences.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    track_pos = np.stack([t.state.mean[:3] for t in tracks])
    det_pos = np.stack([np.asarray(d.center) for d in detections])
    dists = np.linalg.norm(track_pos[:, None, :] - det_pos[None, :, :], axis=2)
    pairs = sorted(
        (float(dists[ti, di]), tracks[ti].id, di, ti)
        for ti in range(len(tracks)) for di in range(len(detections)))
    matches: List[Tuple[int, int]] = []
    used_t = set()
    used_d = set()
    for dist, _tid, di, ti in pairs:
        if dist > gate:
            break
        if ti in used_t or di in used_d:
            continue
        matches.append((ti, di))
        used_t.add(ti)
        used_d.add(di)
    unmatched_t = [i for i in range(len(tracks)) if i not in used_t]
    unmatched_d = [i for i in range(len(detections)) if i not in used_d]
    return matches, unmatched_t, unmatched_d


def track_box(track: Track) -> DetectionBox:
    """Oriented box from the current state geometry."""
    m = track.state.mean
    return DetectionBox(center=m[:3].copy(), yaw=m[3], dims=m[5:8].copy(),
                        cls=track.cls, score=1.0)


def _spawn_track(det: DetectionBox, tid: int, params: UkfParams) -> Track:
    mean = np.array([det.center[0], det.center[1], det.center[2], det.yaw,
                     0.0, det.dims[0], det.dims[1], det.dims[2]])
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov[np.ix_(_OBS_IDX, _OBS_IDX)] = params.measurement_noise
    cov[4, 4] = params.initial_velocity_variance
    return Track(id=tid, state=TrackState(mean, cov), age_since_update=0,
                 hits=1, dynamic=False, cls=det.cls)


@dataclass
class TrackerStep:
    dynamic_boxes: List[DetectionBox]
    matched_ids: List[int]


class Tracker:
    """Single-threaded track lifecycle: predict, associate, update, spawn, prune."""

    def __init__(self, params: UkfParams | None = None, kind: str = "ukf"):
        if kind not in ("ukf", "ekf"):
            raise ValueError(f"unknown tracker kind '{kind}'")
        self.params = params if params is not None else UkfParams()
        self.kind = kind
        self.tracks: List[Track] = []
        self.next_id = 0

    def step(self, frame: DetectionFrame, dt: float) -> TrackerStep:
        predict = ukf_predict if self.kind == "ukf" else ekf_predict
        update = ukf_update if self.kind == "ukf" else ekf_update
        p = self.params
        self.tracks = [predict(t, dt, p) for t in self.tracks]
        matches, _, unmatched_d = associate_nn(self.tracks, frame.boxes,
                                               p.gate_distance)
        matched_ids = []
        for ti, di in matches:
            self.tracks[ti] = update(self.tracks[ti], frame.boxes[di], p)
            matched_ids.append(self.tracks[ti].id)
        for di in unmatched_d:
            self.tracks.append(_spawn_track(frame.boxes[di], self.next_id, p))
            self.next_id += 1
        self.tracks = [t for t in self.tracks if t.age_since_update <= p.age_max]
        dynamic_boxes = [track_box(t) for t in self.tracks if t.dynamic]
        return TrackerStep(dynamic_boxes=dynamic_boxes,
                           matched_ids=sorted(matched_ids))


def track_table(tracker: Tracker) -> np.ndarray:
    """Rows ``track_id dynamic x y z yaw v l w h``, one per track: (n, 10)."""
    return np.array([(t.id, t.dynamic, *t.state.mean) for t in tracker.tracks],
                    dtype=float).reshape(-1, 2 + STATE_DIM)


def format_track_rows(table: np.ndarray) -> List[str]:
    """Dump rows ``track_id dynamic x y z yaw v l w h`` of a ``track_table``."""
    return ["%d %d %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f" % tuple(row)
            for row in table]
