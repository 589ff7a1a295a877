import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynlo import tracking
from dynlo.detections import DetectionFrame
from dynlo.geometry import DetectionBox, wrap_angle
from dynlo.simulate import reference_config
from dynlo.tracking import (_OBS_IDX, STATE_DIM, Tracker, UkfParams,
                            associate_nn, motion_model, sigma_points)

# one track as a record, for the single-track filter helpers and the
# per-track reference trackers below
TrackState = namedtuple("TrackState", "mean covariance")
Track = namedtuple("Track", "id state age_since_update dynamic",
                   defaults=(0, False))

# the unscented transform's spread and prior, as the reference filters
# below write them, independent of the module's constants
ALPHA, BETA, KAPPA = 1e-3, 2.0, 0.0


def random_psd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T) + 1e-6 * np.eye(n)


def make_track(mean, cov, tid=0):
    return Track(id=tid, state=TrackState(np.asarray(mean, dtype=float),
                                          np.asarray(cov, dtype=float)))


def filter_one(track, params, operate):
    """Run a stacked ``Tracker`` operation on a tracker holding only ``track``."""
    tracker = Tracker(params)
    tracker.means = np.array([track.state.mean])
    tracker.covariances = np.array([track.state.covariance])
    tracker.ids = np.array([track.id])
    tracker.ages = np.array([track.age_since_update])
    tracker.dynamic = np.array([track.dynamic])
    operate(tracker)
    return Track(int(tracker.ids[0]),
                 TrackState(tracker.means[0], tracker.covariances[0]),
                 int(tracker.ages[0]), bool(tracker.dynamic[0]))


def ukf_predict(track, dt, params):
    return filter_one(track, params, lambda t: t.predict(dt))


def ukf_update(track, detection, params):
    return filter_one(track, params,
                      lambda t: t.update([0], np.array([detection])))


def frame_of(k, boxes):
    """Scan k's ``DetectionFrame`` of these ``DetectionBox``es, scores 1."""
    return DetectionFrame(k, np.array(boxes).reshape(-1, 7),
                          np.array([b.cls for b in boxes], dtype=object),
                          np.ones(len(boxes)))


def nn_inputs(tracks, dets):
    """``associate_nn``'s positions and ids for Track records and boxes."""
    return ([t.state.mean[:3] for t in tracks], [t.id for t in tracks],
            [d.center for d in dets])


def detection_from_obs(obs, cls="car"):
    return DetectionBox(center=obs[:3], yaw=obs[3], dims=obs[4:7], cls=cls)


def linear_regime_params():
    """Zero heading process noise: the only nonlinearity source is frozen."""
    pn = np.diag([0.01, 0.01, 0.01, 0.0, 0.25, 1e-4, 1e-4, 1e-4])
    return UkfParams(process_noise=pn)


class LinearKalman:
    """Textbook linear Kalman filter, independent of the tracker module.

    Models the fixed-heading regime: position advances by v*cos/sin(theta0)*dt
    with theta0 a known constant; the observation drops the speed component.
    """

    def __init__(self, mean, cov, theta0, q, r):
        self.m = np.asarray(mean, dtype=float).copy()
        self.P = np.asarray(cov, dtype=float).copy()
        self.q = q
        self.r = r
        self.F = np.eye(8)
        self.F[0, 4] = math.cos(theta0)
        self.F[1, 4] = math.sin(theta0)
        self.H = np.zeros((7, 8))
        for row, col in enumerate([0, 1, 2, 3, 5, 6, 7]):
            self.H[row, col] = 1.0

    def predict(self, dt):
        F = self.F.copy()
        F[0, 4] *= dt
        F[1, 4] *= dt
        self.m = F @ self.m
        self.P = F @ self.P @ F.T + self.q * dt

    def update(self, z):
        S = self.H @ self.P @ self.H.T + self.r
        K = self.P @ self.H.T @ np.linalg.inv(S)
        self.m = self.m + K @ (z - self.H @ self.m)
        self.P = self.P - K @ S @ K.T


class TestSigmaPoints:
    def test_identity_covariance_columns(self):
        n = 8
        mean = np.arange(n, dtype=float)
        pts, wm, wc = sigma_points(mean, np.eye(n))
        assert pts.shape == (17, n)
        lam = ALPHA ** 2 * (n + KAPPA) - n
        spread = math.sqrt(n + lam)
        for i in range(n):
            assert np.allclose(pts[1 + i] - mean, spread * np.eye(n)[i], atol=1e-9)
            assert np.allclose(pts[1 + n + i] - mean, -spread * np.eye(n)[i],
                               atol=1e-9)

    def test_mean_weights_sum_to_one(self):
        _, wm, _ = sigma_points(np.zeros(8), np.eye(8))
        assert np.isclose(wm.sum(), 1.0, atol=1e-12)

    def test_moment_identity(self, rng):
        for _ in range(50):
            mean = rng.normal(size=8)
            cov = random_psd(rng, 8)
            pts, wm, wc = sigma_points(mean, cov)
            rec_mean = wm @ pts
            diff = pts - rec_mean
            rec_cov = np.einsum("i,ij,ik->jk", wc, diff, diff)
            assert np.allclose(rec_mean, mean, atol=1e-8)
            assert np.allclose(rec_cov, cov, atol=1e-8)

    def test_non_decomposable_raises(self):
        bad = -np.eye(8)
        with pytest.raises(ValueError, match="not decomposable"):
            sigma_points(np.zeros(8), bad)


class TestModels:
    def test_zero_speed_fixed_point(self):
        s = np.array([1.0, 2.0, 3.0, 0.7, 0.0, 4.0, 1.8, 1.5])
        assert np.allclose(motion_model(s, 0.1), s)

    def test_axis_aligned_motion(self):
        s = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 4.0, 1.8, 1.5])
        out = motion_model(s, 0.1)
        assert np.isclose(out[0], 0.2)
        assert np.allclose(out[1:], s[1:])

    def test_heading_trig(self):
        s = np.array([0.0, 0.0, 0.0, math.pi / 2, 1.0, 4.0, 1.8, 1.5])
        out = motion_model(s, 0.5)
        assert np.isclose(out[1], 0.5, atol=1e-12)
        assert np.isclose(out[0], 0.0, atol=1e-12)

    def test_yaw_left_unwrapped(self):
        # sigma points around a yaw near pi must stay on one branch
        s = np.array([0.0, 0.0, 0.0, math.pi + 0.1, 1.0, 4.0, 1.8, 1.5])
        assert motion_model(s, 0.1)[3] == math.pi + 0.1

    def test_observation_projection(self):
        # the observation keeps x, y, z, yaw, l, w, h and drops the speed
        assert _OBS_IDX.tolist() == [0, 1, 2, 3, 5, 6, 7]

    @given(st.integers(0, 2**32 - 1))
    def test_speed_never_observed(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=8)
        bumped = s.copy()
        bumped[4] += rng.normal()
        assert np.array_equal(s[_OBS_IDX], bumped[_OBS_IDX])


class TestUkfPredict:
    def test_stationary_fixed_point(self):
        params = UkfParams(process_noise=np.zeros((8, 8)))
        mean = np.array([1.0, 2.0, 0.0, 0.3, 0.0, 4.0, 1.8, 1.5])
        cov = np.diag([0.1] * 4 + [0.0, 0.01, 0.01, 0.01]) + 1e-12 * np.eye(8)
        track = make_track(mean, cov)
        out = ukf_predict(track, 0.1, params)
        assert np.allclose(out.state.mean, mean, atol=1e-8)
        assert np.allclose(out.state.covariance, cov, atol=1e-8)
        assert out.age_since_update == 1

    def test_matches_linear_kf_in_fixed_heading_regime(self):
        theta0 = 0.3
        params = linear_regime_params()
        mean = np.array([1.0, 2.0, 0.5, theta0, 3.0, 4.0, 1.8, 1.5])
        cov = np.diag([0.2, 0.2, 0.1, 1e-12, 2.0, 0.05, 0.05, 0.05])
        kf = LinearKalman(mean, cov, theta0, params.process_noise,
                          params.measurement_noise)
        kf.predict(0.1)
        out = ukf_predict(make_track(mean, cov), 0.1, params)
        assert np.allclose(out.state.mean, kf.m, atol=1e-6)
        assert np.allclose(out.state.covariance, kf.P, atol=1e-6)

    def test_monte_carlo_mean_agreement(self, rng):
        params = UkfParams()
        mean = np.array([0.0, 0.0, 0.0, 0.5, 4.0, 4.0, 1.8, 1.5])
        cov = np.diag([0.3, 0.3, 0.1, 0.05, 1.0, 0.02, 0.02, 0.02])
        track = make_track(mean, cov)
        out = ukf_predict(track, 0.1, params)
        n = 100_000
        samples = rng.multivariate_normal(mean, cov, size=n)
        prop = motion_model(samples, 0.1)
        mc_mean = prop.mean(axis=0)
        mc_std = prop.std(axis=0)
        assert np.all(np.abs(out.state.mean - mc_mean) <= 3.0 * mc_std / math.sqrt(n)
                      + 1e-9)
        # volume-preserving model with PSD process noise: trace cannot shrink
        assert np.trace(out.state.covariance) >= np.trace(cov) - 1e-9

    def test_covariance_stays_symmetric_psd(self, rng):
        params = UkfParams()
        track = make_track(rng.normal(size=8) + [0, 0, 0, 0, 0, 5, 5, 5],
                           random_psd(rng, 8, 0.1))
        for _ in range(20):
            track = ukf_predict(track, 0.1, params)
            P = track.state.covariance
            assert np.allclose(P, P.T, atol=1e-9)
            assert np.linalg.eigvalsh(P)[0] >= -1e-9


class TestUkfUpdate:
    def test_zero_innovation_keeps_mean_shrinks_cov(self):
        params = UkfParams()
        mean = np.array([1.0, 2.0, 0.5, 0.3, 1.0, 4.0, 1.8, 1.5])
        cov = np.diag([0.5] * 8)
        track = make_track(mean, cov)
        det = detection_from_obs(mean[_OBS_IDX])
        out = ukf_update(track, det, params)
        assert np.allclose(out.state.mean, mean, atol=1e-9)
        assert np.trace(out.state.covariance) < np.trace(cov)
        assert out.age_since_update == 0

    def test_speed_decays_for_stationary_detections(self):
        params = UkfParams()
        mean = np.array([0.0, 0.0, 0.0, 0.0, 3.0, 4.0, 1.8, 1.5])
        cov = np.diag([0.1, 0.1, 0.1, 0.01, 25.0, 0.01, 0.01, 0.01])
        track = make_track(mean, cov)
        det = detection_from_obs(np.array([0, 0, 0, 0, 4.0, 1.8, 1.5]))
        for _ in range(50):
            track = ukf_predict(track, 0.1, params)
            track = ukf_update(track, det, params)
            P = track.state.covariance
            assert np.allclose(P, P.T, atol=1e-9)
            assert np.linalg.eigvalsh(P)[0] >= -1e-9
        assert abs(track.state.mean[4]) < 0.05
        assert not track.dynamic

    def test_matches_linear_kf_over_100_steps(self, rng):
        theta0 = 0.3
        params = linear_regime_params()
        mean = np.array([1.0, 2.0, 0.5, theta0, 2.0, 4.0, 1.8, 1.5])
        cov = np.diag([0.2, 0.2, 0.1, 1e-12, 4.0, 0.05, 0.05, 0.05])
        kf = LinearKalman(mean, cov, theta0, params.process_noise,
                          params.measurement_noise)
        track = make_track(mean, cov)
        for step in range(100):
            z = np.array([1.0 + 0.2 * step * math.cos(theta0),
                          2.0 + 0.2 * step * math.sin(theta0),
                          0.5, theta0, 4.0, 1.8, 1.5])
            z[:3] += rng.normal(scale=0.05, size=3)
            kf.predict(0.1)
            kf.update(z)
            track = ukf_predict(track, 0.1, params)
            track = ukf_update(track, detection_from_obs(z), params)
            assert np.allclose(track.state.mean, kf.m, atol=1e-6)
            assert np.allclose(track.state.covariance, kf.P, atol=1e-6)

    def test_dims_clamped_positive(self):
        # a near-certain detection of a vanishing box pulls the estimated
        # dims below the floor the filter clamps them to
        mean = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 1.8, 1.5])
        cov = np.diag([0.1] * 5 + [1e9] * 3)
        det = detection_from_obs(np.array([0, 0, 0, 0, 1e-9, 1e-9, 1e-9]))
        out = ukf_update(make_track(mean, cov), det, UkfParams())
        assert np.array_equal(out.state.mean[5:8], [1e-6] * 3)

    def test_yaw_innovation_folded_for_flipped_boxes(self):
        params = UkfParams()
        mean = np.array([0.0, 0.0, 0.0, 0.1, 0.0, 4.0, 1.8, 1.5])
        track = make_track(mean, np.diag([0.1] * 8))
        flipped = detection_from_obs(
            np.array([0, 0, 0, 0.1 + math.pi, 4.0, 1.8, 1.5]))
        out = ukf_update(track, flipped, params)
        # a pi-flipped detection should not rotate the track by pi
        assert abs(out.state.mean[3] - 0.1) < 0.05


class TestAssociation:
    def track_at(self, xyz, tid):
        mean = np.array([*xyz, 0.0, 0.0, 4.0, 1.8, 1.5])
        return make_track(mean, np.eye(8), tid=tid)

    def det_at(self, xyz):
        return DetectionBox(xyz, 0.0, (4.0, 1.8, 1.5))

    def test_empty_detections(self):
        tracks = [self.track_at((0, 0, 0), 0)]
        matches, ut, ud = associate_nn(*nn_inputs(tracks, []), 2.0)
        assert matches == [] and ut == [0] and ud == []

    def test_gate_blocks_far_detection(self):
        tracks = [self.track_at((0, 0, 0), 0)]
        dets = [self.det_at((1.0, 0, 0)), self.det_at((3.0, 0, 0))]
        matches, ut, ud = associate_nn(*nn_inputs(tracks, dets), 2.0)
        assert matches == [(0, 0)]
        assert ud == [1]

    def test_matches_brute_force_greedy(self, rng):
        def brute(tracks, dets, gate):
            pairs = []
            for ti, t in enumerate(tracks):
                for di, d in enumerate(dets):
                    dist = float(np.linalg.norm(t.state.mean[:3] - d.center))
                    pairs.append((dist, t.id, di, ti))
            pairs.sort()
            used_t, used_d, out = set(), set(), []
            for dist, _, di, ti in pairs:
                if dist > gate or ti in used_t or di in used_d:
                    continue
                out.append((ti, di))
                used_t.add(ti)
                used_d.add(di)
            return out

        for _ in range(100):
            nt, nd = rng.integers(1, 6), rng.integers(1, 6)
            tracks = [self.track_at(rng.uniform(-5, 5, 3), tid)
                      for tid, _ in enumerate(range(nt))]
            dets = [self.det_at(rng.uniform(-5, 5, 3)) for _ in range(nd)]
            got, _, _ = associate_nn(*nn_inputs(tracks, dets), 4.0)
            assert sorted(got) == sorted(brute(tracks, dets, 4.0))


class TestTrackerLifecycle:
    def frame(self, k, centers):
        return frame_of(k, [DetectionBox(c, 0.0, (4.0, 1.8, 1.5))
                            for c in centers])

    def test_first_frame_spawns_without_dynamic(self):
        tracker = Tracker()
        step = tracker.step(self.frame(0, [(0, 0, 0), (5, 5, 0)]), 0.1)
        assert len(tracker.tracks) == 2
        assert step.dynamic_boxes.shape == (0, 7)
        assert np.all(tracker.means[:, 4] == 0.0)
        assert np.allclose(tracker.covariances[:, 4, 4],
                           tracker.params.initial_velocity_variance)

    def test_fast_object_flagged_within_five_frames(self):
        tracker = Tracker()
        for k in range(5):
            step = tracker.step(self.frame(k, [(2.0 * k, 0, 0)]), 0.1)
        assert len(tracker.tracks) == 1
        assert tracker.dynamic[0]
        assert len(step.dynamic_boxes) == 1
        # 2 m per 0.1 s scan
        assert tracker.means[0, 4] > 10.0

    def test_occlusion_keeps_track_id(self):
        tracker = Tracker()
        speed, dt = 2.0, 0.1
        for k in range(5):
            tracker.step(self.frame(k, [(speed * dt * k, 0, 0)]), dt)
        tid = tracker.ids[0]
        age_max = tracker.params.age_max
        for k in range(5, 5 + age_max):  # occluded: prediction only
            tracker.step(self.frame(k, []), dt)
            assert len(tracker.tracks) == 1
        k = 5 + age_max
        tracker.step(self.frame(k, [(speed * dt * k, 0, 0)]), dt)
        assert len(tracker.tracks) == 1
        assert tracker.ids[0] == tid
        assert tracker.ages[0] == 0

    def test_track_deleted_after_age_max(self):
        tracker = Tracker()
        tracker.step(self.frame(0, [(0, 0, 0)]), 0.1)
        for k in range(1, 2 + tracker.params.age_max):
            tracker.step(self.frame(k, []), 0.1)
        assert tracker.tracks.shape == (0, 10)

    def test_ids_never_reused(self):
        tracker = Tracker()
        seen = set()
        for k in range(30):
            centers = [(10.0 * j + k * 0.01, 0, 0)
                       for j in range(1 + k % 3)]
            tracker.step(self.frame(k, centers), 0.1)
            seen.update(tracker.ids.tolist())
        assert tracker.next_id == len(seen)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_matched_ids_were_live_after_the_previous_step(self, seed):
        # the posture constraint takes a matched track's z change from its z
        # after the previous scan, which it keeps for the ids live then
        tracker = Tracker(reference_config().tracker)
        live, matched, pruned = set(), 0, 0
        for frame in lane_frames(np.random.default_rng(seed), n_scans=40):
            step = tracker.step(frame, 0.1)
            assert set(step.matched_ids) <= live
            matched += len(step.matched_ids)
            pruned += len(live - set(tracker.ids.tolist()))
            live = set(tracker.ids.tolist())
        assert matched > 0 and pruned > 0

    def test_deterministic(self):
        def run():
            tracker = Tracker()
            rng = np.random.default_rng(7)
            out = []
            for k in range(20):
                centers = rng.uniform(-10, 10, size=(3, 3))
                step = tracker.step(self.frame(k, centers), 0.1)
                out.append(step.dynamic_boxes.tolist())
            return out, tracker.tracks.tolist()

        assert run() == run()

    def test_dynamic_box_geometry_from_state(self):
        tracker = Tracker()
        for k in range(4):
            step = tracker.step(self.frame(k, [(2.0 * k, 0, 0)]), 0.1)
        box = step.dynamic_boxes[0]  # cx cy cz yaw l w h
        mean = tracker.means[0]
        assert np.allclose(box[:3], mean[:3])
        assert np.allclose(box[4:], mean[5:8])


class TestTurningMovers:
    def test_turning_movers_keep_one_dynamic_track_each(self, rng):
        # 8 cars at 5 m/s turning at 1 rad/s (radius 5 m, half of them
        # clockwise), 30 m apart; the motion model holds the heading, so
        # the turn enters as process noise
        n, dt, speed, rate = 8, 0.1, 5.0, 1.0
        start = np.column_stack([30.0 * (np.arange(n) % 4),
                                 30.0 * (np.arange(n) // 4)])
        yaw0 = rng.uniform(-math.pi, math.pi, n)
        turn = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        tracker = Tracker(reference_config().tracker)
        ids, errors = [set() for _ in range(n)], []
        for k in range(120):
            yaw = yaw0 + turn * rate * k * dt
            r = turn * speed / rate
            truth = np.column_stack([
                start[:, 0] + r * (np.sin(yaw) - np.sin(yaw0)),
                start[:, 1] - r * (np.cos(yaw) - np.cos(yaw0)),
                np.full(n, 0.75)])
            boxes = np.column_stack([truth + rng.normal(0.0, 0.02, (n, 3)),
                                     yaw + rng.normal(0.0, 0.01, n),
                                     np.tile([4.3, 1.8, 1.5], (n, 1))])
            tracker.step(DetectionFrame(k, boxes, np.full(n, "car", object),
                                        np.ones(n)), dt)
            for j in range(n):
                dist = np.linalg.norm(tracker.means[:, :3] - truth[j], axis=1)
                row = int(np.argmin(dist))
                ids[j].add(int(tracker.ids[row]))
                if k >= 10:
                    assert tracker.dynamic[row]
                    errors.append(dist[row] ** 2)
        assert all(len(mover_ids) == 1 for mover_ids in ids)
        assert len(tracker.ids) == n
        assert math.sqrt(np.mean(errors)) < 0.05


# --- the stacked tracker against the per-track one it replaced ----------------

_OBS = [0, 1, 2, 3, 5, 6, 7]


def ref_sigma_points(mean, cov):
    n = mean.shape[0]
    lam = ALPHA ** 2 * (n + KAPPA) - n
    scale = n + lam
    try:
        L = np.linalg.cholesky(scale * cov)
    except np.linalg.LinAlgError:
        L = np.linalg.cholesky(scale * (cov + 1e-9 * np.eye(n)))
    pts = np.empty((2 * n + 1, n))
    pts[0] = mean
    pts[1:n + 1] = mean + L.T
    pts[n + 1:] = mean - L.T
    wm = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    wm[0] = lam / scale
    wc = wm.copy()
    wc[0] += 1.0 - ALPHA ** 2 + BETA
    return pts, wm, wc


def ref_motion_raw(state, dt):
    s = np.array(state, dtype=float, copy=True)
    s[..., 0] = s[..., 0] + s[..., 4] * np.cos(s[..., 3]) * dt
    s[..., 1] = s[..., 1] + s[..., 4] * np.sin(s[..., 3]) * dt
    return s


def ref_predict(mean, cov, dt, params):
    pts, wm, _ = ref_sigma_points(mean, cov)
    prop = ref_motion_raw(pts, dt)
    e = prop[1:] - prop[0]
    mu = wm[1] * e.sum(axis=0)
    new = prop[0] + mu
    # rounded as the stacked filter rounds: w (~6e4) scales one ulp of a
    # sigma point, and the next scan's update carries it into the mean
    P = (wm[1] * (e.T @ e) + (BETA - ALPHA ** 2)
         * np.outer(mu, mu) + params.process_noise * dt)
    new[3] = wrap_angle(new[3])
    return new, (P + P.T) / 2.0


def ref_update(mean, cov, obs, params):
    H = np.zeros((7, 8))
    H[np.arange(7), _OBS] = 1.0
    return ref_gain_update(mean, cov, obs, params, mean[_OBS], cov @ H.T,
                           H @ cov @ H.T + params.measurement_noise)


def ref_gain_update(mean, cov, obs, params, yhat, pxy, pyy):
    innov = obs - yhat
    r = wrap_angle(innov[3])
    if r > math.pi / 2.0:
        r -= math.pi
    elif r <= -math.pi / 2.0:
        r += math.pi
    innov[3] = r
    gain = np.linalg.solve(pyy.T, pxy.T).T
    new = mean + gain @ innov
    new[3] = wrap_angle(new[3])
    new[5:8] = np.maximum(new[5:8], 1e-6)
    P = cov - gain @ pyy @ gain.T
    return new, (P + P.T) / 2.0


def former_predict(mean, cov, dt, params):
    """The UKF prediction as plain weighted sums over all sigma points."""
    pts, wm, wc = ref_sigma_points(mean, cov)
    prop = ref_motion_raw(pts, dt)
    new = wm @ prop
    diff = prop - new
    P = np.einsum("i,ij,ik->jk", wc, diff, diff) + params.process_noise * dt
    new[3] = wrap_angle(new[3])
    return new, (P + P.T) / 2.0


def former_update(mean, cov, obs, params):
    """The UKF correction by the unscented transform of the observation."""
    pts, wm, wc = ref_sigma_points(mean, cov)
    ys = pts[:, _OBS]
    yhat = wm @ ys
    dy = ys - yhat
    pyy = np.einsum("i,ij,ik->jk", wc, dy, dy) + params.measurement_noise
    pxy = np.einsum("i,ij,ik->jk", wc, pts - mean, dy)
    return ref_gain_update(mean, cov, obs, params, yhat, pxy, pyy)


class ReferenceTracker:
    """The per-track tracker: one Cholesky and solve per track, and
    association by sorting every (distance, track id, detection) tuple."""

    def __init__(self, params):
        self.params = params
        self.tracks = []
        self.next_id = 0

    def predict(self, mean, cov, dt):
        return ref_predict(mean, cov, dt, self.params)

    def update(self, mean, cov, obs):
        return ref_update(mean, cov, obs, self.params)

    def step(self, frame, dt):
        p, boxes = self.params, frame.boxes
        self.tracks = [
            t._replace(state=TrackState(*self.predict(
                t.state.mean, t.state.covariance, dt)),
                age_since_update=t.age_since_update + 1)
            for t in self.tracks]
        pos = np.array([t.state.mean[:3] for t in self.tracks]).reshape(-1, 3)
        det = boxes[:, :3]
        dists = np.linalg.norm(pos[:, None, :] - det[None, :, :], axis=2)
        pairs = sorted((float(dists[ti, di]), t.id, di, ti)
                       for ti, t in enumerate(self.tracks)
                       for di in range(len(boxes)))
        used_t, used_d, matched = set(), set(), []
        for dist, _, di, ti in pairs:
            if dist > p.gate_distance or ti in used_t or di in used_d:
                continue
            used_t.add(ti)
            used_d.add(di)
            t, b = self.tracks[ti], boxes[di]
            mean, cov = self.update(t.state.mean, t.state.covariance, b)
            self.tracks[ti] = t._replace(
                state=TrackState(mean, cov), age_since_update=0,
                dynamic=bool(abs(mean[4]) > p.dynamic_speed_threshold))
            matched.append(t.id)
        for di, b in enumerate(boxes):  # rows cx cy cz yaw l w h
            if di in used_d:
                continue
            mean = np.array([*b[:4], 0.0, *b[4:]])
            cov = np.zeros((8, 8))
            cov[np.ix_(_OBS, _OBS)] = p.measurement_noise
            cov[4, 4] = p.initial_velocity_variance
            self.tracks.append(Track(self.next_id, TrackState(mean, cov)))
            self.next_id += 1
        self.tracks = [t for t in self.tracks
                       if t.age_since_update <= p.age_max]
        return sorted(matched)


class FormerSigmaPointTracker(ReferenceTracker):
    """The per-track UKF as it was before the shared Kalman update: plain
    weighted sums over all sigma points, in prediction and correction."""

    def predict(self, mean, cov, dt):
        return former_predict(mean, cov, dt, self.params)

    def update(self, mean, cov, obs):
        return former_update(mean, cov, obs, self.params)


def lane_frames(rng, n_scans=30, dt=0.1):
    """Detections of 60 cars in six lanes seen from a slow ego, plus parked
    cars: noisy boxes, some missed, an occasional spurious one, and headings
    near +-pi in the oncoming lanes."""
    cars = []
    for y, direction in ((-10.5, 1), (-7.0, 1), (-3.5, 1),
                         (3.5, -1), (7.0, -1), (10.5, -1)):
        speed = direction * rng.uniform(6.0, 9.0)
        for j in range(10):
            cars.append((-150.0 + 30.0 * j + rng.uniform(-1.5, 1.5), y, speed,
                         0.0 if direction > 0 else math.pi))
    for x in np.arange(-35.0, 60.0, 7.0):
        cars.append((x + rng.uniform(-2, 2), 12.5, 0.0, rng.uniform(-0.2, 0.2)))
    frames = []
    for k in range(n_scans):
        boxes = []
        for x0, y, speed, yaw in cars:
            if rng.random() < 0.1:
                continue
            center = np.array([x0 + (speed - 1.0) * k * dt, y, 0.75])
            boxes.append(DetectionBox(center + rng.normal(0.0, 0.05, 3),
                                      yaw + rng.normal(0.0, 0.03),
                                      (4.3, 1.8, 1.5) + rng.normal(0.0, 0.02, 3)))
        if rng.random() < 0.3:
            boxes.append(DetectionBox(rng.uniform(-40, 40, 3), 0.0,
                                      (1.8, 0.8, 1.7), cls="cyclist"))
        frames.append(frame_of(k, boxes))
    return frames


class TestStackedTrackerEquivalence:
    def test_matches_per_track_tracker(self):
        params = reference_config().tracker
        stacked = Tracker(params)
        ref = ReferenceTracker(params)
        flagged = 0
        for frame in lane_frames(np.random.default_rng(5)):
            step = stacked.step(frame, 0.1)
            assert step.matched_ids == ref.step(frame, 0.1)
            assert stacked.ids.tolist() == [t.id for t in ref.tracks]
            assert stacked.dynamic.tolist() == [t.dynamic for t in ref.tracks]
            assert (stacked.ages.tolist()
                    == [t.age_since_update for t in ref.tracks])
            for mean, cov, want in zip(stacked.means, stacked.covariances,
                                       ref.tracks):
                assert np.allclose(mean, want.state.mean, rtol=0.0, atol=1e-9)
                assert np.allclose(cov, want.state.covariance,
                                   rtol=0.0, atol=1e-9)
            dynamic = [t for t in ref.tracks if t.dynamic]
            assert len(step.dynamic_boxes) == len(dynamic)
            for box, t in zip(step.dynamic_boxes, dynamic):
                assert np.allclose(box[:3], t.state.mean[:3], atol=1e-9)
            flagged += len(dynamic)
        assert flagged > 0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_matches_former_sigma_point_filter(self, seed):
        # same filter in exact arithmetic; the former sums cancelled ~1e6
        # weights, so only round-off may differ
        params = reference_config().tracker
        stacked, former = Tracker(params), FormerSigmaPointTracker(params)
        for frame in lane_frames(np.random.default_rng(seed), n_scans=60):
            assert stacked.step(frame, 0.1).matched_ids == former.step(frame, 0.1)
            assert (list(zip(stacked.ids.tolist(), stacked.dynamic.tolist(),
                             stacked.ages.tolist()))
                    == [(t.id, t.dynamic, t.age_since_update)
                        for t in former.tracks])
            for mean, cov, want in zip(stacked.means, stacked.covariances,
                                       former.tracks):
                assert np.allclose(mean, want.state.mean, rtol=0.0, atol=1e-6)
                assert np.allclose(cov, want.state.covariance,
                                   rtol=0.0, atol=1e-6)

    def test_prediction_matches_exact_sigma_sums(self):
        """The UKF prediction of ~12 lane tracks against its weighted sums
        over the same float64 propagated sigma points, evaluated exactly."""
        params, dt, n = reference_config().tracker, 0.1, STATE_DIM
        tracker = Tracker(params)
        for frame in lane_frames(np.random.default_rng(5), n_scans=8):
            tracker.step(frame, dt)
        rows = np.arange(0, len(tracker.ids), len(tracker.ids) // 12)
        means, covs = tracker.means[rows], tracker.covariances[rows]
        got_mean, got_cov = tracking._predict(means, covs, dt, params)
        pts, wm, _ = sigma_points(means, covs)
        prop = motion_model(pts, dt)
        # the weights sigma_points returns, the centre one chosen so that
        # they sum to one exactly
        w = [Fraction(1) - 2 * n * Fraction(wm[1])] + [Fraction(wm[1])] * 2 * n
        c0 = 1 - Fraction(ALPHA) ** 2 + Fraction(BETA)
        wc = [w[0] + c0] + w[1:]
        q = [[Fraction(v) * Fraction(dt) for v in row]
             for row in params.process_noise]
        for t, ys in enumerate(prop):
            ys = [[Fraction(v) for v in y] for y in ys]
            m = [sum(wi * y[j] for wi, y in zip(w, ys)) for j in range(n)]
            d = [[y[j] - m[j] for j in range(n)] for y in ys]
            want_mean = np.array([float(v) for v in m])
            want_mean[3] = wrap_angle(want_mean[3])
            want_cov = np.array([[float(sum(ci * di[j] * di[k]
                                            for ci, di in zip(wc, d)) + q[j][k])
                                  for k in range(n)] for j in range(n)])
            assert np.allclose(got_mean[t], want_mean, rtol=0.0, atol=1e-12)
            assert np.allclose(got_cov[t], want_cov, rtol=0.0, atol=1e-10)

    def test_tracks_is_the_track_table(self):
        # one row ``track_id dynamic x y z yaw v l w h`` per live track
        tracker = Tracker()
        for k in range(4):
            tracker.step(frame_of(k, [
                DetectionBox((2.0 * k, 0, 0), 0.0, (4, 2, 1.5)),
                DetectionBox((9, 9, 0), 0.0, (4, 2, 1.5))]), 0.1)
        table = tracker.tracks
        assert table.shape == (len(tracker.ids), 10) == (2, 10)
        assert table.dtype == np.float64
        np.testing.assert_array_equal(table[:, 0], tracker.ids)
        np.testing.assert_array_equal(table[:, 1], tracker.dynamic)
        np.testing.assert_array_equal(table[:, 2:], tracker.means)
        assert table[:, 1].tolist() == [1.0, 0.0]


class TestBatchedFactorization:
    def test_only_the_non_pd_row_is_jittered(self, rng):
        n = 8
        scale = n + (ALPHA ** 2 * (n + KAPPA) - n)
        good = random_psd(rng, n)
        # PSD with a zero eigenvalue: Cholesky fails until jittered
        singular = np.diag([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        covs = np.stack([good, singular, 2.0 * good])
        means = rng.normal(size=(3, n))
        pts, _, _ = sigma_points(means, covs)
        for i in (0, 2):
            L = np.linalg.cholesky(scale * covs[i])
            assert np.array_equal(pts[i, 1:n + 1], means[i] + L.T)
            assert np.array_equal(pts[i], sigma_points(means[i], covs[i])[0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(scale * singular)
        L = np.linalg.cholesky(scale * (singular + 1e-9 * np.eye(n)))
        assert np.array_equal(pts[1, 1:n + 1], means[1] + L.T)
        assert np.array_equal(pts[1, n + 1:], means[1] - L.T)

    def test_a_row_that_stays_singular_raises(self, rng):
        covs = np.stack([random_psd(rng, 8), -np.eye(8)])
        with pytest.raises(ValueError, match="not decomposable"):
            sigma_points(np.zeros((2, 8)), covs)

    def noiseless_tracker(self, obs_blocks, xs):
        """Tracker with noiseless measurements, one track at each x, whose
        innovation covariances are the given 7x7 blocks; and a detection of
        each track, as box rows."""
        params = UkfParams(measurement_noise=np.zeros((7, 7)))
        tracker = Tracker(params)
        tracker.step(frame_of(0, [DetectionBox((x, 0, 0), 0.0, (4, 2, 1.5))
                                  for x in xs]), 0.1)
        for i, block in enumerate(obs_blocks):
            tracker.covariances[i][np.ix_(_OBS, _OBS)] = block
        return tracker, np.array([DetectionBox((x + 0.1, 0.2, 0), 0.05,
                                               (4, 2, 1.5)) for x in xs])

    def test_singular_innovation_row_retried_alone(self, rng):
        blocks = [random_psd(rng, 7), np.zeros((7, 7)), random_psd(rng, 7)]
        xs = [0.0, 5.0, 10.0]
        tracker, dets = self.noiseless_tracker(blocks, xs)
        tracker.update(np.arange(3), dets)
        for i in range(3):
            alone, det = self.noiseless_tracker([blocks[i]], [xs[i]])
            alone.update([0], det)
            assert np.array_equal(tracker.means[i], alone.means[0])
            assert np.array_equal(tracker.covariances[i], alone.covariances[0])
        # the zero block reaches the gain only through the jittered solve
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(blocks[1], np.eye(7))
        assert np.all(np.isfinite(tracker.means))

    def test_innovation_row_that_stays_singular_raises(self, rng):
        # singular, and singular again once 1e-9 I is added
        blocks = [random_psd(rng, 7), np.diag([0.0, -1e-9, 1, 1, 1, 1, 1])]
        tracker, dets = self.noiseless_tracker(blocks, [0.0, 5.0])
        with pytest.raises(ValueError, match="innovation covariance singular"):
            tracker.update(np.arange(2), dets)


class TestAssociationTies:
    @given(st.integers(0, 2**32 - 1))
    def test_tied_distances_match_brute_force_sort(self, seed):
        rng = np.random.default_rng(seed)
        nt, nd = (int(v) for v in rng.integers(0, 9, size=2))
        # integer grid positions: many equal distances, some exactly at the gate
        track_pos = rng.integers(-2, 3, size=(nt, 3)).astype(float)
        det_pos = rng.integers(-2, 3, size=(nd, 3)).astype(float)
        ids = rng.permutation(50)[:nt]
        gate = float(rng.integers(1, 4))
        dists = np.linalg.norm(track_pos[:, None, :] - det_pos[None, :, :],
                               axis=2)
        pairs = sorted((float(dists[ti, di]), int(ids[ti]), di, ti)
                       for ti in range(nt) for di in range(nd))
        used_t, used_d, expected = set(), set(), []
        for dist, _, di, ti in pairs:
            if dist > gate or ti in used_t or di in used_d:
                continue
            expected.append((ti, di))
            used_t.add(ti)
            used_d.add(di)
        got = associate_nn(track_pos, ids, det_pos, gate)
        assert got == (expected,
                       [i for i in range(nt) if i not in used_t],
                       [i for i in range(nd) if i not in used_d])
