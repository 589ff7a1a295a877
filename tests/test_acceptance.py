"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria:
  1. UKF matches an independent linear Kalman filter in a fixed-heading
     regime (1e-6 per component, 100 steps, < 1 s).
  2. Sigma-point moment identity on 1000 random PSD covariances (1e-8, < 5 s).
  3. Dynamic classification: a 5 m/s object flagged within 5 frames; a parked
     object never flagged over 100 frames at noise sigma 0.05.
  4. Registration recovery of (0.5 m, 10 deg yaw) to 1e-3 m / 0.1 deg, and the
     solver's Gauss-Newton gradient matches central finite differences of its
     cost to 1e-5.
  5. Oracle equivalence on >= 100 randomized instances per operation.
  6. Ablation directions over 5 seeds on the reference dynamic scene
     (200 scans, crossers): removal lowers median APE, and the posture
     constraint lowers median max |z drift|. < 5 min.
  7. Map quality on the labeled scene: RR >= 90 %, PR >= 95 %.
  8. Byte-identical trajectories across two CLI runs.
  9. Throughput report at ~20k points/scan (soft target: report, never fail).
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError, cKDTree

from conftest import classification_scene
from dynlo.cli import main as cli_main
from dynlo.detections import filter_detections
from dynlo.geometry import DetectionBox, PointCloud, Pose, point_in_box, se3_exp
from dynlo.metrics import (RemovalCounts, Trajectory, ape_rmse, map_pr_rr_f1,
                           max_z_drift)
from dynlo.pipeline import run_pipeline, stats_summary
from dynlo.preprocess import estimate_point_covariances, voxel_downsample
from dynlo.removal import dynamic_point_mask
from dynlo.registration import (_model_error, _moment_basis,
                                _normal_equations, gicp_align)
from dynlo.simulate import (SensorModel, SimScene, reference_config,
                            reference_dynamic_scene, simulate, write_sim_dir)
from dynlo.tracking import Tracker, associate_nn, sigma_points

from test_registration import structured_cloud
from test_tracking import (LinearKalman, Track, TrackState, detection_from_obs,
                           linear_regime_params, nn_inputs, ukf_predict,
                           ukf_update)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_ukf_matches_linear_kf():
    t0 = time.perf_counter()
    theta0 = 0.3
    params = linear_regime_params()
    mean = np.array([1.0, 2.0, 0.5, theta0, 2.0, 4.0, 1.8, 1.5])
    cov = np.diag([0.2, 0.2, 0.1, 1e-12, 4.0, 0.05, 0.05, 0.05])
    kf = LinearKalman(mean, cov, theta0, params.process_noise,
                      params.measurement_noise)
    track = Track(id=0, state=TrackState(mean, cov))
    rng = np.random.default_rng(0)
    worst = 0.0
    for step in range(100):
        z = np.array([1.0 + 0.2 * step * math.cos(theta0),
                      2.0 + 0.2 * step * math.sin(theta0),
                      0.5, theta0, 4.0, 1.8, 1.5])
        z[:3] += rng.normal(scale=0.05, size=3)
        kf.predict(0.1)
        kf.update(z)
        track = ukf_predict(track, 0.1, params)
        track = ukf_update(track, detection_from_obs(z), params)
        worst = max(worst, float(np.max(np.abs(track.state.mean - kf.m))))
    elapsed = time.perf_counter() - t0
    report("criterion 1 (UKF vs linear KF)",
           worst < 1e-6 and elapsed < 1.0,
           f"max component diff {worst:.2e} over 100 steps, {elapsed:.2f} s")


def test_criterion_2_sigma_moment_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        mean = rng.normal(size=8)
        A = rng.normal(size=(8, 8))
        cov = A @ A.T + 1e-6 * np.eye(8)
        pts, wm, wc = sigma_points(mean, cov)
        rec_mean = wm @ pts
        diff = pts - rec_mean
        rec_cov = np.einsum("i,ij,ik->jk", wc, diff, diff)
        worst = max(worst, float(np.max(np.abs(rec_mean - mean))),
                    float(np.max(np.abs(rec_cov - cov))))
    elapsed = time.perf_counter() - t0
    report("criterion 2 (sigma moment identity)",
           worst < 1e-8 and elapsed < 5.0,
           f"max reconstruction error {worst:.2e} on 1000 covariances, "
           f"{elapsed:.2f} s")


def test_criterion_3_dynamic_classification():
    # 5 m/s object: flagged within 5 frames of first detection
    scene = classification_scene(mover_speed=5.0, n_scans=8, noise_sigma=0.05)
    res = simulate(scene, 0)
    cfg = reference_config()
    det = cfg.detections
    tracker = Tracker(cfg.tracker)
    flagged_at = None
    for k in range(8):
        tracker.step(filter_detections(res.detections[k], det.min_score,
                                       det.classes), scene.dt)
        if flagged_at is None and tracker.dynamic.any():
            flagged_at = k
    fast_ok = flagged_at is not None and flagged_at < 5

    # parked object: never flagged over 100 frames
    scene = classification_scene(mover_speed=0.0, n_scans=100,
                                 noise_sigma=0.05)
    res = simulate(scene, 1)
    tracker = Tracker(cfg.tracker)
    ever_flagged = False
    for k in range(100):
        tracker.step(filter_detections(res.detections[k], det.min_score,
                                       det.classes), scene.dt)
        ever_flagged |= bool(tracker.dynamic.any())
    report("criterion 3 (dynamic classification)",
           fast_ok and not ever_flagged,
           f"5 m/s flagged at frame {flagged_at}; parked flagged: {ever_flagged}")


def test_criterion_4_registration_recovery_and_gradient():
    rng = np.random.default_rng(2)
    cloud = estimate_point_covariances(
        PointCloud(structured_cloud(rng)), 10, 1e-3)
    T_true = Pose.from_yaw(math.radians(10.0), (0.5, 0.0, 0.0))
    target = cloud.transformed(T_true)
    res = gicp_align(cloud, target, Pose.identity())
    terr = float(np.linalg.norm(res.pose.translation - T_true.translation))
    R = res.pose.rotation.T @ T_true.rotation
    rerr = math.degrees(math.acos(min(1.0, max(-1.0, (np.trace(R) - 1) / 2))))

    pts = rng.normal(0, 2, (300, 3))
    src = estimate_point_covariances(PointCloud(pts), 8, 1e-3)
    tgt = estimate_point_covariances(
        PointCloud(pts + rng.normal(0, 0.05, pts.shape)), 8, 1e-3)
    # identity correspondences; the solver's gradient 2c is that of its cost
    # with the fused information W frozen at T
    T = se3_exp(rng.normal(scale=0.1, size=6))
    basis = _moment_basis(src.points)
    pt = tgt.points.T.copy()
    _, c, _, W = _normal_equations(T, basis, src.covariances, pt,
                                   tgt.covariances)
    h = 1e-6
    fd = np.zeros(6)
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        fd[i] = (_model_error(T.compose(se3_exp(e)), basis[1:4], pt, W)
                 - _model_error(T.compose(se3_exp(-e)), basis[1:4], pt, W)) / (2 * h)
    grel = float(np.max(np.abs(2 * c - fd) / np.maximum(np.abs(fd), 1e-12)))
    report("criterion 4 (registration recovery + gradient)",
           terr < 1e-3 and rerr < 0.1 and grel < 1e-5,
           f"translation {terr:.2e} m, rotation {rerr:.2e} deg, "
           f"gradient rel err {grel:.2e}")


class TestCriterion5OracleEquivalence:
    N = 100

    def test_voxel_grouping(self):
        rng = np.random.default_rng(10)
        from test_preprocess import brute_force_voxel
        for _ in range(self.N):
            pts = rng.uniform(-4, 4, size=(rng.integers(1, 300), 3))
            leaf = float(rng.uniform(0.1, 1.0))
            got = voxel_downsample(PointCloud(pts), leaf).points
            assert np.allclose(got, brute_force_voxel(pts, leaf), atol=1e-12)
        report("criterion 5a (voxel grouping oracle)", True,
               f"{self.N} randomized instances")

    def test_knn_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N):
            n = int(rng.integers(12, 80))
            pts = rng.normal(size=(n, 3))
            k = int(rng.integers(2, 11))
            _, nn = cKDTree(pts).query(pts, k=k)
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            brute = np.argsort(d, axis=1, kind="stable")[:, :k]
            for i in range(n):
                assert set(nn[i].tolist()) == set(brute[i].tolist())
        report("criterion 5b (kNN oracle)", True,
               f"{self.N} randomized instances")

    def test_nn_association(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N):
            nt, nd = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            tracks = []
            for tid in range(nt):
                mean = np.concatenate([rng.uniform(-8, 8, 3),
                                       [0.0, 0.0, 4.0, 1.8, 1.5]])
                tracks.append(Track(id=tid, state=TrackState(mean, np.eye(8))))
            dets = [DetectionBox(rng.uniform(-8, 8, 3), 0.0, (4, 1.8, 1.5))
                    for _ in range(nd)]
            gate = float(rng.uniform(1.0, 6.0))
            got, ut, ud = associate_nn(*nn_inputs(tracks, dets), gate)
            pairs = sorted(
                (float(np.linalg.norm(t.state.mean[:3] - d.center)), t.id, di, ti)
                for ti, t in enumerate(tracks) for di, d in enumerate(dets))
            used_t, used_d, expected = set(), set(), []
            for dist, _, di, ti in pairs:
                if dist > gate or ti in used_t or di in used_d:
                    continue
                expected.append((ti, di))
                used_t.add(ti)
                used_d.add(di)
            assert sorted(got) == sorted(expected)
            assert sorted(ut) == [i for i in range(nt) if i not in used_t]
            assert sorted(ud) == [i for i in range(nd) if i not in used_d]
        report("criterion 5c (NN association oracle)", True,
               f"{self.N} randomized instances")

    def test_point_in_box_removal(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N):
            pts = rng.uniform(-6, 6, size=(rng.integers(1, 200), 3))
            boxes = [DetectionBox(rng.uniform(-5, 5, 3), rng.uniform(-3, 3),
                                  rng.uniform(0.5, 3.0, 3))
                     for _ in range(rng.integers(0, 4))]
            margin = float(rng.uniform(0.0, 0.3))
            got = dynamic_point_mask(pts, boxes, margin)
            expected = np.zeros(len(pts), dtype=bool)
            for i, p in enumerate(pts):
                expected[i] = any(point_in_box(p, b, margin) for b in boxes)
            assert np.array_equal(got, expected)
        report("criterion 5d (point-in-box removal oracle)", True,
               f"{self.N} randomized instances")

    def test_keyframe_nearest_query(self):
        from dynlo.keyframes import KeyframeDB
        rng = np.random.default_rng(14)
        for _ in range(self.N):
            n = int(rng.integers(1, 60))
            positions = rng.uniform(-40, 40, size=(n, 3))
            rng.uniform(2.0, 8.0)  # the former cell size: same draws as before
            db = KeyframeDB()
            for p in positions:
                db.insert(Pose.from_yaw(0.0, p),
                          PointCloud(rng.normal(size=(3, 3))))
            q = rng.uniform(-45, 45, size=3)
            k = int(rng.integers(1, n + 2))
            got = db.query_nearest(q, k)
            d = np.linalg.norm(positions - q, axis=1)
            expected = [int(i) for i in np.lexsort((np.arange(n), d))[:k]]
            assert got == expected
        report("criterion 5e (keyframe nearest oracle)", True,
               f"{self.N} randomized instances")

    def test_convex_hull(self):
        from dynlo.keyframes import KeyframeDB
        rng = np.random.default_rng(15)
        checked = 0
        while checked < self.N:
            n = int(rng.integers(3, 50))
            xy = rng.uniform(-20, 20, size=(n, 2))
            try:
                hull = ConvexHull(xy)
            except QhullError:
                continue
            db = KeyframeDB()
            for p in xy:
                db.insert(Pose.from_yaw(0.0, (p[0], p[1], 0.0)),
                          PointCloud(rng.normal(size=(3, 3))))
            assert db.convex_hull_ids() == sorted(int(v) for v in hull.vertices)
            checked += 1
        report("criterion 5f (convex hull oracle)", True,
               f"{self.N} randomized instances vs qhull")

    def test_submap_set_algebra(self):
        from dynlo.keyframes import KeyframeDB
        rng = np.random.default_rng(16)
        for _ in range(self.N):
            n = int(rng.integers(1, 40))
            positions = rng.uniform(-40, 40, size=(n, 3))
            db = KeyframeDB()
            for p in positions:
                db.insert(Pose.from_yaw(0.0, p),
                          PointCloud(rng.normal(size=(3, 3))))
            pose = Pose.from_yaw(0.0, rng.uniform(-40, 40, size=3))
            K, L, J = (int(rng.integers(1, 12)) for _ in range(3))
            alpha = float(rng.uniform(5.0, 40.0))
            ids, submap = db.select_submap(pose, K, L, J, alpha)
            q = pose.translation
            d = np.linalg.norm(positions - q, axis=1)
            nearest = set(int(i) for i in np.lexsort((np.arange(n), d))[:K])

            def nearest_of(pool, count):
                ranked = sorted((float(np.linalg.norm(positions[i] - q)), i)
                                for i in pool)
                return set(i for _, i in ranked[:count])

            expected = (nearest
                        | nearest_of(db.convex_hull_ids(), L)
                        | nearest_of(db.concave_hull_ids(alpha), J))
            assert ids == sorted(expected)
            assert len(submap) == sum(len(db.by_id[i].world) for i in ids)
        report("criterion 5g (submap set algebra oracle)", True,
               f"{self.N} randomized instances")


def _ablation_matrix(seeds=(0, 1, 2, 3, 4)):
    results = {}
    quality = []
    for seed in seeds:
        scene = reference_dynamic_scene(n_scans=200, rays_per_scan=2400)
        res = simulate(scene, seed)
        gt = Trajectory.from_poses(res.gt_poses)
        variants = {
            "full": reference_config(),
            "no_removal": reference_config(),
            "no_constraint": reference_config(),
        }
        variants["no_removal"].removal.enabled = False
        variants["no_constraint"].constraint.enabled = False
        for name, cfg in variants.items():
            out = run_pipeline(res.scans, res.detections, cfg)
            results.setdefault(name, []).append(
                (ape_rmse(out.trajectory, gt), max_z_drift(out.trajectory, gt)))
            if name == "full":
                quality.append(map_pr_rr_f1(
                    RemovalCounts.from_rows(out.provenance_rows)))
    return results, quality


@pytest.fixture(scope="module")
def ablation():
    t0 = time.perf_counter()
    results, quality = _ablation_matrix()
    return results, quality, time.perf_counter() - t0


def test_criterion_6_ablation_directions(ablation):
    results, _, elapsed = ablation
    med = {name: (float(np.median([a for a, _ in vals])),
                  float(np.median([z for _, z in vals])))
           for name, vals in results.items()}
    removal_ok = med["full"][0] < med["no_removal"][0]
    constraint_ok = med["full"][1] < med["no_constraint"][1]
    time_ok = elapsed < 300.0
    report("criterion 6 (ablation directions)",
           removal_ok and constraint_ok and time_ok,
           "median APE full %.4f < no-removal %.4f; "
           "median max|z| full %.4f < no-constraint %.4f; %.0f s"
           % (med["full"][0], med["no_removal"][0], med["full"][1],
              med["no_constraint"][1], elapsed))


def test_criterion_7_map_quality(ablation):
    _, quality, _ = ablation
    prs = [q.pr for q in quality]
    rrs = [q.rr for q in quality]
    ok = all(pr >= 95.0 for pr in prs) and all(rr >= 90.0 for rr in rrs)
    report("criterion 7 (map PR/RR)", ok,
           "PR %s, RR %s" % (["%.1f" % v for v in prs],
                             ["%.1f" % v for v in rrs]))


def test_criterion_8_run_determinism(tmp_path):
    scene = reference_dynamic_scene(n_scans=25, rays_per_scan=1500)
    res = simulate(scene, 7)
    data_dir = str(tmp_path / "data")
    write_sim_dir(res, data_dir, scene.dt)
    blobs = []
    for tag in ("a", "b"):
        traj = str(tmp_path / f"traj_{tag}.txt")
        mp = str(tmp_path / f"map_{tag}.txt")
        rc = cli_main(["run", "--scans", os.path.join(data_dir, "scans"),
                       "--detections", os.path.join(data_dir, "detections"),
                       "--out-traj", traj, "--out-map", mp])
        assert rc == 0
        blobs.append((open(traj, "rb").read(), open(mp, "rb").read()))
    ok = blobs[0] == blobs[1]
    report("criterion 8 (byte-identical reruns)", ok,
           f"trajectory bytes {len(blobs[0][0])}, map bytes {len(blobs[0][1])}")


def test_criterion_9_throughput_report():
    # soft target: report the per-stage breakdown, never fail on timing.
    # ~27k rays land at ~20k in-range points per scan after range culling.
    base = reference_dynamic_scene(n_scans=20, rays_per_scan=27000)
    sensor = SensorModel(rays_per_scan=27000, max_range=45.0, noise_sigma=0.03)
    scene = SimScene(dt=base.dt, ego_poses=base.ego_poses, sensor=sensor,
                     rects=base.rects, boxes=base.boxes, movers=base.movers)
    res = simulate(scene, 0)
    out = run_pipeline(res.scans, res.detections, reference_config())
    s = stats_summary(out.stats)
    within = s["total_ms"] < 50.0
    print("criterion 9 (throughput report, ~%d raw points/scan): "
          "Preprocessing %.2f ms, Tracker %.2f ms, Odometry %.2f ms, "
          "Total %.2f ms/scan -> %s 50 ms soft target"
          % (len(res.scans[0]), s["preprocess_ms"], s["tracker_ms"],
             s["odometry_ms"], s["total_ms"],
             "within" if within else "above"))
    report("criterion 9 (throughput reported)", True,
           f"total {s['total_ms']:.1f} ms/scan (soft target, not asserted)")
