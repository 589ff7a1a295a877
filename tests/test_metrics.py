import math

import numpy as np
import pytest

from conftest import random_pose
from dynlo.geometry import Pose, from_euler_zyx
from dynlo.metrics import (MapQuality, RemovalCounts, Trajectory, align_rigid,
                           ape_rmse, map_pr_rr_f1, max_z_drift, rpe_rmse)


def davenport_alignment(src, dst):
    """Independent rigid-alignment oracle via the quaternion q-method."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    B = (src - cs).T @ (dst - cd)
    K = np.zeros((4, 4))
    K[:3, :3] = B + B.T - np.trace(B) * np.eye(3)
    z = np.array([B[1, 2] - B[2, 1], B[2, 0] - B[0, 2], B[0, 1] - B[1, 0]])
    K[:3, 3] = z
    K[3, :3] = z
    K[3, 3] = np.trace(B)
    vals, vecs = np.linalg.eigh(K)
    q = vecs[:, -1]  # x, y, z, w
    x, y, z_, w = q
    R = np.array([
        [1 - 2 * (y * y + z_ * z_), 2 * (x * y - z_ * w), 2 * (x * z_ + y * w)],
        [2 * (x * y + z_ * w), 1 - 2 * (x * x + z_ * z_), 2 * (y * z_ - x * w)],
        [2 * (x * z_ - y * w), 2 * (y * z_ + x * w), 1 - 2 * (x * x + y * y)],
    ])
    t = cd - R @ cs
    return R, t


def traj_from_poses(poses, dt=0.1):
    return Trajectory.from_poses(list(poses), dt)


def random_traj(rng, n, step=0.5):
    poses = [Pose.identity()]
    for _ in range(n - 1):
        delta = Pose(from_euler_zyx(rng.normal(scale=0.1),
                                    rng.normal(scale=0.02),
                                    rng.normal(scale=0.02)),
                     rng.normal(scale=step, size=3))
        poses.append(poses[-1].compose(delta))
    return traj_from_poses(poses)


class TestApe:
    def test_identical_trajectories(self, rng):
        t = random_traj(rng, 20)
        assert ape_rmse(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_global_rigid_transform(self, rng):
        gt = random_traj(rng, 25)
        T = random_pose(rng)
        est = traj_from_poses([T.compose(p) for p in gt.poses])
        assert ape_rmse(est, gt) == pytest.approx(0.0, abs=1e-9)

    def test_line_with_half_z_offset_matches_oracle(self):
        n = 10
        gt_pts = np.column_stack([np.arange(n, dtype=float),
                                  np.zeros(n), np.zeros(n)])
        est_pts = gt_pts.copy()
        est_pts[n // 2:, 2] += 0.1
        gt = traj_from_poses([Pose(np.eye(3), p) for p in gt_pts])
        est = traj_from_poses([Pose(np.eye(3), p) for p in est_pts])
        R, t = davenport_alignment(est_pts, gt_pts)
        residuals = est_pts @ R.T + t - gt_pts
        expected = float(np.sqrt(np.mean(np.sum(residuals ** 2, axis=1))))
        assert ape_rmse(est, gt) == pytest.approx(expected, abs=1e-9)
        assert expected < 0.05  # alignment soaks up part of the raw 0.1 offset

    def test_matches_independent_evaluator_on_random_trajectories(self, rng):
        for _ in range(20):
            gt = random_traj(rng, 30)
            est = traj_from_poses([
                p.compose(Pose(from_euler_zyx(rng.normal(scale=0.01), 0, 0),
                               rng.normal(scale=0.05, size=3)))
                for p in gt.poses])
            a, b = est.translations(), gt.translations()
            R, t = davenport_alignment(a, b)
            expected = float(np.sqrt(np.mean(
                np.sum((a @ R.T + t - b) ** 2, axis=1))))
            assert ape_rmse(est, gt) == pytest.approx(expected, abs=1e-9)

    def test_alignment_is_optimal_against_perturbations(self, rng):
        gt = random_traj(rng, 15)
        est = traj_from_poses([
            p.compose(Pose.from_yaw(0.01, rng.normal(scale=0.1, size=3)))
            for p in gt.poses])
        a, b = est.translations(), gt.translations()
        base = align_rigid(a, b)
        best = float(np.sqrt(np.mean(np.sum((base.apply(a) - b) ** 2, axis=1))))
        from dynlo.geometry import se3_exp
        for _ in range(30):
            xi = rng.normal(scale=0.05, size=6)
            T = base.compose(se3_exp(xi))
            rmse = float(np.sqrt(np.mean(np.sum((T.apply(a) - b) ** 2, axis=1))))
            assert rmse >= best - 1e-12

    def test_length_mismatch_raises(self, rng):
        a, b = random_traj(rng, 10), random_traj(rng, 11)
        with pytest.raises(ValueError, match="mismatch"):
            ape_rmse(a, b)


class TestRpe:
    def test_identical_trajectories(self, rng):
        t = random_traj(rng, 20)
        assert rpe_rmse(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_global_offset_ignored(self, rng):
        gt = random_traj(rng, 20)
        T = random_pose(rng)
        est = traj_from_poses([T.compose(p) for p in gt.poses])
        assert rpe_rmse(est, gt) == pytest.approx(0.0, abs=1e-9)

    def test_single_corrupted_increment_closed_form(self):
        n = 21
        poses = [Pose(np.eye(3), (float(k), 0.0, 0.0)) for k in range(n)]
        gt = traj_from_poses(poses)
        bad = [Pose(p.rotation, p.translation.copy()) for p in poses]
        # corrupt one increment by 0.3 m: every pose from index 10 shifts
        for k in range(10, n):
            bad[k] = Pose(np.eye(3), bad[k].translation + [0.0, 0.3, 0.0])
        est = traj_from_poses(bad)
        expected = 0.3 / math.sqrt(n - 1)
        assert rpe_rmse(est, gt, delta=1) == pytest.approx(expected, rel=1e-9)

    def test_matches_homogeneous_matrix_oracle(self, rng):
        gt = random_traj(rng, 15)
        est = traj_from_poses([
            p.compose(Pose.from_yaw(rng.normal(scale=0.02),
                                    rng.normal(scale=0.03, size=3)))
            for p in gt.poses])
        delta = 2
        errs = []
        for k in range(len(gt) - delta):
            G = np.linalg.inv(gt.poses[k].matrix()) @ gt.poses[k + delta].matrix()
            E = np.linalg.inv(est.poses[k].matrix()) @ est.poses[k + delta].matrix()
            D = np.linalg.inv(G) @ E
            errs.append(np.linalg.norm(D[:3, 3]))
        expected = float(np.sqrt(np.mean(np.square(errs))))
        assert rpe_rmse(est, gt, delta=delta) == pytest.approx(expected, abs=1e-9)

    def test_delta_validation(self, rng):
        t = random_traj(rng, 5)
        with pytest.raises(ValueError):
            rpe_rmse(t, t, delta=0)
        with pytest.raises(ValueError):
            rpe_rmse(t, t, delta=5)


class TestZDrift:
    def test_anchored_at_start(self, rng):
        gt = random_traj(rng, 10)
        offset = Pose(np.eye(3), (0.0, 0.0, 5.0))
        est = traj_from_poses([offset.compose(p) for p in gt.poses])
        assert max_z_drift(est, gt) == pytest.approx(0.0, abs=1e-9)


class TestMapQuality:
    def counts(self, st_total, dy_total, st_kept, dy_removed):
        return RemovalCounts(static_total=st_total, dynamic_total=dy_total,
                             static_preserved=st_kept, dynamic_removed=dy_removed)

    def test_perfect(self):
        q = map_pr_rr_f1(self.counts(100, 50, 100, 50))
        assert q.pr == pytest.approx(100.0)
        assert q.rr == pytest.approx(100.0)
        assert q.f1 == pytest.approx(1.0)

    def test_nothing_removed(self):
        q = map_pr_rr_f1(self.counts(100, 50, 100, 0))
        assert q.rr == pytest.approx(0.0)
        assert q.f1 == pytest.approx(0.0)

    def test_half_dynamic_removed(self):
        q = map_pr_rr_f1(self.counts(100, 50, 100, 25))
        assert q.pr == pytest.approx(100.0)
        assert q.rr == pytest.approx(50.0)
        assert q.f1 == pytest.approx(2.0 * 100 * 50 / 150 / 100, rel=1e-9)

    def test_undefined_components(self):
        q = map_pr_rr_f1(self.counts(0, 50, 0, 25))
        assert q.pr is None and q.f1 is None
        assert q.rr == pytest.approx(50.0)
        q = map_pr_rr_f1(self.counts(100, 0, 90, 0))
        assert q.rr is None and q.f1 is None

    def test_accumulation(self, rng):
        rows = []
        total = RemovalCounts()
        for k in range(5):
            labels = rng.random(100) > 0.7
            removed = rng.random(100) > 0.5
            rows.append((k, int((~labels).sum()), int(labels.sum()),
                         int((~labels & ~removed).sum()),
                         int((labels & removed).sum())))
            total.static_total += int((~labels).sum())
            total.dynamic_total += int(labels.sum())
            total.static_preserved += int((~labels & ~removed).sum())
            total.dynamic_removed += int((labels & removed).sum())
        counts = RemovalCounts.from_rows(rows)
        assert counts == total
        assert RemovalCounts.from_rows([]) == RemovalCounts()


class TestTrajectoryValidation:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0, 0, 1]), np.zeros(3),
                       [Pose.identity()] * 3)
