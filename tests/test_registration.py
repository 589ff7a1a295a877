import math

import numpy as np
import pytest

from dynlo import registration
from dynlo.geometry import PointCloud, Pose, se3_exp, skew, so3_exp
from dynlo.preprocess import estimate_point_covariances
from dynlo.registration import (GicpParams, gicp_align, gicp_gradient,
                                gicp_residual, propagate_world)


def structured_cloud(rng, n_per_surface=700, extent=3.0):
    """Room-scale cloud: floor plus two perpendicular walls."""
    n = n_per_surface
    floor = np.column_stack([rng.uniform(-extent, extent, n),
                             rng.uniform(-extent, extent, n), np.zeros(n)])
    wall_y = np.column_stack([rng.uniform(-extent, extent, n),
                              np.full(n, extent), rng.uniform(0, 2, n)])
    wall_x = np.column_stack([np.full(n, -extent),
                              rng.uniform(-extent, extent, n),
                              rng.uniform(0, 2, n)])
    return np.concatenate([floor, wall_y, wall_x])


@pytest.fixture
def room(rng):
    pts = structured_cloud(rng)
    return estimate_point_covariances(PointCloud(pts), 10, 1e-3)


def rotation_error_deg(a: Pose, b: Pose) -> float:
    R = a.rotation.T @ b.rotation
    c = (np.trace(R) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


class TestResidual:
    def test_identity_on_identical_clouds_is_zero(self, room):
        corr = np.column_stack([np.arange(len(room)), np.arange(len(room))])
        assert gicp_residual(Pose.identity(), room, room, corr) == pytest.approx(0.0)

    def test_single_pair_closed_form(self):
        # both covariances eps*I: residual = |d|^2 / (2 eps)
        eps = 1e-3
        src = PointCloud([[0.0, 0.0, 0.0]], covariances=[eps * np.eye(3)])
        tgt = PointCloud([[0.3, -0.2, 0.5]], covariances=[eps * np.eye(3)])
        d = np.array([0.3, -0.2, 0.5])
        got = gicp_residual(Pose.identity(), src, tgt, [[0, 0]])
        assert got == pytest.approx(float(d @ d) / (2 * eps), rel=1e-9)

    def test_truth_beats_perturbations(self, rng, room):
        T_true = Pose.from_yaw(0.2, (0.4, -0.3, 0.1))
        target = room.transformed(T_true)
        corr = np.column_stack([np.arange(len(room)), np.arange(len(room))])
        at_truth = gicp_residual(T_true, room, target, corr)
        for _ in range(20):
            dv = rng.normal(size=3)
            dv = dv / np.linalg.norm(dv) * rng.uniform(0.1, 0.5)
            dw = rng.normal(size=3)
            dw = dw / np.linalg.norm(dw) * rng.uniform(0.05, 0.2)
            perturbed = T_true.compose(se3_exp(np.concatenate([dv, dw])))
            assert gicp_residual(perturbed, room, target, corr) > at_truth

    def test_nonnegative(self, rng, room):
        target = room.transformed(Pose.from_yaw(0.1, (0.2, 0.0, 0.0)))
        corr = np.column_stack([np.arange(0, len(room), 3),
                                np.arange(0, len(room), 3)])
        for _ in range(10):
            xi = rng.normal(scale=0.2, size=6)
            T = se3_exp(xi)
            assert gicp_residual(T, room, target, corr) >= 0.0


class TestGradient:
    def test_matches_central_finite_differences(self, rng):
        pts = rng.normal(0, 2, (200, 3))
        src = estimate_point_covariances(PointCloud(pts), 8, 1e-3)
        tgt = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.05, pts.shape)), 8, 1e-3)
        corr = np.column_stack([np.arange(200), np.arange(200)])
        for _ in range(5):
            T = se3_exp(rng.normal(scale=0.1, size=6))
            g = gicp_gradient(T, src, tgt, corr)
            h = 1e-6
            fd = np.zeros(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                hi = gicp_residual(T.compose(se3_exp(e)), src, tgt, corr)
                lo = gicp_residual(T.compose(se3_exp(-e)), src, tgt, corr)
                fd[i] = (hi - lo) / (2 * h)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-12)
            assert rel.max() < 1e-5

    def test_zero_at_perfect_alignment(self, room):
        corr = np.column_stack([np.arange(len(room)), np.arange(len(room))])
        g = gicp_gradient(Pose.identity(), room, room, corr)
        assert np.allclose(g, 0.0, atol=1e-12)


def random_spd(rng, n, scale=1.0):
    """Symmetric positive definite stack with eigenvalues in [scale/2, 2 scale]."""
    Q = np.array([so3_exp(w) for w in rng.normal(size=(n, 3))])
    lam = scale * rng.uniform(0.5, 2.0, (n, 3))
    return np.einsum("nij,nj,nkj->nik", Q, lam, Q)


class TestPackedKernels:
    def test_conjugation_matches_dense(self, rng):
        C = random_spd(rng, 50)
        for _ in range(5):
            R = so3_exp(rng.normal(size=3))
            got = registration._pack(C) @ registration._conjugation_map(R)
            want = registration._pack(R @ C @ R.T)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_fused_information_matches_inverse(self, rng):
        cs, ct = random_spd(rng, 200), random_spd(rng, 200, 0.1)
        R = so3_exp(rng.normal(size=3))
        got = registration._fused_information(R, registration._pack(cs),
                                              registration._pack(ct))
        want = np.linalg.inv(ct + R @ cs @ R.T)
        np.testing.assert_allclose(registration._unpack(got), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_singular_fused_stack_is_jittered(self):
        # a planar source covariance and no target covariance: singular
        # until the jitter is added to the diagonal
        eps = registration._JITTER
        cs = registration._pack(np.array([np.eye(3), np.diag([1.0, 1.0, 0.0])]))
        W = registration._fused_information(np.eye(3), cs, np.zeros((2, 6)))
        want = np.array([np.diag([1.0 / (1.0 + eps)] * 3),
                         np.diag([1.0 / (1.0 + eps), 1.0 / (1.0 + eps), 1.0 / eps])])
        np.testing.assert_allclose(registration._unpack(W), want, rtol=1e-12)

    def test_singular_after_jitter_raises(self):
        # the first matrix triggers the retry, which the second one (an
        # eigenvalue of exactly -jitter) fails
        eps = registration._JITTER
        cs = registration._pack(np.array([np.diag([1.0, 1.0, 0.0]),
                                          np.diag([1.0, 1.0, -eps])]))
        with pytest.raises(ValueError, match="fused covariance singular"):
            registration._fused_information(np.eye(3), cs, np.zeros((2, 6)))

    def test_normal_equations_match_dense_reference(self, rng):
        n = 300
        for _ in range(5):
            T = se3_exp(rng.normal(scale=0.3, size=6))
            ps = rng.normal(0.0, 3.0, (n, 3))
            pt = T.apply(ps) + rng.normal(0.0, 0.1, (n, 3))
            cs, ct = random_spd(rng, n, 0.01), random_spd(rng, n, 0.01)
            A, c, err, W = registration._normal_equations(
                T, registration._moment_basis(ps), registration._pack(cs), pt,
                registration._pack(ct))
            # dense reference: sum_i G_i^T B_i G_i with G_i = [-I | skew(p_i)]
            R = T.rotation
            minv = np.linalg.inv(ct + R @ cs @ R.T)
            d = pt - T.apply(ps)
            G = np.zeros((n, 3, 6))
            G[:, :, :3] = -np.eye(3)
            G[:, :, 3:] = [skew(p) for p in ps]
            B = R.T @ minv @ R
            u = np.einsum("nij,nj->ni", minv, d) @ R
            A_ref = np.einsum("nki,nkl,nlj->ij", G, B, G)
            c_ref = np.einsum("nki,nk->i", G, u)
            err_ref = np.einsum("ni,nij,nj->", d, minv, d)
            # entries that cancel to near zero are held to the scale of
            # their matrix
            for got, want in ((A, A_ref), (c, c_ref),
                              (registration._unpack(W), minv)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
            assert err == pytest.approx(err_ref, rel=1e-12)


class TestAlign:
    def test_self_registration_identity(self, room):
        res = gicp_align(room, room, Pose.identity())
        assert res.converged
        assert res.iterations <= 2
        assert res.error == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.pose.matrix(), np.eye(4), atol=1e-12)

    def test_recovers_known_transform(self, room):
        T_true = Pose.from_yaw(math.radians(10.0), (0.5, 0.0, 0.0))
        target = room.transformed(T_true)
        res = gicp_align(room, target, Pose.identity())
        assert res.converged
        assert np.linalg.norm(res.pose.translation - T_true.translation) < 1e-3
        assert rotation_error_deg(res.pose, T_true) < 0.1

    def test_source_permutation_invariance(self, rng, room):
        T_true = Pose.from_yaw(0.05, (0.2, 0.1, 0.0))
        target = room.transformed(T_true)
        perm = rng.permutation(len(room))
        shuffled = PointCloud(room.points[perm], room.covariances[perm])
        a = gicp_align(room, target, Pose.identity())
        b = gicp_align(shuffled, target, Pose.identity())
        assert np.array_equal(a.pose.matrix(), b.pose.matrix())

    def test_convergence_basin(self, rng, room):
        noisy = PointCloud(room.points + rng.normal(0, 0.01, room.points.shape),
                           room.covariances)
        for _ in range(5):
            dv = rng.normal(size=3)
            dv = dv / np.linalg.norm(dv) * rng.uniform(0, 0.3)
            yaw = rng.uniform(-math.radians(5), math.radians(5))
            init = Pose.from_yaw(yaw, dv)
            res = gicp_align(noisy, room, init)
            assert np.linalg.norm(res.pose.translation) < 0.02
            assert rotation_error_deg(res.pose, Pose.identity()) < 0.5

    def test_insufficient_overlap_raises(self, room):
        far = PointCloud(room.points + 100.0, room.covariances)
        with pytest.raises(ValueError, match="insufficient overlap"):
            gicp_align(far, room, Pose.identity())

    def test_requires_covariances(self, room):
        bare = PointCloud(room.points)
        with pytest.raises(ValueError, match="covariances"):
            gicp_align(bare, room, Pose.identity())


class TestCarriedTree:
    @pytest.fixture
    def tree_builds(self, monkeypatch):
        builds = []
        original = registration.cKDTree

        def counting_tree(points):
            builds.append(len(points))
            return original(points)

        monkeypatch.setattr(registration, "cKDTree", counting_tree)
        return builds

    def test_same_result_with_carried_and_fresh_tree(self, room, tree_builds):
        target = estimate_point_covariances(
            room.transformed(Pose.from_yaw(0.05, (0.2, 0.1, 0.0))), 10, 1e-3)
        assert target.tree is not None
        bare = PointCloud(target.points, target.covariances)

        def align(tgt):
            source = PointCloud(room.points, room.covariances)
            return gicp_align(source, tgt, Pose.identity())

        carried = align(target)
        assert tree_builds == []
        fresh = align(bare)
        assert tree_builds == [len(bare)]
        assert np.array_equal(carried.pose.matrix(), fresh.pose.matrix())
        assert (carried.converged, carried.error, carried.iterations) == \
            (fresh.converged, fresh.error, fresh.iterations)

    def test_explicit_target_tree_wins(self, room, tree_builds):
        gicp_align(room, PointCloud(room.points, room.covariances),
                   Pose.identity(), target_tree=room.tree)
        assert tree_builds == []

    def test_source_rank_computed_once(self, room, monkeypatch):
        calls = []
        rank = registration._coordinate_rank

        def counting_rank(points):
            calls.append(len(points))
            return rank(points)

        monkeypatch.setattr(registration, "_coordinate_rank", counting_rank)
        source = PointCloud(room.points, room.covariances)
        first = gicp_align(source, room, Pose.identity())
        second = gicp_align(source, room, Pose.identity())
        assert calls == [len(source)]
        assert np.array_equal(source.rank, rank(source.points))
        assert np.array_equal(first.pose.matrix(), second.pose.matrix())


class TestScanToScanAndMap:
    def test_propagate_world_composes(self, rng):
        from conftest import random_pose
        a, b = random_pose(rng), random_pose(rng)
        out = propagate_world(a, b)
        assert np.allclose(out.matrix(), a.matrix() @ b.matrix(), atol=1e-12)

    def test_stationary_scene_gives_identity(self, rng):
        pts = structured_cloud(rng, 500)
        a = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.01, pts.shape)), 10, 1e-3)
        b = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.01, pts.shape)), 10, 1e-3)
        res = gicp_align(a, b, Pose.identity())
        assert np.linalg.norm(res.pose.translation) < 0.02
        assert rotation_error_deg(res.pose, Pose.identity()) < 0.2

    def test_forward_motion_recovered(self, rng):
        from dynlo.simulate import (SensorModel, SimScene,
                                    reference_dynamic_scene, simulate)
        from dynlo.preprocess import crop_self_returns, voxel_downsample
        base = reference_dynamic_scene(n_scans=2, rays_per_scan=3000,
                                       ego_speed=1.0, dt=1.0)
        # whole scene in range: no sampling frontier between the two scans
        sensor = SensorModel(rays_per_scan=3000, max_range=100.0,
                             noise_sigma=0.02)
        scene = SimScene(dt=base.dt, ego_poses=base.ego_poses,
                         sensor=sensor, rects=base.rects,
                         boxes=base.boxes, movers=[])
        res = simulate(scene, 0)
        clouds = []
        for s in res.scans:
            c = voxel_downsample(crop_self_returns(s, 0.5), 0.25)
            clouds.append(estimate_point_covariances(c, 10, 1e-3))
        # the robot advanced 1 m along +x: the scan content shifted by -x,
        # and registering scan k to scan k-1 recovers the +x ego motion.
        # Per-scan motion must stay below the correspondence gate.
        params = GicpParams(max_correspondence_distance=2.5)
        rel = gicp_align(clouds[1], clouds[0], Pose.identity(), params).pose
        assert np.allclose(rel.translation, [1.0, 0.0, 0.0], atol=1e-2)

    def test_scan_to_map_degenerate_submap_matches_scan_to_scan(self, rng, room):
        T_rel = Pose.from_yaw(0.03, (0.15, -0.05, 0.02))
        current = room.transformed(T_rel.inverse())
        world_prev = Pose.from_yaw(0.8, (4.0, -2.0, 0.3))
        submap = room.transformed(world_prev)
        rel = gicp_align(current, room, Pose.identity()).pose
        init = propagate_world(world_prev, rel)
        refined = gicp_align(current, submap, init).pose
        expected = world_prev.compose(rel)
        assert np.allclose(refined.matrix(), expected.matrix(), atol=1e-6)

    def test_empty_submap_raises(self, room):
        with pytest.raises(ValueError, match="insufficient overlap"):
            gicp_align(room, PointCloud(np.empty((0, 3))), Pose.identity())
