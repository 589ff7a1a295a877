import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError, cKDTree

from dynlo.geometry import PointCloud, Pose
from dynlo.keyframes import (KeyframeDB, compute_spaciousness,
                             keyframe_threshold)


def tiny_cloud(rng, n=12):
    pts = rng.normal(size=(n, 3))
    covs = np.stack([np.eye(3)] * n)
    return PointCloud(pts, covariances=covs)


def db_with_positions(rng, positions, cell_size=5.0):
    db = KeyframeDB(cell_size=cell_size)
    for p in positions:
        db.insert(Pose.from_yaw(0.0, p), tiny_cloud(rng))
    return db


class TestSpaciousness:
    def test_fixed_point(self):
        cloud = PointCloud([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0],
                            [0.0, 0.0, 10.0]])
        assert compute_spaciousness(cloud, 10.0) == pytest.approx(10.0)

    def test_cold_start_formula(self):
        cloud = PointCloud([[20.0, 0.0, 0.0]])
        assert compute_spaciousness(cloud, 0.0) == pytest.approx(1.0)

    def test_median_matches_sort_oracle(self, rng):
        pts = rng.normal(scale=8.0, size=(101, 3))
        ranges = sorted(float(np.linalg.norm(p)) for p in pts)
        expected = 0.95 * 3.0 + 0.05 * ranges[50]
        assert compute_spaciousness(PointCloud(pts), 3.0) == pytest.approx(expected)

    def test_empty_cloud_raises(self):
        with pytest.raises(ValueError, match="empty"):
            compute_spaciousness(PointCloud(np.empty((0, 3))), 1.0)


class TestThresholdBands:
    @pytest.mark.parametrize("s,dist", [
        (25.0, 10.0), (20.0, 5.0), (12.0, 5.0), (10.0, 1.0), (7.0, 1.0),
        (5.0, 0.5), (0.0, 0.5),
    ])
    def test_band_table(self, s, dist):
        d, rot = keyframe_threshold(s)
        assert d == dist
        assert rot == 30.0


class TestInsertion:
    def test_empty_db_always_inserts(self, rng):
        db = KeyframeDB()
        assert db.maybe_insert(Pose.identity(), tiny_cloud(rng))
        assert len(db) == 1

    def test_repeat_pose_not_inserted(self, rng):
        db = KeyframeDB()
        pose = Pose.from_yaw(0.1, (1.0, 2.0, 0.0))
        db.maybe_insert(pose, tiny_cloud(rng))
        assert not db.maybe_insert(pose, tiny_cloud(rng))
        assert len(db) == 1

    def test_rotation_alone_can_trigger(self, rng):
        db = KeyframeDB()
        db.maybe_insert(Pose.identity(), tiny_cloud(rng))
        turned = Pose.from_yaw(math.radians(31.0))
        assert db.maybe_insert(turned, tiny_cloud(rng))

    def test_random_walk_matches_linear_scan_oracle(self, rng):
        db = KeyframeDB()
        inserted_poses = []
        decisions = []
        pos = np.zeros(3)
        yaw = 0.0
        for _ in range(120):
            pos = pos + rng.normal(scale=0.35, size=3)
            yaw += rng.normal(scale=0.12)
            pose = Pose.from_yaw(yaw, pos)
            dist_thr, rot_thr = keyframe_threshold(db.spaciousness)
            if inserted_poses:
                dists = [np.linalg.norm(pose.translation - p.translation)
                         for p in inserted_poses]
                nearest = inserted_poses[int(np.argmin(dists))]
                R = nearest.rotation.T @ pose.rotation
                ang = math.acos(min(1.0, max(-1.0, (np.trace(R) - 1) / 2)))
                expected = (min(dists) > dist_thr
                            or ang > math.radians(rot_thr))
            else:
                expected = True
            got = db.maybe_insert(pose, tiny_cloud(rng))
            decisions.append((expected, got))
            if got:
                inserted_poses.append(pose)
        assert all(e == g for e, g in decisions)

    def test_index_consistency_invariant(self, rng):
        db = KeyframeDB(cell_size=2.0)
        for _ in range(60):
            pose = Pose.from_yaw(rng.uniform(-3, 3),
                                 rng.uniform(-20, 20, size=3))
            db.maybe_insert(pose, tiny_cloud(rng))
            db.query_nearest(rng.uniform(-20, 20, size=3), 3)
            indexed = sorted(i for ids in db.spatial_index.values() for i in ids)
            assert indexed == db.ids()
            for cell, ids in db.spatial_index.items():
                for i in ids:
                    assert db._cell(db.by_id[i].pose.translation) == cell


class TestNearestQuery:
    def test_single_keyframe(self, rng):
        db = db_with_positions(rng, [(1.0, 2.0, 0.0)])
        assert db.query_nearest((50.0, 50.0, 0.0), 1) == [0]
        assert db.query_nearest((50.0, 50.0, 0.0), 10) == [0]

    def test_k_exceeds_db_returns_all_sorted(self, rng):
        db = db_with_positions(rng, [(0, 0, 0), (10, 0, 0), (3, 0, 0)])
        assert db.query_nearest((0.1, 0, 0), 10) == [0, 2, 1]

    def test_matches_brute_force_on_200(self, rng):
        positions = rng.uniform(-60, 60, size=(200, 3))
        db = db_with_positions(rng, positions)
        for _ in range(20):
            q = rng.uniform(-70, 70, size=3)
            k = int(rng.integers(1, 15))
            got = db.query_nearest(q, k)
            d = np.linalg.norm(positions - q, axis=1)
            expected = [int(i) for i in np.lexsort((np.arange(200), d))[:k]]
            assert got == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_property_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        positions = rng.uniform(-30, 30, size=(n, 3))
        db = db_with_positions(rng, positions, cell_size=4.0)
        q = rng.uniform(-35, 35, size=3)
        k = int(rng.integers(1, n + 3))
        got = db.query_nearest(q, k)
        d = np.linalg.norm(positions - q, axis=1)
        expected = [int(i) for i in np.lexsort((np.arange(n), d))[:k]]
        assert got == expected


class TestHulls:
    def test_square_plus_center(self, rng):
        pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0.5, 0.5, 0.0)]
        db = db_with_positions(rng, pts)
        assert db.convex_hull_ids() == [0, 1, 2, 3]

    def test_collinear_extremes(self, rng):
        pts = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
        db = db_with_positions(rng, pts)
        assert db.convex_hull_ids() == [0, 3]

    def test_under_three_returns_all(self, rng):
        db = db_with_positions(rng, [(0, 0, 0), (5, 0, 0)])
        assert db.convex_hull_ids() == [0, 1]
        assert db.concave_hull_ids(1.0) == [0, 1]

    def test_matches_qhull_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 60))
            positions = np.column_stack([rng.uniform(-20, 20, size=(n, 2)),
                                         np.zeros(n)])
            db = db_with_positions(rng, positions)
            got = db.convex_hull_ids()
            try:
                hull = ConvexHull(positions[:, :2])
            except QhullError:
                continue
            assert got == sorted(int(v) for v in hull.vertices)

    def test_concave_equals_convex_for_infinite_alpha(self, rng):
        positions = np.column_stack([rng.uniform(-20, 20, size=(30, 2)),
                                     np.zeros(30)])
        db = db_with_positions(rng, positions)
        assert db.concave_hull_ids(float("inf")) == db.convex_hull_ids()

    def test_concave_superset_of_convex(self, rng):
        positions = np.column_stack([rng.uniform(-20, 20, size=(40, 2)),
                                     np.zeros(40)])
        db = db_with_positions(rng, positions)
        convex = set(db.convex_hull_ids())
        concave = set(db.concave_hull_ids(6.0))
        assert convex <= concave

    def test_l_shape_notch_included(self, rng):
        # keyframes along an L: the notch corner is inside the convex hull
        path = [(0, 0), (4, 0), (8, 0), (8, 4), (8, 8),
                (4, 4), (0, 8), (0, 4)]
        positions = [(x, y, 0.0) for x, y in path]
        db = db_with_positions(rng, positions)
        notch = 5  # id of (4, 4)
        assert notch not in db.convex_hull_ids()
        assert notch in db.concave_hull_ids(6.0)


    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_cached_ids_equal_fresh_computation_after_each_insert(self, seed):
        rng = np.random.default_rng(seed)
        db = KeyframeDB()
        alpha = float(rng.uniform(2.0, 20.0))
        for p in rng.uniform(-30, 30, size=(int(rng.integers(1, 25)), 3)):
            db.insert(Pose.from_yaw(0.0, p), tiny_cloud(rng))
            db.select_submap(Pose.identity(), 3, 2, 2, alpha)  # fills the cache
            assert db.convex_hull_ids() == db._convex_hull_ids()
            assert db.concave_hull_ids(alpha) == db._concave_hull_ids(alpha)


class TestSubmap:
    def test_single_keyframe_world_cloud(self, rng):
        db = KeyframeDB()
        pose = Pose.from_yaw(0.5, (3.0, -1.0, 0.2))
        cloud = tiny_cloud(rng)
        db.insert(pose, cloud)
        ids, submap = db.select_submap(Pose.identity(), 5, 5, 5)
        assert ids == [0]
        assert np.allclose(submap.points, pose.apply(cloud.points))
        R = pose.rotation
        assert np.allclose(submap.covariances[0], R @ np.eye(3) @ R.T)

    def test_all_selected_once(self, rng):
        positions = rng.uniform(-30, 30, size=(12, 3))
        db = db_with_positions(rng, positions)
        ids, submap = db.select_submap(Pose.identity(), 12, 12, 12)
        assert ids == list(range(12))
        total = sum(len(db.by_id[i].cloud) for i in ids)
        assert len(submap) == total

    def test_matches_set_algebra_oracle(self, rng):
        positions = rng.uniform(-40, 40, size=(50, 3))
        db = db_with_positions(rng, positions)
        pose = Pose.from_yaw(0.0, rng.uniform(-40, 40, size=3))
        K, L, J, alpha = 10, 4, 6, 15.0
        ids, _ = db.select_submap(pose, K, L, J, alpha)
        q = pose.translation
        d = np.linalg.norm(positions - q, axis=1)
        nearest = set(int(i) for i in np.lexsort((np.arange(50), d))[:K])
        def nearest_of(pool, count):
            ranked = sorted((float(np.linalg.norm(positions[i] - q)), i)
                            for i in pool)
            return set(i for _, i in ranked[:count])
        expected = nearest | nearest_of(db.convex_hull_ids(), L) \
            | nearest_of(db.concave_hull_ids(alpha), J)
        assert ids == sorted(expected)

    def test_contains_nearest_whenever_k_positive(self, rng):
        positions = rng.uniform(-40, 40, size=(20, 3))
        db = db_with_positions(rng, positions)
        for _ in range(10):
            pose = Pose.from_yaw(0.0, rng.uniform(-40, 40, size=3))
            ids, _ = db.select_submap(pose, 1, 2, 2)
            nearest = db.query_nearest(pose.translation, 1)[0]
            assert nearest in ids

    def test_cache_invalidated_on_insert(self, rng):
        db = db_with_positions(rng, [(0, 0, 0), (8, 0, 0)])
        ids1, sub1 = db.select_submap(Pose.identity(), 10, 10, 10)
        db.insert(Pose.from_yaw(0, (20, 0, 0)), tiny_cloud(rng))
        ids2, sub2 = db.select_submap(Pose.identity(), 10, 10, 10)
        assert ids2 == [0, 1, 2]
        assert len(sub2) == len(sub1) + len(db.by_id[2].cloud)

    def test_same_ids_return_the_same_cloud(self, rng):
        # the pipeline hangs the submap's k-d tree on this cloud
        db = db_with_positions(rng, [(0, 0, 0), (8, 0, 0), (30, 0, 0)])
        ids1, sub1 = db.select_submap(Pose.identity(), 1, 1, 1)
        ids2, _ = db.select_submap(Pose.from_yaw(0, (30, 0, 0)), 1, 1, 1)
        ids3, sub3 = db.select_submap(Pose.identity(), 1, 1, 1)
        assert ids1 == ids3 != ids2
        assert sub3 is sub1
        db.insert(Pose.from_yaw(0, (60, 0, 0)), tiny_cloud(rng))
        ids4, sub4 = db.select_submap(Pose.identity(), 1, 1, 1)
        assert ids4 == ids1
        assert sub4 is not sub1 and sub4.tree is None

    def test_empty_db_raises(self):
        with pytest.raises(ValueError, match="empty"):
            KeyframeDB().select_submap(Pose.identity(), 1, 1, 1)

    def test_keyframe_keeps_no_tree(self, rng):
        cloud = tiny_cloud(rng)
        cloud.tree = cKDTree(cloud.points)
        db = KeyframeDB()
        db.insert(Pose.identity(), cloud)
        stored = db.by_id[0].cloud
        assert stored.tree is None
        assert np.shares_memory(stored.points, cloud.points)
        assert np.shares_memory(stored.covariances, cloud.covariances)
