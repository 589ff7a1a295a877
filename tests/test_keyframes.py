import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError, cKDTree

from conftest import pack, random_pose, unpack
from dynlo.geometry import PointCloud, Pose, conjugation_map, from_euler_zyx
from dynlo.keyframes import (KeyframeDB, compute_spaciousness,
                             keyframe_threshold)


def tiny_cloud(rng, n=12):
    pts = rng.normal(size=(n, 3))
    return PointCloud(pts, covariances=pack([np.eye(3)] * n))


def db_with_positions(rng, positions):
    db = KeyframeDB()
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
        # nearest queries rank ``positions``: row i is keyframe i's translation
        db = KeyframeDB()
        for _ in range(60):
            pose = Pose.from_yaw(rng.uniform(-3, 3),
                                 rng.uniform(-20, 20, size=3))
            db.maybe_insert(pose, tiny_cloud(rng))
            db.query_nearest(rng.uniform(-20, 20, size=3), 3)
            assert db.positions.shape == (len(db), 3)
            for i in range(len(db)):
                assert np.array_equal(db.positions[i],
                                      db.by_id[i].pose.translation)


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

    @pytest.mark.parametrize("q", [
        (1e4, 0.0, 0.0), (-3e3, 7e3, 40.0), (19.0, 5.0, 0.0)])
    def test_far_query_equals_brute_force(self, rng, q):
        # 20 keyframes on a line, queried 10 km away and 5 m off the line
        positions = np.column_stack([2.0 * np.arange(20), np.zeros((20, 2))])
        db = db_with_positions(rng, positions)
        d = np.linalg.norm(positions - np.asarray(q), axis=1)
        for k in (1, 3, 20, 25):
            expected = [int(i) for i in np.lexsort((np.arange(20), d))[:k]]
            assert db.query_nearest(q, k) == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_property_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        positions = rng.uniform(-30, 30, size=(n, 3))
        db = db_with_positions(rng, positions)
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
            assert db.convex_hull_ids() == db._concave_hull_ids(math.inf)
            assert db.concave_hull_ids(alpha) == db._concave_hull_ids(alpha)


class TestSubmap:
    def test_single_keyframe_world_cloud(self, rng):
        db = KeyframeDB()
        pose = Pose.from_yaw(0.5, (3.0, -1.0, 0.2))
        cloud = tiny_cloud(rng)
        db.insert(pose, cloud)
        ids, submap = db.select_submap(Pose.identity(), 5, 5, 5, np.inf)
        assert ids == [0]
        assert np.allclose(submap.points, pose.apply(cloud.points))
        R = pose.rotation
        assert np.allclose(unpack(submap.covariances)[0], R @ np.eye(3) @ R.T)

    def test_all_selected_once(self, rng):
        positions = rng.uniform(-30, 30, size=(12, 3))
        db = db_with_positions(rng, positions)
        ids, submap = db.select_submap(Pose.identity(), 12, 12, 12, np.inf)
        assert ids == list(range(12))
        total = sum(len(db.by_id[i].world) for i in ids)
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
            ids, _ = db.select_submap(pose, 1, 2, 2, np.inf)
            nearest = db.query_nearest(pose.translation, 1)[0]
            assert nearest in ids

    def test_cache_invalidated_on_insert(self, rng):
        db = db_with_positions(rng, [(0, 0, 0), (8, 0, 0)])
        ids1, sub1 = db.select_submap(Pose.identity(), 10, 10, 10, np.inf)
        db.insert(Pose.from_yaw(0, (20, 0, 0)), tiny_cloud(rng))
        ids2, sub2 = db.select_submap(Pose.identity(), 10, 10, 10, np.inf)
        assert ids2 == [0, 1, 2]
        assert len(sub2) == len(sub1) + len(db.by_id[2].world)

    def test_same_ids_return_the_same_cloud(self, rng):
        # the pipeline hangs the submap's k-d tree on this cloud
        db = db_with_positions(rng, [(0, 0, 0), (8, 0, 0), (30, 0, 0)])
        ids1, sub1 = db.select_submap(Pose.identity(), 1, 1, 1, np.inf)
        ids2, _ = db.select_submap(Pose.from_yaw(0, (30, 0, 0)), 1, 1, 1,
                                   np.inf)
        ids3, sub3 = db.select_submap(Pose.identity(), 1, 1, 1, np.inf)
        assert ids1 == ids3 != ids2
        assert sub3 is sub1
        db.insert(Pose.from_yaw(0, (60, 0, 0)), tiny_cloud(rng))
        ids4, sub4 = db.select_submap(Pose.identity(), 1, 1, 1, np.inf)
        assert ids4 == ids1
        assert sub4 is not sub1 and sub4.tree is None

    def test_empty_db_raises(self):
        with pytest.raises(ValueError, match="empty"):
            KeyframeDB().select_submap(Pose.identity(), 1, 1, 1, np.inf)

    def test_keyframe_keeps_no_tree(self, rng):
        cloud = tiny_cloud(rng)
        cloud.tree = cKDTree(cloud.points)
        db = KeyframeDB()
        db.insert(Pose.identity(), cloud)
        stored = db.by_id[0].cloud
        assert stored.tree is None
        assert np.shares_memory(stored.points, cloud.points)
        # the world-frame copy holds the covariances, rotated at insert
        assert stored.covariances is None and stored.labels is None
        world = db.by_id[0].world
        assert world.tree is None
        assert np.array_equal(world.covariances, cloud.covariances)

    def test_stores_packed_rotated_covariances(self, rng):
        # keyframes and submaps hold (6, n) rows, 48 bytes a point, rotated
        # once at insert
        db = KeyframeDB()
        clouds, poses = [], []
        for x in (0.0, 8.0, 16.0):
            n = int(rng.integers(10, 40))
            A = rng.normal(size=(n, 3, 3))
            clouds.append(PointCloud(rng.normal(size=(n, 3)),
                                     pack(A @ A.transpose(0, 2, 1))))
            poses.append(Pose(random_pose(rng).rotation, (x, 0.0, 0.0)))
            db.insert(poses[-1], clouds[-1])
        want = [conjugation_map(p.rotation).T @ c.covariances
                for p, c in zip(poses, clouds)]
        for kf, rows in zip(db.by_id, want):
            assert kf.world.covariances.shape == (6, len(kf.world))
            assert kf.world.covariances.nbytes == 48 * len(kf.world)
            assert np.array_equal(kf.world.covariances, rows)
        ids, submap = db.select_submap(Pose.identity(), 3, 3, 3, np.inf)
        assert ids == [0, 1, 2]
        assert submap.covariances.shape == (6, len(submap))
        assert submap.covariances.nbytes == 48 * len(submap)
        assert np.array_equal(submap.covariances, np.concatenate(want, axis=1))


# --- oracle: the keyframe database before world-frame storage ----------------
# Inline copies of the former implementation: an expanding-ring walk over a
# spatial hash, the hulls split edge by edge in Python, and a submap restitched
# from the body-frame clouds with ``PointCloud.transformed``.

def ref_cell(position, cell_size):
    c = np.floor(np.asarray(position, dtype=float) / cell_size).astype(int)
    return (int(c[0]), int(c[1]), int(c[2]))


def ref_query_nearest(positions, cell_size, position, k):
    index = {}
    for kid, p in enumerate(positions):
        index.setdefault(ref_cell(p, cell_size), set()).add(kid)
    position = np.asarray(position, dtype=float)
    center = ref_cell(position, cell_size)
    ring_cap = int(np.max(np.abs(np.array(list(index)) - np.array(center))))
    found = []
    radius = 0
    while radius <= ring_cap:
        # the occupied cells of ring ``radius``, not every cell of it
        ring = [ids for cell, ids in index.items()
                if max(abs(c - o) for c, o in zip(cell, center)) == radius]
        for ids in ring:
            for kid in sorted(ids):
                found.append((float(np.linalg.norm(positions[kid] - position)),
                              kid))
        if len(found) >= k:
            worst = sorted(found)[k - 1][0]
            if radius * cell_size > worst:
                break
        radius += 1
    return [kid for _, kid in sorted(found)[:k]]


def ref_convex_hull(xy):
    """Andrew monotone chain, collinear points excluded: indices, CCW."""
    order = np.lexsort((xy[:, 1], xy[:, 0]))

    def cross(o, a, b):
        return ((xy[a, 0] - xy[o, 0]) * (xy[b, 1] - xy[o, 1])
                - (xy[a, 1] - xy[o, 1]) * (xy[b, 0] - xy[o, 0]))

    lower, upper = [], []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0.0:
            lower.pop()
        lower.append(int(i))
    for i in order[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0.0:
            upper.pop()
        upper.append(int(i))
    return lower[:-1] + upper[:-1]


def ref_convex_hull_ids(xy):
    return list(range(len(xy))) if len(xy) < 3 else sorted(ref_convex_hull(xy))


def ref_concave_hull_ids(xy, alpha):
    n = len(xy)
    if n < 3:
        return list(range(n))
    polygon = ref_convex_hull(xy)

    @functools.lru_cache(maxsize=None)
    def dist(a, b):  # the former scalar norm, computed once per pair
        return float(np.linalg.norm(xy[a] - xy[b]))

    guard = 0
    changed = True
    while changed and guard < 8 * n:
        changed = False
        guard += 1
        boundary = set(polygon)
        interior = [i for i in range(n) if i not in boundary]
        if not interior:
            break
        for e in range(len(polygon)):
            a = polygon[e]
            b = polygon[(e + 1) % len(polygon)]
            edge_len = dist(a, b)
            if edge_len <= alpha:
                continue
            best = None
            for i in interior:
                longer = max(dist(a, i), dist(i, b))
                if best is None or (longer, i) < best[0]:
                    best = ((longer, i), i)
            if best is None or best[0][0] >= edge_len:
                continue
            polygon.insert(e + 1, best[1])
            changed = True
            break
    return sorted(polygon)


def ref_select_submap(poses, clouds, cell_size, pose, K, L, J, convex,
                      concave):
    """(ids, points, covariances) of the former ``select_submap``, given the
    convex and concave hull ids."""
    positions = np.array([p.translation for p in poses])
    q = pose.translation
    selected = set(ref_query_nearest(positions, cell_size, q, K))
    for pool, count in ((convex, L), (concave, J)):
        ranked = sorted((float(np.linalg.norm(positions[i] - q)), i)
                        for i in pool)
        selected.update(i for _, i in ranked[:count])
    ids = sorted(selected)
    world = [clouds[i].transformed(poses[i]) for i in ids]
    covs = (np.concatenate([c.covariances for c in world], axis=1)
            if all(c.covariances is not None for c in world) else None)
    return ids, np.concatenate([c.points for c in world]), covs


class TestMatchesFormerImplementation:
    @given(st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from(["all", "none", "mixed"]))
    @settings(max_examples=30)
    def test_one_insert_at_a_time(self, seed, grid, covariances):
        """Ids, submap points and covariances equal the former code's after
        every insert. Integer-grid layouts and half-integer queries make exact
        distance and edge-length ties."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 61))
        if grid:
            positions = rng.integers(-6, 7, size=(n, 3)).astype(float)
            positions[:, 2] = rng.integers(0, 2, size=n)
            alpha = float(rng.integers(1, 8))
            cell_size = float(rng.choice([1.0, 2.0, 5.0]))
        else:
            positions = rng.uniform(-30, 30, size=(n, 3))
            alpha = float(rng.uniform(2.0, 25.0))
            cell_size = float(rng.choice([4.0, 8.0]))
        K, L, J = (int(rng.integers(1, 12)) for _ in range(3))
        db = KeyframeDB()
        poses, clouds = [], []
        for i, p in enumerate(positions):
            pose = Pose(from_euler_zyx(*rng.uniform(-math.pi, math.pi, size=3)),
                        p)
            m = int(rng.integers(1, 20))
            covs = None
            if covariances == "all" or (covariances == "mixed"
                                        and rng.random() < 0.7):
                A = rng.normal(size=(m, 3, 3))
                covs = pack(A @ np.swapaxes(A, 1, 2) + 1e-3 * np.eye(3))
            cloud = PointCloud(rng.normal(scale=5.0, size=(m, 3)), covs)
            db.insert(pose, cloud)
            poses.append(pose)
            clouds.append(cloud)
            if grid:
                q = rng.integers(-7, 8, size=3) + rng.choice([0.0, 0.5], size=3)
            else:
                q = rng.uniform(-35, 35, size=3)
            k = int(rng.integers(1, i + 3))
            assert db.query_nearest(q, k) == ref_query_nearest(
                positions[:i + 1], cell_size, q, k)
            xy = positions[:i + 1, :2]
            convex = ref_convex_hull_ids(xy)
            concave = ref_concave_hull_ids(xy, alpha)
            assert db.convex_hull_ids() == convex
            assert db.concave_hull_ids(alpha) == concave
            query = Pose.from_yaw(0.0, q)
            ids, submap = db.select_submap(query, K, L, J, alpha)
            want_ids, points, covs = ref_select_submap(
                poses, clouds, cell_size, query, K, L, J, convex, concave)
            assert ids == want_ids
            assert np.array_equal(submap.points, points)
            if covs is None:
                assert submap.covariances is None
            else:
                assert np.array_equal(submap.covariances, covs)
            assert np.array_equal(db.world_map().points, np.concatenate(
                [pose.apply(c.points) for pose, c in zip(poses, clouds)]))
