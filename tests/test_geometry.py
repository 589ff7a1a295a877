import math
import multiprocessing
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import (einsum_conjugation_map, pack, random_pose,
                      transform_rows, unpack)
from dynlo import geometry
from dynlo.geometry import (DetectionBox, PointCloud, Pose, conjugation_map,
                            euler_zyx, point_in_box, se3_exp, so3_exp,
                            wrap_angle)


def homogeneous_multiply(a: Pose, b: Pose) -> np.ndarray:
    """Brute-force 4x4 oracle for composition."""
    return a.matrix() @ b.matrix()


class TestPose:
    def test_identity_compose_identity(self):
        out = Pose.identity().compose(Pose.identity())
        assert np.allclose(out.matrix(), np.eye(4), atol=1e-15)

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(20):
            p = random_pose(rng)
            out = p.compose(p.inverse())
            assert np.allclose(out.matrix(), np.eye(4), atol=1e-9)

    def test_compose_matches_homogeneous_oracle(self):
        a = Pose.from_yaw(math.pi / 2, (1.0, 0.0, 0.0))
        b = Pose.from_yaw(0.0, (1.0, 0.0, 0.0))
        out = a.compose(b)
        expected = homogeneous_multiply(a, b)
        assert np.allclose(out.matrix(), expected, atol=1e-12)
        # hand value: rotating b's translation by 90 degrees lands on +y
        assert np.allclose(out.translation, [1.0, 1.0, 0.0], atol=1e-12)
        assert np.isclose(euler_zyx(out.rotation)[0], math.pi / 2)

    @given(st.integers(0, 2**32 - 1))
    def test_compose_associative(self, seed):
        rng = np.random.default_rng(seed)
        p, q, r = (random_pose(rng) for _ in range(3))
        left = p.compose(q).compose(r)
        right = p.compose(q.compose(r))
        assert np.allclose(left.matrix(), right.matrix(), atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    def test_apply_composes(self, seed):
        rng = np.random.default_rng(seed)
        p, q = random_pose(rng), random_pose(rng)
        x = rng.normal(size=(7, 3))
        assert np.allclose(p.compose(q).apply(x), p.apply(q.apply(x)), atol=1e-9)

    def test_rotation_stays_orthonormal_under_long_chains(self, rng):
        p = Pose.identity()
        for _ in range(1000):
            p = p.compose(random_pose(rng))
        R = p.rotation
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-9)


class TestApply:
    def test_transformed_covariances_match_conjugation(self, rng):
        A = rng.normal(size=(300, 3, 3))
        C = A @ A.transpose(0, 2, 1)
        pose = random_pose(rng)
        out = PointCloud(rng.normal(size=(300, 3)), pack(C)).transformed(pose)
        R = pose.rotation
        np.testing.assert_allclose(unpack(out.covariances), R @ C @ R.T,
                                   rtol=1e-12, atol=1e-12)

    def test_identity_keeps_cloud(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)),
                           labels=rng.random(50) > 0.5)
        out = cloud.transformed(Pose.identity())
        assert np.allclose(out.points, cloud.points)
        assert out.labels is None  # only raw scans carry labels

    def test_pure_translation(self):
        out = Pose(np.eye(3), (0.0, 0.0, 1.0)).apply([1.0, 2.0, 3.0])
        assert np.allclose(out, [1.0, 2.0, 4.0])

    def test_yaw_quarter_turn(self):
        # oracle: explicit rotation matrix times the vector
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = Pose.from_yaw(math.pi / 2).apply([1.0, 0.0, 0.0])
        assert np.allclose(out, R @ [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_covariances_conjugated(self, rng):
        covs = np.stack([np.diag([1.0, 2.0, 3.0])] * 4)
        cloud = PointCloud(rng.normal(size=(4, 3)), covariances=pack(covs))
        p = random_pose(rng)
        out = cloud.transformed(p)
        for c in unpack(out.covariances):
            assert np.allclose(c, p.rotation @ np.diag([1.0, 2.0, 3.0]) @ p.rotation.T)


class TestDerivedCaches:
    def test_new_points_drop_tree(self, rng):
        pts = rng.normal(size=(20, 3))
        cloud = PointCloud(pts, covariances=pack([np.eye(3)] * 20),
                           tree=cKDTree(pts))
        for out in (cloud.subset(np.arange(10)),
                    cloud.transformed(random_pose(rng))):
            assert out.tree is None


class TestPackedCovariances:
    @pytest.mark.parametrize("n", [1, 5, 7, 9, 12])
    def test_only_six_rows_of_n_accepted(self, rng, n):
        pts = rng.normal(size=(n, 3))
        assert PointCloud(pts, np.zeros((6, n))).covariances.shape == (6, n)
        bad = [(n, 3, 3), (6, n - 1), (6, n + 1)]
        if n != 6:
            bad.append((n, 6))
        for shape in bad:
            with pytest.raises(ValueError, match="covariances"):
                PointCloud(pts, np.zeros(shape))

    def test_subset_takes_columns(self, rng):
        A = rng.normal(size=(8, 3, 3))
        C = A @ A.transpose(0, 2, 1)
        cloud = PointCloud(rng.normal(size=(8, 3)), pack(C))
        index = np.array([5, 0, 5, 2])
        for chosen in (index, np.isin(np.arange(8), index)):
            out = cloud.subset(chosen)
            assert np.array_equal(unpack(out.covariances), C[chosen])


class TestPointInBox:
    def test_center_inside(self):
        box = DetectionBox((1.0, 2.0, 0.5), 0.3, (4.0, 1.8, 1.5))
        assert point_in_box(box.center, box, margin=0.0)

    def test_just_outside_long_axis(self):
        box = DetectionBox((0.0, 0.0, 0.0), 0.0, (4.0, 1.8, 1.5))
        margin = 0.1
        p = np.array([4.0 / 2 + margin + 1e-6, 0.0, 0.0])
        assert not point_in_box(p, box, margin=margin)

    def test_rotated_box_interior(self):
        # oracle: rotate the probe into the box frame explicitly
        box = DetectionBox((0.0, 0.0, 0.0), math.pi / 2, (4.0, 1.8, 1.5))
        p = np.array([0.0, 4.0 / 2 - 1e-3, 0.0])
        c, s = math.cos(-box.yaw), math.sin(-box.yaw)
        local = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) @ p
        assert abs(local[0]) <= 2.0 and abs(local[1]) <= 0.9
        assert point_in_box(p, box, margin=0.0)

    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_joint_rigid_transform(self, seed):
        rng = np.random.default_rng(seed)
        box = DetectionBox(rng.normal(size=3), rng.uniform(-3, 3),
                           rng.uniform(0.5, 4.0, size=3))
        pts = box.center + rng.normal(scale=2.0, size=(40, 3))
        before = point_in_box(pts, box, margin=0.1)
        p = random_pose(rng)
        # joint transform is only exact for yaw-only poses of the box type,
        # so use one for the box and the full pose on points via the box frame
        yaw_pose = Pose.from_yaw(rng.uniform(-3, 3), rng.normal(size=3))
        row = transform_rows(yaw_pose, [box])[0]
        after = point_in_box(yaw_pose.apply(pts),
                             DetectionBox(row[:3], row[3], row[4:]), margin=0.1)
        assert np.array_equal(before, after)


class TestAngles:
    def test_wrap_known_value(self):
        # oracle: subtract 2*pi until inside the interval
        v = 7.0
        while v > math.pi:
            v -= 2.0 * math.pi
        assert np.isclose(wrap_angle(7.0), v)
        assert np.isclose(wrap_angle(7.0), 7.0 - 2.0 * math.pi)

    def test_wrap_boundaries(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    @given(st.floats(-50.0, 50.0))
    def test_wrap_idempotent_and_in_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert np.isclose(wrap_angle(w), w)
        assert np.isclose(math.sin(w), math.sin(theta), atol=1e-9)
        assert np.isclose(math.cos(w), math.cos(theta), atol=1e-9)


class TestConjugationMap:
    def test_bit_equal_to_its_definition(self):
        rng = np.random.default_rng(2024)
        axes = rng.normal(size=(200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        rotations = [np.eye(3), np.diag([1.0, -1.0, -1.0]),
                     np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
        # half turns about random axes, and near them
        rotations += [2.0 * np.outer(a, a) - np.eye(3) for a in axes]
        rotations += [so3_exp((math.pi - 1e-9) * a) for a in axes[:50]]
        rotations += [random_pose(rng).rotation for _ in range(1000)]
        rotations += [so3_exp(rng.normal(scale=1e-6, size=3))
                      for _ in range(100)]
        for R in rotations:
            # registration also passes a transposed view
            for M in (R, R.T):
                assert np.array_equal(conjugation_map(M),
                                      einsum_conjugation_map(M))


class TestSe3Exp:
    def test_zero_twist_is_identity(self):
        p = se3_exp(np.zeros(6))
        assert np.allclose(p.matrix(), np.eye(4), atol=1e-15)

    def test_pure_rotation_matches_yaw(self):
        p = se3_exp([0, 0, 0, 0, 0, 0.3])
        assert np.allclose(p.rotation, Pose.from_yaw(0.3).rotation, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_exp_small_composition(self, seed):
        rng = np.random.default_rng(seed)
        xi = rng.normal(scale=1e-4, size=6)
        p = se3_exp(xi).compose(se3_exp(-xi))
        assert np.allclose(p.matrix(), np.eye(4), atol=1e-12)


class TestDetectionBoxValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            DetectionBox((0, 0, 0), 0.0, (0.0, 1.0, 1.0))

    def test_yaw_normalized_on_construction(self):
        box = DetectionBox((0, 0, 0), 7.0, (1, 1, 1))
        assert -math.pi < box.yaw <= math.pi

    def test_array_of_boxes_is_their_rows(self):
        boxes = [DetectionBox((1, 2, 3), 7.0, (4, 5, 6)),
                 DetectionBox((-1, 0, 0.5), -0.25, (1, 2, 0.5), cls="cyclist")]
        rows = np.array(boxes)
        assert rows.shape == (2, 7) and rows.dtype == float
        for row, box in zip(rows, boxes):
            assert np.array_equal(row, [*box.center, box.yaw, *box.dims])


class _RecordingTree:
    """A cKDTree that records the rows, ``workers`` and thread of each
    query."""

    def __init__(self, points):
        self.tree = cKDTree(points)
        self.calls = []

    def query(self, points, **kwargs):
        self.calls.append((points.copy(), kwargs.get("workers", 1),
                           threading.get_ident()))
        return self.tree.query(points, **kwargs)


def _cloud(rng, n, grid):
    """n points in a 20 m cube; on a 0.5 m grid, with many tied distances."""
    pts = rng.uniform(-10.0, 10.0, size=(n, 3))
    return np.round(pts * 2.0) / 2.0 if grid else pts


def _assert_query_answers(tree, query, k, bound, expected):
    dist, idx = geometry.query_neighbors(tree, query, k, bound)
    np.testing.assert_array_equal(dist, expected[0])
    np.testing.assert_array_equal(idx, expected[1])


class TestQueryNeighbors:
    """Below the size gate a query is one call on one thread. From the gate
    the rows are cut into one contiguous slice per CPU, each queried on one
    thread, one of them by the caller. Either way the results equal a
    one-thread query's bit for bit."""

    GATE = geometry._PARALLEL_QUERY_POINTS
    SIZES = [1, GATE - 1, GATE, GATE + 1, 2 * GATE]

    def _check(self, rng, n_query, grid, k, bound, cpus, gate=GATE):
        target = _RecordingTree(_cloud(rng, 3000, grid))
        query = _cloud(rng, n_query, grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_CPUS", cpus)
            mp.setattr(geometry, "_PARALLEL_QUERY_POINTS", gate)
            mp.setattr(geometry, "_pool", ThreadPoolExecutor(max(1, cpus - 1)))
            dist, idx = geometry.query_neighbors(target, query, k, bound)
        ref_dist, ref_idx = target.tree.query(query, k=k,
                                              distance_upper_bound=bound)
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(idx, ref_idx)
        slices = np.array_split(query, cpus if n_query >= gate else 1)
        rows, workers, threads = zip(*target.calls)
        assert (sorted(r.tobytes() for r in rows)
                == sorted(s.tobytes() for s in slices))
        assert workers == (1,) * len(slices)
        assert threads.count(threading.get_ident()) == 1

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(SIZES),
           st.sampled_from([1, 2, 10]), st.floats(0.05, 2.0),
           st.sampled_from([1, 2, 3]))
    def test_nearest_within_bound(self, seed, grid, n_query, k, bound, cpus):
        self._check(np.random.default_rng(seed), n_query, grid, k, bound,
                    cpus)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(SIZES),
           st.sampled_from([1, 2]), st.sampled_from([1, 2, 3]))
    def test_nearest_unbounded(self, seed, grid, n_query, k, cpus):
        self._check(np.random.default_rng(seed), n_query, grid, k, np.inf,
                    cpus)

    @given(st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([10, *SIZES[1:]]), st.sampled_from([1, 2, 3]))
    def test_ten_nearest(self, seed, grid, n_query, cpus):
        self._check(np.random.default_rng(seed), n_query, grid, 10, np.inf,
                    cpus)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(SIZES),
           st.sampled_from([1, 2, 10]), st.sampled_from([1, 2, 3]))
    def test_indices_only(self, seed, grid, n_query, k, cpus):
        rng = np.random.default_rng(seed)
        target = _RecordingTree(_cloud(rng, 3000, grid))
        query = _cloud(rng, n_query, grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_CPUS", cpus)
            mp.setattr(geometry, "_pool", ThreadPoolExecutor(max(1, cpus - 1)))
            idx = geometry.query_indices(target, query, k)
        np.testing.assert_array_equal(idx, target.tree.query(query, k=k)[1])
        assert len(target.calls) == (cpus if n_query >= self.GATE else 1)

    def test_indices_only_join_no_distances(self, monkeypatch, rng):
        # a split k = 10 query joins n k 8 B of indices: under tracemalloc
        # it peaks at 0.67x n k 24 B (the slices' own outputs, then the
        # join), against 1.33x when it joins the distances as well
        monkeypatch.setattr(geometry, "_CPUS", 2)
        monkeypatch.setattr(geometry, "_pool", ThreadPoolExecutor(1))
        n, k = 17000, 10
        pts = rng.normal(size=(n, 3)) * [20.0, 20.0, 2.0]
        tree = cKDTree(pts)
        tracemalloc.start()
        try:
            geometry.query_indices(tree, pts, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * n * k * 24

    @pytest.mark.parametrize("k, bound", [(1, 1.0), (2, 1.0), (10, np.inf)])
    @pytest.mark.parametrize("gate", [0, GATE])
    @pytest.mark.parametrize("n_query", [0, 1, 2])
    def test_fewer_rows_than_cpus(self, rng, n_query, gate, k, bound):
        self._check(rng, n_query, True, k, bound, 3, gate)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_makes_its_own_pool(self, monkeypatch, rng):
        monkeypatch.setattr(geometry, "_CPUS", 2)
        tree = cKDTree(_cloud(rng, 3000, False))
        query = _cloud(rng, 2 * self.GATE, False)
        expected = tree.query(query, k=2, distance_upper_bound=1.0)
        # the parent's pool threads run before the fork
        _assert_query_answers(tree, query, 2, 1.0, expected)
        child = multiprocessing.get_context("fork").Process(
            target=_assert_query_answers, args=(tree, query, 2, 1.0, expected))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0
