import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import classification_scene, transform_rows
from dynlo import removal
from dynlo.geometry import DetectionBox, PointCloud, Pose, point_in_box, rot_z
from dynlo.removal import dynamic_point_mask, remove_dynamic_points
from dynlo.simulate import simulate


def brute_force_mask(points, boxes, margin):
    mask = np.zeros(len(points), dtype=bool)
    for i, p in enumerate(points):
        for b in boxes:
            if point_in_box(p, b, margin):
                mask[i] = True
                break
    return mask


def as_boxes(rows):
    """Box rows ``cx cy cz yaw l w h`` as ``DetectionBox`` for the reference."""
    return [DetectionBox(r[:3], r[3], r[4:]) for r in rows]


def random_boxes(rng, n):
    return [DetectionBox(rng.uniform(-5, 5, 3), rng.uniform(-3, 3),
                         rng.uniform(0.5, 3.0, 3)) for _ in range(n)]


class TestRemoval:
    def test_no_boxes_is_identity(self, rng):
        cloud = PointCloud(rng.normal(size=(100, 3)))
        static, removed = remove_dynamic_points(cloud, np.empty((0, 7)), 0.1)
        assert np.array_equal(static.points, cloud.points)
        assert removed.size == 0

    def test_everything_inside_one_box(self, rng):
        box = DetectionBox((0, 0, 0), 0.2, (4, 4, 4))
        pts = rng.uniform(-1, 1, size=(50, 3))
        static, removed = remove_dynamic_points(PointCloud(pts), np.array([box]),
                                                0.1)
        assert len(static) == 0
        assert np.array_equal(removed, np.arange(50))

    def test_counts_partition_cloud(self, rng):
        cloud = PointCloud(rng.uniform(-6, 6, size=(300, 3)))
        boxes = random_boxes(rng, 4)
        static, removed = remove_dynamic_points(cloud, np.array(boxes), 0.1)
        assert len(static) + removed.size == len(cloud)
        assert np.all(np.diff(removed) > 0)

    def test_matches_brute_force_double_loop(self, rng):
        pts = rng.uniform(-6, 6, size=(400, 3))
        boxes = random_boxes(rng, 5)
        got = dynamic_point_mask(pts, np.array(boxes), 0.1)
        assert np.array_equal(got, brute_force_mask(pts, boxes, 0.1))

    def test_survivor_order_and_labels_preserved(self, rng):
        pts = rng.uniform(-6, 6, size=(200, 3))
        labels = rng.random(200) > 0.5
        boxes = random_boxes(rng, 3)
        static, removed = remove_dynamic_points(
            PointCloud(pts, labels=labels), np.array(boxes), 0.1)
        mask = dynamic_point_mask(pts, np.array(boxes), 0.1)
        assert np.array_equal(static.points, pts[~mask])
        assert np.array_equal(static.labels, labels[~mask])

    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_margin(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4, 4, size=(120, 3))
        boxes = np.array(random_boxes(rng, 2))
        small = dynamic_point_mask(pts, boxes, 0.05)
        large = dynamic_point_mask(pts, boxes, 0.5)
        assert np.all(large[small])  # larger margin removes a superset

    @given(st.integers(0, 2**32 - 1))
    def test_equivariant_under_joint_rigid_transform(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4, 4, size=(80, 3))
        boxes = random_boxes(rng, 2)
        pose = Pose.from_yaw(rng.uniform(-3, 3), rng.normal(size=3))
        before = dynamic_point_mask(pts, np.array(boxes), 0.1)
        moved = transform_rows(pose, boxes)
        after = dynamic_point_mask(pose.apply(pts), moved, 0.1)
        assert np.array_equal(before, after)

    def test_recall_on_labeled_simulated_scene(self):
        # feed ground-truth boxes directly: removal recall vs labels
        scene = classification_scene(mover_speed=5.0, n_scans=10,
                                     noise_sigma=0.02)
        res = simulate(scene, 3)
        total = removed = 0
        for cloud, frame in zip(res.scans, res.detections):
            mask = dynamic_point_mask(cloud.points, frame.boxes, 0.1)
            oracle = brute_force_mask(cloud.points, as_boxes(frame.boxes), 0.1)
            assert np.array_equal(mask, oracle)
            total += int(cloud.labels.sum())
            removed += int((cloud.labels & mask).sum())
        recall = removed / total
        print(f"removal recall vs ground-truth labels: {recall:.3f}")
        assert recall > 0.9


def boundary_points(box, margin):
    """Points on the dilated box's corners, edges and face centres, and the
    neighbouring floats just inside and outside each of them."""
    half = box.dims / 2.0 + margin
    local = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3))) * half
    on = box.center + local @ rot_z(box.yaw).T
    return np.concatenate([on, np.nextafter(on, np.inf),
                           np.nextafter(on, -np.inf)])


class TestOnePassMask:
    def test_exact_faces_and_corners(self):
        # yaw 0 and dyadic sizes: the dilated faces lie exactly on floats
        boxes = [DetectionBox((1.0, -2.0, 0.5), 0.0, (4.0, 1.5, 2.0)),
                 DetectionBox((-3.0, 4.0, 0.0), 0.0, (2.0, 2.0, 1.0))]
        pts = np.concatenate([boundary_points(b, 0.25) for b in boxes])
        got = dynamic_point_mask(pts, np.array(boxes), 0.25)
        assert np.array_equal(got, brute_force_mask(pts, boxes, 0.25))
        # every corner, edge and face point of both boxes is in
        assert got[:27].all() and got[81:108].all()

    @given(st.integers(0, 2**32 - 1))
    def test_faces_and_corners_of_rotated_boxes(self, seed):
        rng = np.random.default_rng(seed)
        offset = rng.choice([0.0, 1e3, 1e6])
        boxes = [DetectionBox(offset + rng.uniform(-5, 5, 3),
                              rng.choice([0.0, np.pi / 2, -np.pi / 2, np.pi,
                                          rng.uniform(-np.pi, np.pi)]),
                              rng.uniform(0.2, 5.0, 3))
                 for _ in range(int(rng.integers(1, 5)))]
        margin = float(rng.choice([0.0, 0.1, rng.uniform(0.0, 0.5)]))
        pts = np.concatenate([boundary_points(b, margin) for b in boxes]
                             + [offset + rng.uniform(-8, 8, size=(50, 3))])
        assert np.array_equal(dynamic_point_mask(pts, np.array(boxes), margin),
                              brute_force_mask(pts, boxes, margin))

    def test_chunked_prefilter_matches_one_chunk(self, rng, monkeypatch):
        pts = rng.uniform(-6, 6, size=(500, 3))
        boxes = random_boxes(rng, 7)
        rows = np.array(boxes)
        whole = dynamic_point_mask(pts, rows, 0.1)
        assert np.array_equal(whole, brute_force_mask(pts, boxes, 0.1))
        for pairs in (1, 20, 7 * 13):
            monkeypatch.setattr(removal, "_CHUNK_PAIRS", pairs)
            assert np.array_equal(dynamic_point_mask(pts, rows, 0.1), whole)

    def test_rotation_stack_is_rot_z_bit_for_bit(self, rng):
        yaws = np.concatenate([rng.uniform(-np.pi, np.pi, 1000),
                               [0.0, -0.0, np.pi, -np.pi, np.pi / 2, 5e-324]])
        stack = removal._rot_z_stack(yaws)
        expected = np.array([rot_z(yaw) for yaw in yaws.tolist()])
        # equal bytes: signed zeros included
        assert stack.tobytes() == expected.tobytes()
        assert removal._rot_z_stack(np.empty(0)).shape == (0, 3, 3)
