import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_pose, transform_rows
from dynlo.geometry import DetectionBox, Pose, euler_zyx, from_euler_zyx
from dynlo.ground import (MIN_SPREAD_RATIO, ConstraintParams,
                          SlidingBoxWindow, apply_consistency_constraint,
                          fit_ground_from_boxes)


def footprints(boxes):
    """Footprints of one scan of boxes, as the window forms them."""
    window = SlidingBoxWindow(1)
    window.push(np.array(boxes))
    return window.footprints()


def boxes_on_plane(rng, n, normal=(0.0, 0.0, 1.0), offset=0.0, spread=8.0):
    """Boxes whose footprints lie exactly on the plane normal . x = offset."""
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    # basis spanning the plane
    a = np.cross(normal, [1.0, 0.0, 0.0])
    if np.linalg.norm(a) < 1e-6:
        a = np.cross(normal, [0.0, 1.0, 0.0])
    a /= np.linalg.norm(a)
    b = np.cross(normal, a)
    boxes = []
    for _ in range(n):
        foot = offset * normal + rng.uniform(-spread, spread) * a \
            + rng.uniform(-spread, spread) * b
        h = rng.uniform(1.0, 2.5)
        boxes.append(DetectionBox(foot + np.array([0, 0, h / 2.0]),
                                  rng.uniform(-3, 3),
                                  (rng.uniform(2, 5), rng.uniform(1, 2.5), h)))
    return boxes


class TestGroundFit:
    def test_flat_ground_exact(self, rng):
        boxes = boxes_on_plane(rng, 10)
        normal = fit_ground_from_boxes(footprints(boxes),
                                       ConstraintParams(min_inliers=10))
        assert normal is not None
        assert np.allclose(normal, [0, 0, 1], atol=1e-9)
        # all ten footprints are inliers
        assert fit_ground_from_boxes(footprints(boxes),
                                     ConstraintParams(min_inliers=11)) is None

    def test_ground_points_drop_half_height(self):
        box = DetectionBox((1.0, 2.0, 0.75), 0.0, (4.0, 1.8, 1.5))
        pts = footprints([box])
        assert np.allclose(pts[0], [1.0, 2.0, 0.0])

    def test_too_few_boxes_insufficient(self, rng):
        boxes = boxes_on_plane(rng, 2)
        assert fit_ground_from_boxes(footprints(boxes),
                                     ConstraintParams(min_inliers=8)) is None

    def test_inclined_plane_with_outlier(self, rng):
        angle = math.radians(5.0)
        normal = np.array([math.sin(angle), 0.0, math.cos(angle)])
        boxes = boxes_on_plane(rng, 12, normal=normal, offset=0.3)
        outlier = DetectionBox((0.0, 0.0, 5.0), 0.0, (2.0, 2.0, 2.0))
        # at least the twelve boxes on the plane are inliers
        got = fit_ground_from_boxes(footprints(boxes + [outlier]),
                                    ConstraintParams(min_inliers=12))
        assert got is not None
        err = math.degrees(math.acos(min(1.0, abs(float(got @ normal)))))
        assert err < 0.5

    def test_empty_window(self):
        assert fit_ground_from_boxes([], ConstraintParams()) is None

    def lane(self, y_jitter, z_noise, rng):
        """Footprints of 12 cars in one lane along +x."""
        x = np.linspace(-20.0, 20.0, 12)
        return footprints([DetectionBox((xi, rng.normal(0.0, y_jitter),
                                         0.75 + rng.normal(0.0, z_noise)),
                                        0.0, (4.3, 1.8, 1.5)) for xi in x])

    def test_collinear_footprints_refused(self, rng):
        # any plane through the lane fits it: its tilt about the lane is
        # unobserved
        assert fit_ground_from_boxes(self.lane(0.0, 0.0, rng)) is None

    def test_nearly_collinear_footprints_refused(self, rng):
        pts = self.lane(0.05, 0.02, rng)
        spread = np.linalg.eigvalsh(np.cov(pts.T))
        assert spread[1] < MIN_SPREAD_RATIO * spread[2]
        assert fit_ground_from_boxes(pts) is None


class TestConstraint:
    def test_noop_returns_same_object(self):
        pose = Pose.from_yaw(0.4, (1.0, 2.0, 3.0))
        out = apply_consistency_constraint(pose, Pose.identity(), None, 0.5,
                                           ConstraintParams())
        assert out is pose  # bit-identical no-op path

    def test_roll_error_fully_corrected_at_full_blend(self, rng):
        yaw = 0.7
        roll_err = math.radians(2.0)
        true_pose = Pose(from_euler_zyx(yaw, 0.0, 0.0), (3.0, 1.0, 0.5))
        est = Pose(from_euler_zyx(yaw, 0.0, roll_err), true_pose.translation)
        # detections live in the true body frame, so the measured ground
        # normal reflects the true attitude, not the estimated one
        normal_body = true_pose.rotation.T @ np.array([0.0, 0.0, 1.0])
        params = ConstraintParams(blend_weight=1.0)
        out = apply_consistency_constraint(est, true_pose, normal_body, None,
                                           params)
        y, p, r = euler_zyx(out.rotation)
        assert abs(r) < 1e-6
        assert abs(p) < 1e-6
        assert y == pytest.approx(yaw, abs=1e-9)

    def test_tz_blended_toward_previous_on_flat_terrain(self):
        params = ConstraintParams(blend_weight=0.5, z_change_threshold=0.1)
        pose = Pose.from_yaw(0.0, (5.0, 0.0, 1.0))
        prev = Pose.from_yaw(0.0, (4.9, 0.0, 0.6))
        out = apply_consistency_constraint(pose, prev, None, 0.05, params)
        assert out.translation[2] == pytest.approx(0.8)
        assert np.allclose(out.translation[:2], [5.0, 0.0])

    def test_large_box_dz_leaves_tz(self):
        params = ConstraintParams(z_change_threshold=0.1)
        pose = Pose.from_yaw(0.0, (5.0, 0.0, 1.0))
        prev = Pose.from_yaw(0.0, (4.9, 0.0, 0.6))
        out = apply_consistency_constraint(pose, prev, None, 0.5, params)
        assert out is pose

    @given(st.integers(0, 2**32 - 1))
    def test_never_touches_yaw_or_xy(self, seed):
        rng = np.random.default_rng(seed)
        pose = Pose(from_euler_zyx(rng.uniform(-3, 3), rng.uniform(-0.2, 0.2),
                                   rng.uniform(-0.2, 0.2)), rng.normal(size=3))
        prev = random_pose(rng)
        normal = np.array([rng.normal(0, 0.05), rng.normal(0, 0.05), 1.0])
        dz = rng.uniform(-0.2, 0.2)
        out = apply_consistency_constraint(pose, prev,
                                           normal / np.linalg.norm(normal), dz,
                                           ConstraintParams())
        assert np.allclose(out.translation[:2], pose.translation[:2])
        assert euler_zyx(out.rotation)[0] == pytest.approx(
            euler_zyx(pose.rotation)[0], abs=1e-9)


class TestSlidingWindow:
    def test_window_caps_length(self):
        w = SlidingBoxWindow(3)
        box = DetectionBox((0, 0, 0), 0.0, (1, 1, 1))
        for k in range(5):
            w.push(np.array([box] * (k + 1)))
        # only the last 3 frames remain: 3 + 4 + 5 boxes
        assert len(w.footprints()) == 12

    def test_advance_moves_boxes_into_new_frame(self):
        w = SlidingBoxWindow(4)
        w.push(np.array([DetectionBox((1.0, 0.0, 0.0), 0.2, (1, 1, 1))]))
        rel = Pose.from_yaw(math.pi / 2, (0.0, 0.0, 0.0))
        w.advance(rel)
        # the footprint of a unit-height box is its center dropped by 0.5
        center = w.footprints()[0] + [0.0, 0.0, 0.5]
        assert np.allclose(center, [0.0, 1.0, 0.0], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_footprints_match_transformed_boxes(self, seed, window_scans):
        """Footprints equal the boxes' own path: each stored box row carried
        by ``transform_rows`` through every later relative pose, then dropped
        by h/2 along the current z."""
        rng = np.random.default_rng(seed)
        w = SlidingBoxWindow(window_scans)
        frames = []
        for k in range(int(rng.integers(1, 9))):
            if k:
                # tilted relative poses: the drop stays along the current z
                rel = Pose(from_euler_zyx(rng.uniform(-3, 3),
                                          rng.uniform(-0.3, 0.3),
                                          rng.uniform(-0.3, 0.3)),
                           rng.normal(size=3))
                w.advance(rel)
                frames = [transform_rows(rel, f) for f in frames]
            boxes = np.array([
                DetectionBox(rng.normal(scale=20.0, size=3),
                             rng.uniform(-3, 3), rng.uniform(0.5, 4.0, 3))
                for _ in range(int(rng.integers(0, 6)))]).reshape(-1, 7)
            w.push(boxes)  # empty frames too
            frames = (frames + [boxes])[-window_scans:]
        expected = [r[:3] - [0.0, 0.0, r[6] / 2.0] for f in frames for r in f]
        got = w.footprints()
        assert got.shape == (len(expected), 3)
        if expected:
            assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
