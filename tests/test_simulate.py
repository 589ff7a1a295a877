import math

import numpy as np
import pytest

from dynlo.geometry import DetectionBox, Pose, point_in_box
from dynlo.simulate import (Mover, RectPatch, SensorModel, SimScene,
                            classification_scene, line_ego_path,
                            reference_dynamic_scene, scene_from_json,
                            scene_to_json, simulate)


def wall_scene(n_scans=3, sigma=0.0, movers=()):
    ego = line_ego_path((0.0, 0.0, 1.5), 0.0, 1.0, n_scans, 0.1)
    wall = RectPatch((5.0, -4.0, 0.0), (0.0, 8.0, 0.0), (0.0, 0.0, 3.0))
    return SimScene(dt=0.1, ego_poses=ego,
                    sensor=SensorModel(rays_per_scan=600, max_range=30.0,
                                       noise_sigma=sigma),
                    rects=[wall], boxes=[], movers=list(movers))


class TestSimulate:
    def test_zero_movers_all_static_no_detections(self):
        res = simulate(wall_scene(), seed=0)
        for cloud, frame in zip(res.scans, res.detections):
            assert not cloud.labels.any()
            assert frame.boxes.shape == (0, 7)

    def test_noiseless_wall_points_on_plane(self):
        res = simulate(wall_scene(n_scans=2), seed=0)
        for k, cloud in enumerate(res.scans):
            world = res.gt_poses[k].apply(cloud.points)
            assert np.allclose(world[:, 0], 5.0, atol=1e-9)

    def test_mover_kinematics(self):
        v = np.array([0.0, 5.0, 0.0])
        mover = Mover(DetectionBox((6.0, -3.0, 1.0), 0.5, (2, 2, 2)), v)
        scene = wall_scene(n_scans=4, movers=[mover])
        res = simulate(scene, seed=1)
        centers = []
        for k, frame in enumerate(res.detections):
            assert len(frame.boxes) == 1
            centers.append(res.gt_poses[k].apply(frame.boxes[0, :3]))
        diffs = np.diff(np.array(centers), axis=0)
        assert np.allclose(diffs, v * scene.dt, atol=1e-9)

    def test_mover_points_labeled_dynamic(self):
        mover = Mover(DetectionBox((6.0, 0.0, 1.0), 0.0, (2, 2, 2)),
                      (0.0, 3.0, 0.0))
        res = simulate(wall_scene(n_scans=2, movers=[mover]), seed=2)
        cloud = res.scans[0]
        row = res.detections[0].boxes[0]  # cx cy cz yaw l w h
        # noiseless: labels match box membership exactly
        member = point_in_box(cloud.points, DetectionBox(row[:3], row[3], row[4:]),
                              margin=0.0)
        assert np.array_equal(cloud.labels, member)
        assert cloud.labels.any()

    def test_deterministic_given_seed(self):
        scene = wall_scene(n_scans=3, sigma=0.05,
                           movers=[Mover(DetectionBox((6, 0, 1), 0.0, (2, 2, 2)),
                                         (0, 2, 0))])
        a = simulate(scene, seed=9)
        b = simulate(scene, seed=9)
        for ca, cb in zip(a.scans, b.scans):
            assert np.array_equal(ca.points, cb.points)
            assert np.array_equal(ca.labels, cb.labels)
        c = simulate(scene, seed=10)
        assert not np.array_equal(a.scans[0].points, c.scans[0].points)

    def test_range_culling(self):
        scene = wall_scene()
        scene.sensor = SensorModel(rays_per_scan=500, max_range=2.0,
                                   noise_sigma=0.0)
        res = simulate(scene, seed=0)
        assert all(len(c) == 0 for c in res.scans)  # wall is 5 m away

    def test_detections_in_body_frame(self):
        ego = [Pose.from_yaw(math.pi / 2, (2.0, 0.0, 1.5))]
        mover = Mover(DetectionBox((2.0, 4.0, 1.0), math.pi / 2, (2, 2, 2)),
                      (0, 1, 0))
        scene = SimScene(dt=0.1, ego_poses=ego, sensor=SensorModel(),
                         rects=[], boxes=[], movers=[mover])
        res = simulate(scene, seed=0)
        box = res.detections[0].boxes[0]  # cx cy cz yaw l w h
        # mover 4 m ahead of the ego along its +y heading appears at body +x
        assert np.allclose(box[:3], [4.0, 0.0, -0.5], atol=1e-9)
        assert box[3] == pytest.approx(0.0, abs=1e-12)


class TestReferenceScene:
    def test_shape(self):
        scene = reference_dynamic_scene(n_scans=50)
        assert scene.n_scans == 50
        assert len(scene.movers) >= 3
        assert all(np.linalg.norm(m.velocity) > 1.0 for m in scene.movers)

    def test_classification_scene_speeds(self):
        moving = classification_scene(5.0, 10)
        parked = classification_scene(0.0, 10)
        assert np.linalg.norm(moving.movers[0].velocity) == pytest.approx(5.0)
        assert np.linalg.norm(parked.movers[0].velocity) == 0.0


class TestSceneJson:
    def test_round_trip(self):
        scene = reference_dynamic_scene(n_scans=7)
        text = scene_to_json(scene)
        back = scene_from_json(text)
        assert back.n_scans == scene.n_scans
        assert back.sensor == scene.sensor
        assert len(back.rects) == len(scene.rects)
        assert len(back.movers) == len(scene.movers)
        for a, b in zip(scene.ego_poses, back.ego_poses):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)
        ra = simulate(scene, 4)
        rb = simulate(back, 4)
        for ca, cb in zip(ra.scans, rb.scans):
            assert np.array_equal(ca.points, cb.points)

    def test_line_ego_spec(self):
        text = """
        {"dt": 0.1,
         "sensor": {"rays_per_scan": 100, "max_range": 10.0, "noise_sigma": 0.0},
         "ego": {"kind": "line", "start": [0, 0, 1.5], "yaw": 0.0,
                 "speed": 2.0, "n_scans": 5},
         "rects": [{"origin": [3, -1, 0], "u": [0, 2, 0], "v": [0, 0, 2]}]}
        """
        scene = scene_from_json(text)
        assert scene.n_scans == 5
        assert np.allclose(scene.ego_poses[3].translation, [0.6, 0.0, 1.5])

    def test_unknown_ego_kind(self):
        with pytest.raises(ValueError, match="ego path kind"):
            scene_from_json('{"dt": 0.1, "ego": {"kind": "spline"}}')
