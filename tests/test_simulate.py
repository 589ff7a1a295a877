import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import classification_scene
from dynlo.cli import main as cli_main
from dynlo.config import dump_config, load_config
from dynlo.geometry import (DetectionBox, Pose, euler_zyx, from_euler_zyx,
                            point_in_box, rot_z, so3_exp, wrap_angle)
from dynlo.removal import dynamic_point_mask
from dynlo.simulate import (Mover, RectPatch, SensorModel, SimScene,
                            line_ego_path, load_scene, reference_config,
                            reference_dynamic_scene, scene_from_json,
                            scene_to_json, simulate)


def ref_faces(box):
    """(origin, u, v) of the five visible faces of a box, bottom omitted."""
    l, w, h = box.dims
    R = rot_z(box.yaw)

    def face(origin, u, v):
        return (box.center + R @ np.asarray(origin, dtype=float),
                R @ np.asarray(u, dtype=float), R @ np.asarray(v, dtype=float))

    return [face((l / 2, -w / 2, -h / 2), (0, w, 0), (0, 0, h)),
            face((-l / 2, -w / 2, -h / 2), (0, w, 0), (0, 0, h)),
            face((-l / 2, w / 2, -h / 2), (l, 0, 0), (0, 0, h)),
            face((-l / 2, -w / 2, -h / 2), (l, 0, 0), (0, 0, h)),
            face((-l / 2, -w / 2, h / 2), (l, 0, 0), (0, w, 0))]


def ref_box_in(pose, box):
    """A box re-expressed under a pose: its centre moved, its yaw turned."""
    return replace(box, center=pose.apply(box.center),
                   yaw=wrap_angle(box.yaw + euler_zyx(pose.rotation)[0]))


def ref_simulate(scene, seed):
    """Per-scan reference simulator: every scan rebuilds each surface, its
    area and its ray share, moves each mover's box and samples surface by
    surface. Returns per scan the body points, labels, box rows, classes."""
    rng = np.random.default_rng(seed)
    sensor = scene.sensor
    out = []
    for k, ego in enumerate(scene.ego_poses):
        boxes = [m.box_at(k * scene.dt) for m in scene.movers]
        patches = [(r.origin, r.u, r.v) for r in scene.rects]
        for b in scene.boxes + boxes:
            patches.extend(ref_faces(b))
        areas = np.array([float(np.linalg.norm(np.cross(u, v)))
                          for _, u, v in patches])
        total = float(np.sum(areas))
        counts = (np.round(sensor.rays_per_scan * areas / total).astype(int)
                  if total > 0.0 else np.zeros(len(areas), dtype=int))
        pieces = []
        for (origin, u, v), n in zip(patches, counts):
            if n > 0:
                ab = rng.random((n, 2))
                pieces.append(origin + ab[:, :1] * u + ab[:, 1:] * v)
        world = np.concatenate(pieces) if pieces else np.empty((0, 3))
        world = world[np.linalg.norm(world - ego.translation, axis=1)
                      <= sensor.max_range]
        labels = dynamic_point_mask(world, np.array(boxes).reshape(-1, 7), 0.0)
        body = ego.inverse().apply(world)
        if sensor.noise_sigma > 0.0 and len(body):
            body = body + rng.normal(0.0, sensor.noise_sigma, body.shape)
        body_boxes = [ref_box_in(ego.inverse(), b) for b in boxes]
        out.append((body, labels, np.array(body_boxes).reshape(-1, 7),
                    [b.cls for b in body_boxes]))
    return out


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


@st.composite
def scenes(draw):
    """Small scenes: hypothesis picks the structure (how many rects, boxes,
    movers and scans, which yaws sit at the +-pi wrap, whether there is
    noise) and a seeded generator the coordinates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def yaw():
        wrap = draw(st.sampled_from([None, math.pi, -math.pi]))
        if wrap is None:
            return rng.uniform(-math.pi, math.pi)
        return wrap + draw(st.sampled_from([0.0, 1.0, -1.0])) * rng.uniform(0, 1e-9)

    def box():
        return DetectionBox(rng.uniform(-15, 15, 3), yaw(),
                            rng.uniform(0.2, 5.0, 3),
                            draw(st.sampled_from(["car", "cyclist"])))

    rects = [RectPatch(rng.uniform(-15, 15, 3), rng.uniform(-10, 10, 3),
                       rng.uniform(-10, 10, 3))
             for _ in range(draw(st.integers(0, 2)))]
    # a degenerate rect (u parallel to v) has zero area and gets no rays
    v = rng.uniform(-10, 10, 3)
    rects.insert(draw(st.integers(0, len(rects))),
                 RectPatch(rng.uniform(-15, 15, 3), 2.0 * v, v))
    # tilted ego poses: roll and pitch up to 0.3 rad
    ego = [Pose(from_euler_zyx(yaw(), *rng.uniform(-0.3, 0.3, 2)),
                rng.uniform(-5, 5, 3)) for _ in range(draw(st.integers(1, 4)))]
    sensor = SensorModel(draw(st.integers(0, 400)), rng.uniform(5.0, 40.0),
                         draw(st.sampled_from([0.0, 0.03])))
    return SimScene(dt=rng.uniform(0.05, 0.2), ego_poses=ego, sensor=sensor,
                    rects=rects,
                    boxes=[box() for _ in range(draw(st.integers(0, 3)))],
                    movers=[Mover(box(), rng.uniform(-6, 6, 3))
                            for _ in range(draw(st.integers(0, 3)))])


class TestMatchesPerScanReference:
    @given(scenes(), st.integers(0, 2**32 - 1))
    def test_bit_equal(self, scene, seed):
        res = simulate(scene, seed)
        ref = ref_simulate(scene, seed)
        assert len(res.scans) == len(ref) == scene.n_scans
        for cloud, frame, pose, want, (points, labels, rows, classes) in zip(
                res.scans, res.detections, res.gt_poses, scene.ego_poses, ref):
            assert cloud.points.tobytes() == points.tobytes()
            assert cloud.points.shape == points.shape
            assert np.array_equal(cloud.labels, labels)
            assert frame.boxes.dtype == rows.dtype
            assert frame.boxes.shape == rows.shape
            assert frame.boxes.tobytes() == rows.tobytes()
            assert list(frame.classes) == classes
            assert np.array_equal(frame.scores, np.ones(len(rows)))
            assert pose.rotation.tobytes() == want.rotation.tobytes()
            assert pose.translation.tobytes() == want.translation.tobytes()

    def test_reference_scene_bit_equal(self):
        scene = reference_dynamic_scene(n_scans=6)
        res = simulate(scene, 5)
        for cloud, frame, (points, labels, rows, _) in zip(
                res.scans, res.detections, ref_simulate(scene, 5)):
            assert cloud.points.tobytes() == points.tobytes()
            assert np.array_equal(cloud.labels, labels)
            assert frame.boxes.tobytes() == rows.tobytes()


class TestSensorModel:
    @pytest.mark.parametrize("key, value, message", [
        ("rays_per_scan", -5, "rays_per_scan must be >= 0"),
        ("max_range", 0.0, "max_range must be > 0"),
        ("max_range", -1.0, "max_range must be > 0"),
        ("noise_sigma", -1.0, "noise_sigma must be >= 0"),
        ("rays_per_scan", math.inf, "rays_per_scan must be finite"),
        ("max_range", math.inf, "max_range must be finite"),
        ("noise_sigma", math.nan, "noise_sigma must be finite"),
    ])
    def test_rejects_out_of_range(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            SensorModel(**{key: value})

    def test_accepts_bounds(self):
        sensor = SensorModel(rays_per_scan=0, max_range=1e-3, noise_sigma=0.0)
        assert sensor.rays_per_scan == 0


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

    def test_make_reference_scene_script(self, tmp_path):
        script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                              "make_reference_scene.py")
        subprocess.run([sys.executable, script, str(tmp_path)], check=True,
                       capture_output=True)
        config = load_config(str(tmp_path / "reference_config.txt"))
        assert dump_config(config) == dump_config(reference_config())
        scene_path = str(tmp_path / "reference_scene.json")
        with open(scene_path) as fh:
            assert scene_to_json(load_scene(scene_path)) == fh.read()


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


def line_scene_payload():
    return {"dt": 0.1,
            "sensor": {"rays_per_scan": 50, "max_range": 10.0,
                       "noise_sigma": 0.0},
            "ego": {"kind": "line", "start": [0, 0, 1.5], "speed": 1.0,
                    "n_scans": 2},
            "rects": [{"origin": [3, -1, 0], "u": [0, 2, 0], "v": [0, 0, 2]}],
            "movers": [{"center": [5, 0, 1], "yaw": 0.0, "dims": [2, 2, 2],
                        "velocity": [0, 1, 0]}]}


_REMOVE = object()


def edited(path, value=_REMOVE):
    """The line scene with ``value`` set at ``path``, or the key at ``path``
    removed when no value is given."""
    payload = line_scene_payload()
    *head, last = path
    item = payload
    for key in head:
        item = item[key]
    if value is _REMOVE:
        del item[last]
    else:
        item[last] = value
    return payload


class TestMalformedSceneCli:
    """``dynlo simulate`` ends a bad scene file with one error line, exit 1."""

    def run(self, tmp_path, capsys, payload):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(payload))
        rc = cli_main(["simulate", "--scene", str(scene), "--seed", "0",
                       "--out", str(tmp_path / "out")])
        return rc, capsys.readouterr()

    def test_valid_scene_simulates(self, tmp_path, capsys):
        rc, out = self.run(tmp_path, capsys, line_scene_payload())
        assert rc == 0 and out.err == ""
        assert len(os.listdir(tmp_path / "out" / "scans")) == 2

    @pytest.mark.parametrize("payload, message", [
        (edited(["dt"]), "scene file: missing key 'dt'"),
        (edited(["rects", 0, "v"]), "scene rects[0]: missing key 'v'"),
        (edited(["movers", 0, "velocity"]),
         "scene movers[0]: missing key 'velocity'"),
        (edited(["ego"]), "scene file: missing key 'ego_matrices' or 'ego'"),
        (edited(["ego", "speed"]), "scene ego: missing key 'speed'"),
        (edited(["sensor", "rays"], 100), "scene sensor: unknown key 'rays'"),
        (edited(["name"], "x"), "scene file: unknown key 'name'"),
        (edited(["rects", 0, "w"], [1, 0, 0]),
         "scene rects[0]: unknown key 'w'"),
        (edited(["boxes"], [[0, 0, 0]]), "scene boxes[0]: expected an object"),
        # values of the wrong JSON type
        (edited(["dt"], None), "scene file: 'dt' must be a number"),
        (edited(["dt"], "0.1"), "scene file: 'dt' must be a number"),
        (edited(["sensor", "rays_per_scan"], "100"),
         "sensor rays_per_scan must be a number"),
        (edited(["sensor", "noise_sigma"], True),
         "sensor noise_sigma must be a number"),
        (edited(["rects"], {"a": 1}), "scene rects: expected a list"),
        (edited(["movers"], 3), "scene movers: expected a list"),
        (edited(["ego"], {"kind": "waypoints", "poses": [[0, 0, 1.5]]}),
         "unknown ego path kind 'waypoints'"),
        (edited(["ego", "speed"], [1]), "scene ego: 'speed' must be a number"),
        (edited(["ego", "yaw"], None), "scene ego: 'yaw' must be a number"),
        (edited(["ego", "n_scans"], "2"),
         "scene ego: 'n_scans' must be a number"),
        (edited(["ego", "start"], [0, 0]),
         "scene ego: 'start' must be a list of 3 finite numbers"),
        ({**edited(["ego"]),
          "ego_matrices": [[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0], list(range(11))]},
         "scene ego_matrices[1] must be a list of 12 finite numbers"),
        # vectors of the wrong length, type or a non-finite entry
        (edited(["rects", 0, "origin"], [3, -1]),
         "scene rects[0]: 'origin' must be a list of 3 finite numbers"),
        (edited(["rects", 0, "u"], [0, math.nan, 0]),
         "scene rects[0]: 'u' must be a list of 3 finite numbers"),
        (edited(["rects", 0, "v"], [0, 0, "2"]),
         "scene rects[0]: 'v' must be a list of 3 finite numbers"),
        (edited(["movers", 0, "center"], [5, math.inf, 1]),
         "scene movers[0]: 'center' must be a list of 3 finite numbers"),
        (edited(["movers", 0, "dims"], "x"),
         "scene movers[0]: 'dims' must be a list of 3 finite numbers"),
        (edited(["movers", 0, "velocity"], [0, 1]),
         "scene movers[0]: 'velocity' must be a list of 3 finite numbers"),
        (edited(["boxes"], [{"center": [1, 2, 0], "yaw": 0, "dims": [1, 1]}]),
         "scene boxes[0]: 'dims' must be a list of 3 finite numbers"),
        (edited(["ego", "start"], [0, math.nan, 1.5]),
         "scene ego: 'start' must be a list of 3 finite numbers"),
        ({**edited(["ego"]), "ego_matrices": [[math.nan] + list(range(11))]},
         "scene ego_matrices[0] must be a list of 12 finite numbers"),
        # yaws and scalars
        (edited(["movers", 0, "yaw"], math.nan),
         "scene movers[0]: 'yaw' must be finite"),
        (edited(["boxes"], [{"center": [1, 2, 0], "yaw": "0", "dims": [1, 1, 1]}]),
         "scene boxes[0]: 'yaw' must be a number"),
        (edited(["ego", "yaw"], math.inf), "scene ego: 'yaw' must be finite"),
        (edited(["ego", "speed"], math.nan), "scene ego: 'speed' must be finite"),
        (edited(["dt"], math.nan), "scene file: 'dt' must be finite"),
        (edited(["dt"], -0.1), "scene file: 'dt' must be > 0"),
        (edited(["dt"], 0), "scene file: 'dt' must be > 0"),
        (edited(["ego", "n_scans"], 2.7),
         "scene ego: 'n_scans' must be an integer >= 0"),
        (edited(["ego", "n_scans"], -3),
         "scene ego: 'n_scans' must be an integer >= 0"),
        # classes the detection files cannot hold
        (edited(["movers", 0, "cls"], "truck"),
         "scene movers[0]: 'cls' must be one of 'car', 'cyclist'"),
        (edited(["movers", 0, "cls"], "car bus"),
         "scene movers[0]: 'cls' must be one of 'car', 'cyclist'"),
        (edited(["boxes"], [{"center": [1, 2, 0], "yaw": 0, "dims": [1, 1, 1],
                             "cls": 7}]),
         "scene boxes[0]: 'cls' must be one of 'car', 'cyclist'"),
        # box dims and ego rotations out of range
        (edited(["movers", 0, "dims"], [2, 0, 2]),
         "scene movers[0]: 'dims' must be strictly positive"),
        (edited(["boxes"], [{"center": [1, 2, 0], "yaw": 0, "dims": [1, -1, 1]}]),
         "scene boxes[0]: 'dims' must be strictly positive"),
        ({**edited(["ego"]),
          "ego_matrices": [[2, 0, 0, 0, 2, 0, 0, 0, 2, 0.1, 0, 1.5]]},
         "scene ego_matrices[0]: the first 9 numbers must form a rotation matrix"),
        ({**edited(["ego"]), "ego_matrices": [[0] * 12]},
         "scene ego_matrices[0]: the first 9 numbers must form a rotation matrix"),
        ({**edited(["ego"]),
          "ego_matrices": [[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
                           [1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0]]},
         "scene ego_matrices[1]: the first 9 numbers must form a rotation matrix"),
    ])
    def test_missing_or_unknown_key(self, tmp_path, capsys, payload, message):
        rc, out = self.run(tmp_path, capsys, payload)
        assert rc == 1
        assert out.err == f"error: {message}\n"
        assert not (tmp_path / "out" / "scans").exists()
        with pytest.raises(ValueError, match=re.escape(message)):
            scene_from_json(json.dumps(payload))

    def test_rotation_written_with_six_decimals_loads(self, tmp_path, capsys):
        R = np.round(so3_exp([0.1, -0.2, 0.3]), 6)
        payload = {**edited(["ego"]),
                   "ego_matrices": [R.ravel().tolist() + [0, 0, 1.5]] * 2}
        rc, out = self.run(tmp_path, capsys, payload)
        assert rc == 0 and out.err == ""
        assert len(os.listdir(tmp_path / "out" / "scans")) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("rays_per_scan", -5, "sensor rays_per_scan must be >= 0"),
        ("max_range", 0.0, "sensor max_range must be > 0"),
        ("noise_sigma", -1.0, "sensor noise_sigma must be >= 0"),
        ("max_range", math.inf, "sensor max_range must be finite"),
        ("noise_sigma", math.nan, "sensor noise_sigma must be finite"),
    ])
    def test_out_of_range_sensor(self, tmp_path, capsys, key, value, message):
        rc, out = self.run(tmp_path, capsys,
                           edited(["sensor", key], value))
        assert rc == 1
        assert out.err == f"error: {message}\n"
