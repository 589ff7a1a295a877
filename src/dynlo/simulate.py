"""Synthetic scene generator: surface-sampled scans, ground-truth poses and boxes.

Scenes are built from rectangular surface patches, static oriented boxes, and
movers (boxes translating at constant velocity). Each scan uniformly samples
the visible surfaces (area-weighted ray budget), expresses the points in the
ego body frame, adds isotropic Gaussian noise, and labels points that fall
inside a mover box. Mover boxes are emitted as ground-truth detections in the
body frame. Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import List

import numpy as np

from .config import PipelineConfig
from .detections import VALID_CLASSES, DetectionFrame, save_detection_frame
from .fileio import write_labels, write_scan_bin, write_trajectory
from .geometry import (DetectionBox, PointCloud, Pose, euler_zyx, rot_z,
                       wrap_angle)
from .metrics import Trajectory
from .removal import dynamic_point_mask


def _is_number(value) -> bool:
    # bool is an int to Python, but not a number in a scene file
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, what: str):
    """``value``, a finite JSON number; else ValueError naming ``what``."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a number")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")
    return value


@dataclass
class SensorModel:
    rays_per_scan: int = 4000
    max_range: float = 60.0
    noise_sigma: float = 0.02

    def __post_init__(self):
        for f in fields(self):
            _number(getattr(self, f.name), f"sensor {f.name}")
        if self.rays_per_scan < 0:
            raise ValueError("sensor rays_per_scan must be >= 0")
        if self.max_range <= 0.0:
            raise ValueError("sensor max_range must be > 0")
        if self.noise_sigma < 0.0:
            raise ValueError("sensor noise_sigma must be >= 0")


@dataclass
class RectPatch:
    """Parallelogram patch: origin + a*u + b*v for a, b in [0, 1]."""

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.u = np.asarray(self.u, dtype=float).reshape(3)
        self.v = np.asarray(self.v, dtype=float).reshape(3)


@dataclass
class Mover:
    box: DetectionBox
    velocity: np.ndarray

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)

    def box_at(self, t: float) -> DetectionBox:
        return replace(self.box, center=self.box.center + self.velocity * t)


@dataclass
class SimScene:
    dt: float
    ego_poses: List[Pose]
    sensor: SensorModel = field(default_factory=SensorModel)
    rects: List[RectPatch] = field(default_factory=list)
    boxes: List[DetectionBox] = field(default_factory=list)
    movers: List[Mover] = field(default_factory=list)

    @property
    def n_scans(self) -> int:
        return len(self.ego_poses)


@dataclass
class SimResult:
    scans: List[PointCloud]  # body frame, labels attached (True = on a mover)
    gt_poses: List[Pose]
    detections: List[DetectionFrame]


def _box_faces(dims: np.ndarray, yaw: float) -> np.ndarray:
    """The five visible faces of a box (bottom face omitted): per face, its
    origin's offset from the box centre, u and v, as a (5, 3, 3) array."""
    l, w, h = dims
    R = rot_z(yaw)
    faces = [
        ((l / 2, -w / 2, -h / 2), (0, w, 0), (0, 0, h)),   # +x
        ((-l / 2, -w / 2, -h / 2), (0, w, 0), (0, 0, h)),  # -x
        ((-l / 2, w / 2, -h / 2), (l, 0, 0), (0, 0, h)),   # +y
        ((-l / 2, -w / 2, -h / 2), (l, 0, 0), (0, 0, h)),  # -y
        ((-l / 2, -w / 2, h / 2), (l, 0, 0), (0, w, 0)),   # top
    ]
    return np.array([[R @ np.asarray(x, dtype=float) for x in face]
                     for face in faces])


def _allocate_rays(areas: np.ndarray, budget: int) -> np.ndarray:
    total = float(np.sum(areas))
    if total <= 0.0:
        return np.zeros(len(areas), dtype=int)
    return np.round(budget * areas / total).astype(int)


def simulate(scene: SimScene, seed: int) -> SimResult:
    """Sample every scan of the scene. The surfaces and each one's share of
    the rays are built once; per scan only the movers' boxes move."""
    rng = np.random.default_rng(seed)
    sensor = scene.sensor
    movers = scene.movers
    # every surface is a parallelogram origin + a u + b v: the rects, then
    # the faces of each static box, then those of each mover
    rects = np.array([(r.origin, r.u, r.v) for r in scene.rects]).reshape(-1, 3, 3)
    boxes = scene.boxes + [m.box for m in movers]
    faces = np.array([_box_faces(b.dims, b.yaw) for b in boxes]).reshape(-1, 5, 3, 3)
    centers = np.array([b.center for b in boxes]).reshape(-1, 3)
    u, v = (np.concatenate([rects[:, i], faces[:, :, i].reshape(-1, 3)])
            for i in (1, 2))
    # face by face: the norm of one vector rounds unlike that of a row stack
    areas = np.array([np.linalg.norm(np.cross(a, b)) for a, b in zip(u, v)])
    patch = np.repeat(np.arange(len(areas)),
                      _allocate_rays(areas, sensor.rays_per_scan))
    u, v = u[patch], v[patch]
    rows0 = np.array([m.box for m in movers]).reshape(-1, 7)
    velocities = np.array([m.velocity for m in movers]).reshape(-1, 3)
    classes = np.array([m.box.cls for m in movers], dtype=object)
    scans: List[PointCloud] = []
    detections: List[DetectionFrame] = []
    for k, ego in enumerate(scene.ego_poses):
        rows = rows0.copy()  # cx cy cz yaw l w h
        rows[:, :3] += velocities * (k * scene.dt)
        centers[len(scene.boxes):] = rows[:, :3]
        origins = np.concatenate(
            [rects[:, 0], (centers[:, None] + faces[:, :, 0]).reshape(-1, 3)])
        ab = rng.random((len(patch), 2))
        world = origins[patch] + ab[:, :1] * u + ab[:, 1:] * v
        in_range = np.linalg.norm(world - ego.translation, axis=1) <= sensor.max_range
        world = world[in_range]
        # ground-truth labels come from the noise-free geometry
        labels = dynamic_point_mask(world, rows, margin=0.0)
        inverse = ego.inverse()
        body = inverse.apply(world)
        if sensor.noise_sigma > 0.0 and body.shape[0] > 0:
            body = body + rng.normal(0.0, sensor.noise_sigma, body.shape)
        rows[:, :3] = inverse.apply(rows[:, :3])
        rows[:, 3] = wrap_angle(rows[:, 3] + euler_zyx(inverse.rotation)[0])
        scans.append(PointCloud(body, labels=labels))
        detections.append(DetectionFrame(k, rows, classes.copy(),
                                         np.ones(len(rows))))
    return SimResult(scans=scans, gt_poses=list(scene.ego_poses),
                     detections=detections)


def line_ego_path(start, yaw: float, speed: float, n_scans: int,
                  dt: float) -> List[Pose]:
    """Constant-heading, constant-speed ego path."""
    start = np.asarray(start, dtype=float)
    direction = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    return [Pose.from_yaw(yaw, start + direction * speed * k * dt)
            for k in range(n_scans)]


def reference_dynamic_scene(n_scans: int = 200, rays_per_scan: int = 3800,
                            noise_sigma: float = 0.03,
                            ego_speed: float = 0.8,
                            dt: float = 0.1) -> SimScene:
    """Corridor with parked objects and four fast movers crossing the ego path.

    The ego speed stays below the 1 m/s dynamic threshold so parked objects
    observed from the moving ego remain semi-static for the tracker.
    """
    ego = line_ego_path((0.0, 0.0, 1.6), 0.0, ego_speed, n_scans, dt)
    rects = [
        RectPatch((-10, -12, 0), (70, 0, 0), (0, 24, 0)),  # ground
        RectPatch((-10, 12, 0), (70, 0, 0), (0, 0, 4)),    # left wall
        RectPatch((-10, -12, 0), (70, 0, 0), (0, 0, 4)),   # right wall
        RectPatch((60, -12, 0), (0, 24, 0), (0, 0, 4)),    # end wall
    ]
    # facade stubs perpendicular to the path keep the along-corridor
    # direction observable everywhere
    for i, x in enumerate(range(-5, 60, 10)):
        side = 1.0 if i % 2 == 0 else -1.0
        rects.append(RectPatch((x, side * 12.0, 0),
                               (0, -side * 3.0, 0), (0, 0, 4)))
    boxes = [
        DetectionBox((6.0, -5.0, 0.75), 0.2, (4.0, 1.8, 1.5)),
        DetectionBox((14.0, 5.0, 0.9), -0.3, (3.5, 1.7, 1.8)),
        DetectionBox((24.0, -6.0, 1.0), 1.2, (5.0, 2.0, 2.0)),
        DetectionBox((34.0, 6.0, 0.75), 0.1, (4.0, 1.8, 1.5)),
        DetectionBox((10.0, 9.0, 1.5), 0.0, (1.0, 1.0, 3.0)),
        DetectionBox((28.0, -9.0, 1.5), 0.0, (1.0, 1.0, 3.0)),
        DetectionBox((44.0, 3.0, 1.25), 0.7, (2.0, 2.0, 2.5)),
    ]
    # crossers carry a 45 degree offset between box yaw and velocity so their
    # faces displace along the face normals, the worst case for registration
    oblique = math.pi / 4
    crate = (5.0, 5.0, 2.5)
    movers = [
        Mover(DetectionBox((6.0, -12.0, 1.0), math.pi / 2 + oblique, crate),
              (0.0, 5.0, 0.0)),
        Mover(DetectionBox((12.0, 14.0, 1.0), -math.pi / 2 + oblique, crate),
              (0.0, -5.5, 0.0)),
        Mover(DetectionBox((40.0, 1.8, 1.0), math.pi + oblique, crate),
              (-6.0, 0.0, 0.0)),
        Mover(DetectionBox((2.0, -16.0, 1.0), 1.35 + oblique, crate),
              (1.0, 4.5, 0.0)),
        Mover(DetectionBox((10.0, -48.0, 1.0), math.pi / 2 - oblique, crate),
              (0.0, 5.0, 0.0)),
        Mover(DetectionBox((88.0, 1.0, 1.0), math.pi - oblique, crate),
              (-5.0, 0.0, 0.0)),
    ]
    sensor = SensorModel(rays_per_scan=rays_per_scan, max_range=45.0,
                         noise_sigma=noise_sigma)
    return SimScene(dt=dt, ego_poses=ego, sensor=sensor, rects=rects,
                    boxes=boxes, movers=movers)


def reference_config():
    """Pipeline configuration matched to simulator-generated data.

    The simulator emits exact detection boxes, so the tracker measurement
    noise is small; position process noise is raised because the oblique
    crossers violate the constant-velocity-along-heading model; registration
    epsilons are relaxed to the scene's noise floor.
    """
    cfg = PipelineConfig()
    cfg.tracker.measurement_noise = np.diag([4e-4, 4e-4, 4e-4,
                                             1e-4, 1e-4, 1e-4, 1e-4])
    cfg.tracker.process_noise = np.diag([0.4, 0.4, 0.04, 0.01, 0.25,
                                         1e-4, 1e-4, 1e-4])
    cfg.gicp.translation_epsilon = 5e-4
    cfg.gicp.rotation_epsilon = 5e-4
    return cfg


# --- scene file (JSON) -------------------------------------------------------

def scene_to_json(scene: SimScene) -> str:
    payload = {
        "dt": scene.dt,
        "sensor": asdict(scene.sensor),
        "ego_matrices": [
            np.hstack([p.rotation.reshape(-1), p.translation]).tolist()
            for p in scene.ego_poses
        ],
        "rects": [{"origin": r.origin.tolist(), "u": r.u.tolist(),
                   "v": r.v.tolist()} for r in scene.rects],
        "boxes": [{"center": b.center.tolist(), "yaw": b.yaw,
                   "dims": b.dims.tolist(), "cls": b.cls} for b in scene.boxes],
        "movers": [{"center": m.box.center.tolist(), "yaw": m.box.yaw,
                    "dims": m.box.dims.tolist(), "cls": m.box.cls,
                    "velocity": m.velocity.tolist()} for m in scene.movers],
    }
    return json.dumps(payload, indent=2)


def _list(payload: dict, key: str) -> list:
    """The JSON list under ``key``, empty if the key is absent."""
    items = payload.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"scene {key}: expected a list")
    return items


def _keys(item, where: str, required=(), optional=()) -> dict:
    """``item``, a JSON object that holds every ``required`` key and no key
    outside ``required`` and ``optional``."""
    if not isinstance(item, dict):
        raise ValueError(f"scene {where}: expected an object")
    for key in required:
        if key not in item:
            raise ValueError(f"scene {where}: missing key '{key}'")
    for key in item:
        if key not in required and key not in optional:
            raise ValueError(f"scene {where}: unknown key '{key}'")
    return item


def _numbers(value, n: int, what: str) -> np.ndarray:
    """``value``, a JSON list of ``n`` finite numbers, as floats; else
    ValueError naming ``what``."""
    if not (isinstance(value, list) and len(value) == n
            and all(_is_number(v) and math.isfinite(v) for v in value)):
        raise ValueError(f"{what} must be a list of {n} finite numbers")
    return np.array(value, dtype=float)


def _ego_from_payload(payload: dict) -> List[Pose]:
    if "ego_matrices" in payload:
        poses = []
        for i, row in enumerate(_list(payload, "ego_matrices")):
            row = _numbers(row, 12, f"scene ego_matrices[{i}]")
            R = row[:9].reshape(3, 3)
            # 1e-4 passes a rotation written with six decimals
            if not (np.abs(R.T @ R - np.eye(3)).max() <= 1e-4
                    and np.linalg.det(R) > 0.0):
                raise ValueError(f"scene ego_matrices[{i}]: the first 9 numbers"
                                 " must form a rotation matrix")
            poses.append(Pose(R, row[9:]))
        return poses
    if "ego" not in payload:
        raise ValueError("scene file: missing key 'ego_matrices' or 'ego'")
    ego = payload["ego"]
    kind = ego.get("kind") if isinstance(ego, dict) else None
    if kind == "line":
        _keys(ego, "ego", ("kind", "start", "speed", "n_scans"), ("yaw",))
        ego = {"yaw": 0.0, **ego}
        yaw, speed, n_scans = (_number(ego[key], f"scene ego: '{key}'")
                               for key in ("yaw", "speed", "n_scans"))
        if not (isinstance(n_scans, int) and n_scans >= 0):
            raise ValueError("scene ego: 'n_scans' must be an integer >= 0")
        start = _numbers(ego["start"], 3, "scene ego: 'start'")
        return line_ego_path(start, float(yaw), float(speed), n_scans,
                             float(payload["dt"]))
    raise ValueError(f"unknown ego path kind '{kind}'")


def _rect(item, where: str) -> RectPatch:
    item = _keys(item, where, ("origin", "u", "v"))
    return RectPatch(*(_numbers(item[key], 3, f"scene {where}: '{key}'")
                       for key in ("origin", "u", "v")))


def _box(item, where: str, extra=()) -> DetectionBox:
    item = _keys(item, where, ("center", "yaw", "dims") + extra, ("cls",))
    cls = item.get("cls", "car")
    if cls not in VALID_CLASSES:
        raise ValueError(f"scene {where}: 'cls' must be one of "
                         + ", ".join(f"'{c}'" for c in VALID_CLASSES))
    center, dims = (_numbers(item[key], 3, f"scene {where}: '{key}'")
                    for key in ("center", "dims"))
    if not np.all(dims > 0.0):
        raise ValueError(f"scene {where}: 'dims' must be strictly positive")
    return DetectionBox(center, _number(item["yaw"], f"scene {where}: 'yaw'"),
                        dims, cls=cls)


def scene_from_json(text: str) -> SimScene:
    """Parse a scene file; a missing or unknown key or a bad value raises
    ``ValueError`` naming the key."""
    payload = _keys(json.loads(text), "file", ("dt",),
                    ("sensor", "ego_matrices", "ego", "rects", "boxes", "movers"))
    if _number(payload["dt"], "scene file: 'dt'") <= 0:
        raise ValueError("scene file: 'dt' must be > 0")
    sensor = SensorModel(**_keys(payload.get("sensor", {}), "sensor", (),
                                 [f.name for f in fields(SensorModel)]))
    rects = [_rect(r, f"rects[{i}]") for i, r in enumerate(_list(payload, "rects"))]
    boxes = [_box(b, f"boxes[{i}]") for i, b in enumerate(_list(payload, "boxes"))]
    movers = [Mover(_box(m, f"movers[{i}]", ("velocity",)),
                    _numbers(m["velocity"], 3, f"scene movers[{i}]: 'velocity'"))
              for i, m in enumerate(_list(payload, "movers"))]
    return SimScene(dt=float(payload["dt"]), ego_poses=_ego_from_payload(payload),
                    sensor=sensor, rects=rects, boxes=boxes, movers=movers)


def load_scene(path: str) -> SimScene:
    with open(path, "r") as fh:
        return scene_from_json(fh.read())


def write_sim_dir(result: SimResult, out_dir: str, dt: float) -> None:
    """Write scans/, detections/, labels/ and the ground-truth trajectory."""
    scans_dir = os.path.join(out_dir, "scans")
    det_dir = os.path.join(out_dir, "detections")
    label_dir = os.path.join(out_dir, "labels")
    for d in (scans_dir, det_dir, label_dir):
        os.makedirs(d, exist_ok=True)
    for k, (cloud, frame) in enumerate(zip(result.scans, result.detections)):
        write_scan_bin(os.path.join(scans_dir, "%06d.bin" % k), cloud)
        save_detection_frame(frame, os.path.join(det_dir, "%06d.txt" % k))
        write_labels(os.path.join(label_dir, "%06d.txt" % k), cloud.labels)
    write_trajectory(os.path.join(out_dir, "gt_traj.txt"),
                     Trajectory.from_poses(result.gt_poses, dt))
