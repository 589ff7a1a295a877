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
import os
from dataclasses import dataclass, field, replace
from typing import List

import numpy as np

from .detections import DetectionFrame
from .geometry import DetectionBox, PointCloud, Pose, rot_z, transform_box
from .removal import dynamic_point_mask


@dataclass
class SensorModel:
    rays_per_scan: int = 4000
    max_range: float = 60.0
    noise_sigma: float = 0.02


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

    @property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.u, self.v)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        ab = rng.random((n, 2))
        return self.origin + ab[:, :1] * self.u + ab[:, 1:] * self.v


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


def box_surface_patches(box: DetectionBox) -> List[RectPatch]:
    """The five visible faces of an oriented box (bottom face omitted)."""
    l, w, h = box.dims
    R = rot_z(box.yaw)
    c = box.center

    def patch(origin, u, v):
        return RectPatch(c + R @ np.asarray(origin, dtype=float),
                         R @ np.asarray(u, dtype=float),
                         R @ np.asarray(v, dtype=float))

    return [
        patch((l / 2, -w / 2, -h / 2), (0, w, 0), (0, 0, h)),   # +x
        patch((-l / 2, -w / 2, -h / 2), (0, w, 0), (0, 0, h)),  # -x
        patch((-l / 2, w / 2, -h / 2), (l, 0, 0), (0, 0, h)),   # +y
        patch((-l / 2, -w / 2, -h / 2), (l, 0, 0), (0, 0, h)),  # -y
        patch((-l / 2, -w / 2, h / 2), (l, 0, 0), (0, w, 0)),   # top
    ]


def _allocate_rays(areas: np.ndarray, budget: int) -> np.ndarray:
    total = float(np.sum(areas))
    if total <= 0.0:
        return np.zeros(len(areas), dtype=int)
    return np.round(budget * areas / total).astype(int)


def simulate(scene: SimScene, seed: int) -> SimResult:
    rng = np.random.default_rng(seed)
    sensor = scene.sensor
    scans: List[PointCloud] = []
    detections: List[DetectionFrame] = []
    for k, ego in enumerate(scene.ego_poses):
        t = k * scene.dt
        mover_boxes = [m.box_at(t) for m in scene.movers]
        patches: List[RectPatch] = list(scene.rects)
        for b in scene.boxes:
            patches.extend(box_surface_patches(b))
        for b in mover_boxes:
            patches.extend(box_surface_patches(b))
        areas = np.array([p.area for p in patches])
        counts = _allocate_rays(areas, sensor.rays_per_scan)
        pieces = [p.sample(rng, int(n)) for p, n in zip(patches, counts) if n > 0]
        world = (np.concatenate(pieces) if pieces else np.empty((0, 3)))
        in_range = np.linalg.norm(world - ego.translation, axis=1) <= sensor.max_range
        world = world[in_range]
        # ground-truth labels come from the noise-free geometry
        labels = dynamic_point_mask(world, mover_boxes, margin=0.0)
        body = ego.inverse().apply(world)
        if sensor.noise_sigma > 0.0 and body.shape[0] > 0:
            body = body + rng.normal(0.0, sensor.noise_sigma, body.shape)
        body_boxes = [transform_box(ego.inverse(), b) for b in mover_boxes]
        scans.append(PointCloud(body, labels=labels))
        detections.append(DetectionFrame(
            k, np.array(body_boxes).reshape(-1, 7),
            np.array([b.cls for b in body_boxes], dtype=object),
            np.ones(len(body_boxes))))
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
    from .config import PipelineConfig

    cfg = PipelineConfig()
    cfg.tracker.measurement_noise = np.diag([4e-4, 4e-4, 4e-4,
                                             1e-4, 1e-4, 1e-4, 1e-4])
    cfg.tracker.process_noise = np.diag([0.4, 0.4, 0.04, 0.01, 0.25,
                                         1e-4, 1e-4, 1e-4])
    cfg.gicp.translation_epsilon = 5e-4
    cfg.gicp.rotation_epsilon = 5e-4
    return cfg


def classification_scene(mover_speed: float, n_scans: int,
                         noise_sigma: float = 0.05,
                         dt: float = 0.1) -> SimScene:
    """Stationary ego watching a single object, moving or parked."""
    ego = [Pose.from_yaw(0.0, (0.0, 0.0, 1.6)) for _ in range(n_scans)]
    rects = [RectPatch((-20, -20, 0), (40, 0, 0), (0, 40, 0))]
    movers = [Mover(DetectionBox((8.0, -10.0, 0.8), math.pi / 2,
                                 (4.2, 1.9, 1.6)),
                    (0.0, mover_speed, 0.0))]
    sensor = SensorModel(rays_per_scan=1500, max_range=40.0,
                         noise_sigma=noise_sigma)
    return SimScene(dt=dt, ego_poses=ego, sensor=sensor, rects=rects,
                    boxes=[], movers=movers)


# --- scene file (JSON) -------------------------------------------------------

def scene_to_json(scene: SimScene) -> str:
    payload = {
        "dt": scene.dt,
        "sensor": {
            "rays_per_scan": scene.sensor.rays_per_scan,
            "max_range": scene.sensor.max_range,
            "noise_sigma": scene.sensor.noise_sigma,
        },
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


def _ego_from_payload(payload: dict) -> List[Pose]:
    if "ego_matrices" in payload:
        poses = []
        for row in payload["ego_matrices"]:
            row = np.asarray(row, dtype=float)
            poses.append(Pose(row[:9].reshape(3, 3), row[9:12]))
        return poses
    ego = payload["ego"]
    if ego.get("kind") == "line":
        return line_ego_path(ego["start"], float(ego.get("yaw", 0.0)),
                             float(ego["speed"]), int(ego["n_scans"]),
                             float(payload["dt"]))
    if ego.get("kind") == "waypoints":
        return [Pose.from_yaw(float(p[3]), p[:3]) for p in ego["poses"]]
    raise ValueError(f"unknown ego path kind '{ego.get('kind')}'")


def scene_from_json(text: str) -> SimScene:
    payload = json.loads(text)
    sensor = SensorModel(**payload.get("sensor", {}))
    rects = [RectPatch(r["origin"], r["u"], r["v"])
             for r in payload.get("rects", [])]
    boxes = [DetectionBox(b["center"], b["yaw"], b["dims"],
                          cls=b.get("cls", "car"))
             for b in payload.get("boxes", [])]
    movers = [Mover(DetectionBox(m["center"], m["yaw"], m["dims"],
                                 cls=m.get("cls", "car")), m["velocity"])
              for m in payload.get("movers", [])]
    return SimScene(dt=float(payload["dt"]), ego_poses=_ego_from_payload(payload),
                    sensor=sensor, rects=rects, boxes=boxes, movers=movers)


def load_scene(path: str) -> SimScene:
    with open(path, "r") as fh:
        return scene_from_json(fh.read())


def write_sim_dir(result: SimResult, out_dir: str, dt: float) -> None:
    """Write scans/, detections/, labels/ and the ground-truth trajectory."""
    from .detections import save_detection_frame
    from .fileio import write_labels, write_scan_bin, write_trajectory
    from .metrics import Trajectory

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
