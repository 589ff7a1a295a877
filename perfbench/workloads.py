"""Benchmark workloads: scene builders and per-workload sizes and gates.

Every scene is built from the workload seed and the sequence number only,
with public classes of ``dynlo.simulate`` and ``dynlo.geometry``. A run
replays several independently seeded sequences of one workload, because the
accuracy metrics of a single sequence vary too much from seed to seed to
compare two versions of the program.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from dynlo.geometry import DetectionBox, Pose
from dynlo.simulate import (Mover, RectPatch, SensorModel, SimScene,
                            reference_dynamic_scene)

DT = 0.1


def dense_corridor(rng: np.random.Generator, n_scans: int, rays: int,
                   stratum: Tuple[int, int]) -> SimScene:
    """A window of the reference corridor scene at the paper's density.

    Window i of n starts at a seeded scan of the i-th of n equal parts of the
    200-scan reference drive, so every run covers the whole corridor and all
    phases of the crossing movers; point count, scan time and accuracy vary
    along the drive, and random starts made them vary between runs.
    """
    i, n = stratum
    span = 200 - n_scans
    lo, hi = i * span // n, (i + 1) * span // n
    start = int(rng.integers(lo, max(hi, lo + 1)))
    base = reference_dynamic_scene(n_scans=start + n_scans, rays_per_scan=rays,
                                   dt=DT)
    t0 = start * DT
    movers = [Mover(m.box_at(t0), m.velocity) for m in base.movers]
    return SimScene(dt=DT, ego_poses=base.ego_poses[start:], sensor=base.sensor,
                    rects=base.rects, boxes=base.boxes, movers=movers)


def lane_traffic(rng: np.random.Generator, n_scans: int, rays: int,
                 stratum: Tuple[int, int]) -> SimScene:
    """A slow ego on a six-lane road with 60 cars driving in their lanes.

    The scan is sparse (about 1.6k points) while every car is detected in every
    scan, so tracking, removal and the ground window dominate. Cars in one lane
    share a speed and keep about 30 m apart, so boxes never overlap, and every
    car moves at most 1 m per scan relative to the ego, inside the tracker gate.
    """
    ego_speed = 1.0
    ego = [Pose.from_yaw(0.0, (ego_speed * k * DT, 0.0, 1.6))
           for k in range(n_scans)]
    x0, x1, half = -40.0, 60.0 + ego_speed * n_scans * DT, 16.0
    rects = [RectPatch((x0, -half, 0), (x1 - x0, 0, 0), (0, 2 * half, 0)),
             RectPatch((x0, half, 0), (x1 - x0, 0, 0), (0, 0, 6)),
             RectPatch((x0, -half, 0), (x1 - x0, 0, 0), (0, 0, 6))]
    # facade stubs across the road direction keep the along-road translation
    # observable in a sparse scan
    for i, x in enumerate(np.arange(x0 + 2.0, x1, 5.0)):
        side = 1.0 if i % 2 == 0 else -1.0
        rects.append(RectPatch((x + rng.uniform(-1, 1), side * half, 0),
                               (0, -side * 5.0, 0), (0, 0, 6)))
    boxes = []
    for i, x in enumerate(np.arange(x0 + 10.0, x1 - 5.0, 7.0)):
        side = 1.0 if i % 2 == 0 else -1.0
        boxes.append(DetectionBox((x + rng.uniform(-2, 2), side * 12.5, 0.75),
                                  rng.uniform(-0.2, 0.2), (4.2, 1.8, 1.5)))
    lanes = ((-10.5, 1.0), (-7.0, 1.0), (-3.5, 1.0),
             (3.5, -1.0), (7.0, -1.0), (10.5, -1.0))
    per_lane = 10
    spacing = 300.0 / per_lane
    movers = []
    for y, direction in lanes:
        speed = rng.uniform(6.0, 9.0)
        offset = rng.uniform(0.0, spacing)
        for j in range(per_lane):
            x = -150.0 + offset + j * spacing + rng.uniform(-1.5, 1.5)
            dims = (rng.uniform(3.8, 4.8), rng.uniform(1.7, 2.0),
                    rng.uniform(1.4, 1.9))
            yaw = 0.0 if direction > 0 else math.pi
            movers.append(Mover(DetectionBox((x, y, dims[2] / 2), yaw, dims),
                                (direction * speed, 0.0, 0.0)))
    sensor = SensorModel(rays_per_scan=rays, max_range=40.0, noise_sigma=0.03)
    return SimScene(dt=DT, ego_poses=ego, sensor=sensor, rects=rects,
                    boxes=boxes, movers=movers)


def long_route(rng: np.random.Generator, n_scans: int, rays: int,
               stratum: Tuple[int, int]) -> SimScene:
    """A weaving drive at 2.5-4 m/s down a corridor tiled every 30 m.

    A 15 m sensor range keeps the smoothed median point range between 5 and
    10 m, where the keyframe distance threshold is 1 m, so a 60-scan drive
    inserts about 20 keyframes and clears the cached submap every few scans.
    The weave keeps the keyframe positions off a line, so the convex and
    concave hulls are not degenerate.
    """
    mean_speed = 3.25
    amplitude, wavelength = 0.5, rng.uniform(30.0, 40.0)
    phase, speed_phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
    ego = []
    x = 0.0
    for k in range(n_scans):
        arg = 2.0 * math.pi * x / wavelength + phase
        y = amplitude * (math.sin(arg) - math.sin(phase))
        yaw = math.atan(amplitude * 2.0 * math.pi / wavelength * math.cos(arg))
        ego.append(Pose.from_yaw(yaw, (x, y, 1.6)))
        # every sequence sweeps the whole 2.5-4 m/s range, so sequences
        # differ little in keyframe count and submap size
        speed = mean_speed + 0.75 * math.sin(2.0 * math.pi * k / 50.0
                                             + speed_phase)
        x += speed * DT * math.cos(yaw)
    max_range, half, tile = 15.0, 8.0, 30.0
    tiles = int(math.ceil((x + max_range + 15.0) / tile))
    x0, x1 = -10.0, -10.0 + tiles * tile
    rects = [RectPatch((x0, -half, 0), (x1 - x0, 0, 0), (0, 2 * half, 0)),
             RectPatch((x0, half, 0), (x1 - x0, 0, 0), (0, 0, 4)),
             RectPatch((x0, -half, 0), (x1 - x0, 0, 0), (0, 0, 4)),
             RectPatch((x0, -half, 0), (0, 2 * half, 0), (0, 0, 4)),
             RectPatch((x1, -half, 0), (0, 2 * half, 0), (0, 0, 4))]
    for i in range(int((x1 - x0) / 5.0)):
        side = 1.0 if i % 2 == 0 else -1.0
        sx = x0 + (i + 0.5) * 5.0 + rng.uniform(-1.0, 1.0)
        rects.append(RectPatch((sx, side * half, 0),
                               (0, -side * rng.uniform(1.5, 2.5), 0),
                               (0, 0, 4)))
    boxes, movers = [], []
    for t in range(tiles):
        bx = x0 + t * tile
        for j in range(2):
            side = 1.0 if (t + j) % 2 == 0 else -1.0
            px = bx + 6.0 + 9.0 * j + rng.uniform(-2, 2)
            boxes.append(DetectionBox((px, side * (half - 3.5), 0.75),
                                      rng.uniform(-0.4, 0.4), (4.0, 1.8, 1.5)))
        # one crosser per tile, clear of the parked boxes, crosses the route
        # 6-10 m ahead of the ego; as in the reference scene its box yaw is
        # 45 degrees off its velocity. It starts at most 20 m off the route.
        cx = bx + rng.uniform(22.0, 28.0)
        vy = rng.uniform(4.0, 6.0) * (1.0 if t % 2 == 0 else -1.0)
        t_cross = (cx - rng.uniform(6.0, 10.0)) / mean_speed
        y0 = float(np.clip(-vy * t_cross, -20.0, 20.0))
        movers.append(Mover(DetectionBox((cx, y0, 1.0), 3.0 * math.pi / 4,
                                         (4.0, 4.0, 2.0)), (0.0, vy, 0.0)))
        # oncoming traffic beside the route: with crossers alone the box
        # footprints lie on few lines and the posture constraint's ground fit
        # is ill-conditioned, which made sequences drift by metres in z
        side = 1.0 if t % 2 == 0 else -1.0
        ox = bx + rng.uniform(10.0, 20.0)
        movers.append(Mover(DetectionBox((ox, side * 5.0, 0.8), math.pi,
                                         (4.2, 1.8, 1.6)),
                            (-rng.uniform(5.0, 6.5), 0.0, 0.0)))
    sensor = SensorModel(rays_per_scan=rays, max_range=max_range,
                         noise_sigma=0.03)
    return SimScene(dt=DT, ego_poses=ego, sensor=sensor, rects=rects,
                    boxes=boxes, movers=movers)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's run and the ceilings of its correctness gate."""

    name: str
    # (layout generator, scans, rays, (sequence, sequences)) -> scene; only
    # dense_corridor has a position to stratify, the others ignore the stratum
    build: Callable[[np.random.Generator, int, int, Tuple[int, int]], SimScene]
    sequences: int     # independently seeded sequences per run
    scans: int         # scans per sequence
    rays: int          # simulator ray budget per scan
    ape_ceiling_m: float
    rpe_ceiling_m: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("dense_corridor", dense_corridor, sequences=12, scans=8,
                 rays=27000, ape_ceiling_m=0.02, rpe_ceiling_m=0.02),
        Workload("lane_traffic", lane_traffic, sequences=16, scans=20,
                 rays=2600, ape_ceiling_m=0.1, rpe_ceiling_m=0.1),
        Workload("long_route", long_route, sequences=5, scans=60,
                 rays=7000, ape_ceiling_m=0.05, rpe_ceiling_m=0.05),
    )
}


def sequence_dir(root: str, sequence: int) -> str:
    """Directory of one sequence's replay log inside a run's data directory."""
    return os.path.join(root, "seq%02d" % sequence)


def sequence_rng(seed: int, sequence: int) -> np.random.Generator:
    """Scene-layout generator of one sequence of a run."""
    return np.random.default_rng([seed, sequence, 0])


def sequence_sim_seed(seed: int, sequence: int) -> int:
    """Simulator (sampling and noise) seed of one sequence of a run."""
    return int(np.random.default_rng([seed, sequence, 1]).integers(2 ** 31))
