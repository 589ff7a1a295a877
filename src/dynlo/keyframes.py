"""Keyframe database with adaptive insertion and submap selection.

Keyframes live in a list indexed by id, beside an array of their
translations that nearest queries rank. Insertion distance adapts to the
environment's spaciousness (smoothed median point range); the scan-to-map
submap unions the K nearest keyframes with the L nearest convex-hull and J
nearest concave-hull keyframes. Keyframe poses never change (there is no
loop closure), so each keyframe's cloud is moved into the world frame once,
at insert, and a submap is a concatenation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .geometry import PointCloud, Pose, rotation_angle


@dataclass
class KeyframeParams:
    k_nearest: int = field(default=10, metadata={"bound": ">= 1"})
    l_hull: int = field(default=10, metadata={"bound": ">= 0"})
    j_concave: int = field(default=10, metadata={"bound": ">= 0"})
    concave_alpha: float = field(default=25.0, metadata={"bound": None})


@dataclass
class Keyframe:
    pose: Pose
    cloud: PointCloud  # the inserted points, body frame, for dump_keyframes
    world: PointCloud  # world-frame points and covariances, no tree


def compute_spaciousness(cloud: PointCloud, prev: float) -> float:
    """Exponentially smoothed median point range: 0.95*prev + 0.05*median."""
    if len(cloud) == 0:
        raise ValueError("empty cloud")
    ranges = np.linalg.norm(cloud.points, axis=1)
    return 0.95 * prev + 0.05 * float(np.median(ranges))


def keyframe_threshold(spaciousness: float) -> Tuple[float, float]:
    """(distance threshold in meters, rotation threshold in degrees)."""
    s = spaciousness
    if s > 20.0:
        dist = 10.0
    elif s > 10.0:
        dist = 5.0
    elif s > 5.0:
        dist = 1.0
    else:
        dist = 0.5
    return dist, 30.0


def _convex_hull_indices(xy: np.ndarray) -> List[int]:
    """Andrew monotone chain on (x, y); collinear boundary points excluded.

    Returns indices into ``xy`` in counter-clockwise hull order.
    """
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    pts = xy.tolist()  # float arithmetic, as on numpy scalars, but faster

    def cross(o, a, b):
        return ((pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1])
                - (pts[a][1] - pts[o][1]) * (pts[b][0] - pts[o][0]))

    lower: List[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0.0:
            lower.pop()
        lower.append(int(i))
    upper: List[int] = []
    for i in order[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0.0:
            upper.pop()
        upper.append(int(i))
    return lower[:-1] + upper[:-1]


class KeyframeDB:
    """Keyframe store; nearest queries rank every keyframe's translation.

    Ids count inserts from 0, so keyframe i is ``by_id[i]`` and its
    translation is ``positions[i]``.
    """

    def __init__(self):
        self.by_id: List[Keyframe] = []
        self.positions = np.empty((0, 3))
        self.spaciousness = 0.0
        self._submap_cache: Dict[Tuple[int, ...], PointCloud] = {}
        # hull ids change only on insert: concave alpha -> ids
        self._hull_cache: Dict[float, List[int]] = {}

    def __len__(self) -> int:
        return len(self.by_id)

    def insert(self, pose: Pose, cloud: PointCloud) -> int:
        if len(cloud) == 0:
            raise ValueError("keyframe cloud must be non-empty")
        self.by_id.append(Keyframe(pose, PointCloud(cloud.points),
                                   cloud.transformed(pose)))
        self.positions = np.vstack([self.positions, pose.translation])
        self._submap_cache.clear()
        self._hull_cache.clear()
        return len(self) - 1  # ids count inserts from 0

    def maybe_insert(self, pose: Pose, cloud: PointCloud) -> bool:
        """Insert when motion since the nearest keyframe exceeds the adaptive threshold."""
        if not self.by_id:
            self.insert(pose, cloud)
            return True
        nearest = self.by_id[self.query_nearest(pose.translation, 1)[0]]
        dist = float(np.linalg.norm(pose.translation - nearest.pose.translation))
        angle = rotation_angle(nearest.pose.rotation.T @ pose.rotation)
        dist_thr, rot_thr_deg = keyframe_threshold(self.spaciousness)
        if dist > dist_thr or angle > math.radians(rot_thr_deg):
            self.insert(pose, cloud)
            return True
        return False

    def query_nearest(self, position, k: int) -> List[int]:
        """K nearest keyframe ids by translation distance, ties by ascending id."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._nearest(np.arange(len(self)), position, k).tolist()

    def _nearest(self, ids: Sequence[int], position, count: int) -> np.ndarray:
        """The ``count`` of ``ids`` nearest ``position``, ties by ascending id."""
        ids = np.asarray(ids, dtype=np.int64)
        dist = np.linalg.norm(self.positions[ids] - position, axis=1)
        return ids[np.lexsort((ids, dist))[:count]]

    def convex_hull_ids(self) -> List[int]:
        """Convex hull vertex ids (all if < 3): a concave hull with no split."""
        return self.concave_hull_ids(math.inf)

    def concave_hull_ids(self, alpha: float) -> List[int]:
        """Concave boundary ids: convex hull edges longer than alpha are split
        recursively by the interior point minimizing the longer new edge."""
        if alpha not in self._hull_cache:
            self._hull_cache[alpha] = self._concave_hull_ids(alpha)
        return list(self._hull_cache[alpha])

    def _concave_hull_ids(self, alpha: float) -> List[int]:
        if len(self) < 3:
            return list(range(len(self)))
        xy = self.positions[:, :2]
        polygon = _convex_hull_indices(xy)  # ids, CCW order
        interior = np.ones(len(xy), dtype=bool)
        interior[polygon] = False
        # an edge that cannot be split now never can (splits only shrink the
        # interior), so one pass splits each edge for as long as it can be
        e = 0
        while e < len(polygon):
            a, b = polygon[e], polygon[(e + 1) % len(polygon)]
            edge_len = float(np.linalg.norm(xy[a] - xy[b]))
            inner = np.flatnonzero(interior) if edge_len > alpha else []
            if len(inner):
                longer = np.maximum(np.linalg.norm(xy[a] - xy[inner], axis=1),
                                    np.linalg.norm(xy[inner] - xy[b], axis=1))
                j = int(np.argmin(longer))  # ties: the lowest id
                if longer[j] < edge_len:
                    polygon.insert(e + 1, int(inner[j]))
                    interior[inner[j]] = False
                    continue
            e += 1
        return sorted(polygon)

    def select_submap(self, pose: Pose, k_nearest: int, l_hull: int,
                      j_concave: int, concave_alpha: float
                      ) -> Tuple[List[int], PointCloud]:
        """Deduplicated union of nearest / convex-hull / concave-hull keyframes,
        stitched into one world-frame cloud with rotated covariances; the same
        ids return the same cloud object until the next insert."""
        if not self.by_id:
            raise ValueError("empty keyframe database")
        position = pose.translation
        selected: Set[int] = set(self.query_nearest(position, k_nearest))
        for pool, count in ((self.convex_hull_ids(), l_hull),
                            (self.concave_hull_ids(concave_alpha), j_concave)):
            selected.update(self._nearest(pool, position, count).tolist())
        ids = sorted(selected)
        key = tuple(ids)
        if key not in self._submap_cache:
            world = [self.by_id[i].world for i in ids]
            covs = (np.concatenate([w.covariances for w in world], axis=1)
                    if all(w.covariances is not None for w in world) else None)
            self._submap_cache[key] = PointCloud(
                np.concatenate([w.points for w in world]), covs)
        return ids, self._submap_cache[key]

    def world_map(self) -> PointCloud:
        """Union of all keyframe clouds in the world frame (covariances dropped)."""
        if not self.by_id:
            return PointCloud(np.empty((0, 3)))
        return PointCloud(np.concatenate([k.world.points for k in self.by_id]))


def dump_keyframes(db: KeyframeDB, directory: str) -> None:
    """Per-keyframe cloud files plus a poses manifest in trajectory format."""
    from .fileio import write_scan_bin, write_trajectory
    from .metrics import Trajectory

    os.makedirs(directory, exist_ok=True)
    for i, kf in enumerate(db.by_id):
        write_scan_bin(os.path.join(directory, "%06d.bin" % i), kf.cloud)
    # ids run 0..n-1, so they are the trajectory's indices and timestamps
    write_trajectory(os.path.join(directory, "keyframe_poses.txt"),
                     Trajectory.from_poses([kf.pose for kf in db.by_id], 1.0))
