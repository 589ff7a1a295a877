"""Hash-indexed keyframe database with adaptive insertion and submap selection.

Keyframes live in two consistent hash maps: id -> keyframe and voxel cell ->
id set. Insertion distance adapts to the environment's spaciousness (smoothed
median point range); the scan-to-map submap unions the K nearest keyframes
with the L nearest convex-hull and J nearest concave-hull keyframes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .geometry import PointCloud, Pose, rotation_angle


@dataclass
class Keyframe:
    id: int
    pose: Pose
    cloud: PointCloud  # body frame at capture, with covariances


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

    def cross(o, a, b):
        return ((xy[a, 0] - xy[o, 0]) * (xy[b, 1] - xy[o, 1])
                - (xy[a, 1] - xy[o, 1]) * (xy[b, 0] - xy[o, 0]))

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
    """Keyframe store over a spatial hash of ``cell_size`` cube cells."""

    def __init__(self, cell_size: float = 5.0):
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self.by_id: Dict[int, Keyframe] = {}
        self.spatial_index: Dict[Tuple[int, int, int], Set[int]] = {}
        self.spaciousness = 0.0
        self._next_id = 0
        self._submap_cache: Dict[Tuple[int, ...], PointCloud] = {}
        # hull ids change only on insert: "convex" or a concave alpha -> ids
        self._hull_cache: Dict[object, List[int]] = {}

    def __len__(self) -> int:
        return len(self.by_id)

    def ids(self) -> List[int]:
        return sorted(self.by_id)

    def _cell(self, position: np.ndarray) -> Tuple[int, int, int]:
        c = np.floor(np.asarray(position, dtype=float) / self.cell_size).astype(int)
        return (int(c[0]), int(c[1]), int(c[2]))

    def insert(self, pose: Pose, cloud: PointCloud) -> int:
        if len(cloud) == 0:
            raise ValueError("keyframe cloud must be non-empty")
        kid = self._next_id
        self._next_id += 1
        # keep points and covariances only, not the caches the scan carried
        stored = PointCloud(cloud.points, cloud.covariances, cloud.labels)
        self.by_id[kid] = Keyframe(id=kid, pose=pose, cloud=stored)
        self.spatial_index.setdefault(self._cell(pose.translation), set()).add(kid)
        self._submap_cache.clear()
        self._hull_cache.clear()
        return kid

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
        """K nearest keyframe ids by translation distance, ties by ascending id.

        Expanding-ring search over the spatial hash: rings widen until k
        candidates are held and the next ring cannot beat the current worst.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.by_id:
            return []
        position = np.asarray(position, dtype=float)
        center = self._cell(position)
        cells = np.array(list(self.spatial_index.keys()))
        ring_cap = int(np.max(np.abs(cells - np.array(center)))) if len(cells) else 0
        found: List[Tuple[float, int]] = []
        radius = 0
        while radius <= ring_cap:
            for cell in self._ring_cells(center, radius):
                for kid in sorted(self.spatial_index.get(cell, ())):
                    d = float(np.linalg.norm(
                        self.by_id[kid].pose.translation - position))
                    found.append((d, kid))
            if len(found) >= k:
                worst = sorted(found)[k - 1][0]
                # points in ring r+1 are at least r*cell_size away
                if radius * self.cell_size > worst:
                    break
            radius += 1
        return [kid for _, kid in sorted(found)[:k]]

    @staticmethod
    def _ring_cells(center: Tuple[int, int, int], radius: int):
        cx, cy, cz = center
        if radius == 0:
            yield center
            return
        for dx in range(-radius, radius + 1):
            for dy in range(-radius, radius + 1):
                for dz in range(-radius, radius + 1):
                    if max(abs(dx), abs(dy), abs(dz)) == radius:
                        yield (cx + dx, cy + dy, cz + dz)

    def _positions(self, ids: Sequence[int]) -> np.ndarray:
        return np.stack([self.by_id[i].pose.translation for i in ids])

    def convex_hull_ids(self) -> List[int]:
        """Ids whose (x, y) translations are convex hull vertices; all ids if < 3."""
        if "convex" not in self._hull_cache:
            self._hull_cache["convex"] = self._convex_hull_ids()
        return list(self._hull_cache["convex"])

    def _convex_hull_ids(self) -> List[int]:
        ids = self.ids()
        if len(ids) < 3:
            return ids
        xy = self._positions(ids)[:, :2]
        hull = _convex_hull_indices(xy)
        return sorted(ids[i] for i in hull)

    def concave_hull_ids(self, alpha: float) -> List[int]:
        """Concave boundary ids: convex hull edges longer than alpha are split
        recursively by the interior point minimizing the longer new edge."""
        if alpha not in self._hull_cache:
            self._hull_cache[alpha] = self._concave_hull_ids(alpha)
        return list(self._hull_cache[alpha])

    def _concave_hull_ids(self, alpha: float) -> List[int]:
        ids = self.ids()
        if len(ids) < 3:
            return ids
        xy_all = self._positions(ids)[:, :2]
        hull_idx = _convex_hull_indices(xy_all)
        polygon = list(hull_idx)  # indices into ids, CCW order
        guard = 0
        changed = True
        while changed and guard < 8 * len(ids):
            changed = False
            guard += 1
            boundary = set(polygon)
            interior = [i for i in range(len(ids)) if i not in boundary]
            if not interior:
                break
            for e in range(len(polygon)):
                a = polygon[e]
                b = polygon[(e + 1) % len(polygon)]
                edge_len = float(np.linalg.norm(xy_all[a] - xy_all[b]))
                if edge_len <= alpha:
                    continue
                best = None
                for i in interior:
                    longer = max(float(np.linalg.norm(xy_all[a] - xy_all[i])),
                                 float(np.linalg.norm(xy_all[i] - xy_all[b])))
                    key = (longer, ids[i])
                    if best is None or key < best[0]:
                        best = (key, i)
                if best is None or best[0][0] >= edge_len:
                    continue
                polygon.insert(e + 1, best[1])
                changed = True
                break
        return sorted(ids[i] for i in polygon)

    def select_submap(self, pose: Pose, k_nearest: int, l_hull: int,
                      j_concave: int, concave_alpha: float = float("inf")
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
            ranked = sorted(
                (float(np.linalg.norm(self.by_id[i].pose.translation - position)), i)
                for i in pool)
            selected.update(i for _, i in ranked[:count])
        ids = sorted(selected)
        key = tuple(ids)
        if key not in self._submap_cache:
            clouds = [self.by_id[i].cloud.transformed(self.by_id[i].pose)
                      for i in ids]
            points = np.concatenate([c.points for c in clouds])
            covs = np.concatenate([c.covariances for c in clouds]) \
                if all(c.covariances is not None for c in clouds) else None
            self._submap_cache[key] = PointCloud(points, covs)
        return ids, self._submap_cache[key]

    def world_map(self) -> PointCloud:
        """Union of all keyframe clouds in the world frame (covariances dropped)."""
        if not self.by_id:
            return PointCloud(np.empty((0, 3)))
        points = np.concatenate([
            self.by_id[i].pose.apply(self.by_id[i].cloud.points)
            for i in self.ids()])
        return PointCloud(points)


def dump_keyframes(db: KeyframeDB, directory: str) -> None:
    """Per-keyframe cloud files plus a poses manifest in trajectory format."""
    from .fileio import write_scan_bin, write_trajectory
    from .metrics import Trajectory

    os.makedirs(directory, exist_ok=True)
    ids = db.ids()
    for i in ids:
        write_scan_bin(os.path.join(directory, "%06d.bin" % i), db.by_id[i].cloud)
    traj = Trajectory(
        scan_indices=np.array(ids, dtype=int),
        timestamps=np.array(ids, dtype=float),
        poses=[db.by_id[i].pose for i in ids])
    write_trajectory(os.path.join(directory, "keyframe_poses.txt"), traj)
