"""Scan conditioning: self-return crop, voxel downsampling, surface covariances."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (PACKED_COLS, PACKED_DIAG, PACKED_ROWS, PointCloud,
                       query_neighbors, unpack)

# Below this cross-product size, relative to the spread of the eigenvalues,
# the two smallest eigenvalues count as equal and the normal comes from eigh.
_DEGENERATE_GAP = 1e-6


@dataclass
class PreprocessParams:
    self_crop_half_extent: float = field(default=0.5, metadata={"bound": "> 0"})
    voxel_leaf: float = field(default=0.25, metadata={"bound": "> 0"})
    covariance_knn: int = field(default=10, metadata={"bound": ">= 1"})
    plane_epsilon: float = field(default=1e-3,
                                 metadata={"bound": "in (0, 1]"})


def crop_self_returns(cloud: PointCloud, half_extent: float) -> PointCloud:
    """Drop points inside the axis-aligned cube of half side ``half_extent`` at the origin."""
    if half_extent <= 0.0:
        raise ValueError("half_extent must be positive")
    inside = np.all(np.abs(cloud.points) <= half_extent, axis=1)
    return cloud.subset(~inside)


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Centroid per occupied voxel of an origin-anchored grid.

    Points are grouped by a sort of their integer voxel indices that keeps
    the input order within a voxel, so the grouping and the output order
    (ascending lexicographic voxel index) do not depend on the input point
    order. Each group is summed in input order, so a permuted input can move
    a centroid by round-off. Per-point covariances and labels do not survive
    aggregation and are dropped.

    The sort runs on one int64 key, the voxel's row-major offset in the
    bounding box of the occupied voxels times the point count plus the row
    index: the keys are distinct, so one unstable sort orders them as a
    stable sort of the offsets would. Where that key overflows int64, in a
    box of more than (2^63 - 1) / n voxels (far outliers), the points are
    sorted on the three indices instead. A point with a coordinate of 2^63
    leaves or more has no int64 voxel index and raises ``ValueError``.
    """
    if leaf <= 0.0:
        raise ValueError("leaf must be positive")
    n = len(cloud)
    if n == 0:
        return PointCloud(np.empty((0, 3)))
    scaled = cloud.points / leaf
    # the int64 cast would wrap such indices, merging far points into one
    # voxel; ``not <`` rejects NaN as well
    if not np.abs(scaled).max() < 2.0 ** 63:
        raise ValueError("point too far from the origin for a voxel index: "
                         "|coordinate| / leaf must be < 2^63")
    idx = np.floor(scaled).astype(np.int64)
    lo = idx.min(axis=0)
    # Python ints: the spans of extreme indices overflow int64
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, idx.max(axis=0))]
    new_voxel = np.empty(n, dtype=bool)
    new_voxel[0] = True
    if spans[0] * spans[1] * spans[2] * n <= np.iinfo(np.int64).max:
        idx -= lo
        key = (idx[:, 0] * spans[1] + idx[:, 1]) * spans[2] + idx[:, 2]
        key *= n
        key += np.arange(n)
        key.sort()
        key, order = np.divmod(key, n)
        np.not_equal(key[1:], key[:-1], out=new_voxel[1:])
    else:
        order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
        idx = idx[order]
        np.any(idx[1:] != idx[:-1], axis=1, out=new_voxel[1:])
    group = np.cumsum(new_voxel) - 1
    n_voxels = int(group[-1]) + 1
    counts = np.bincount(group, minlength=n_voxels).astype(float)
    centroids = np.empty((n_voxels, 3))
    for axis in range(3):
        sums = np.bincount(group, weights=cloud.points[order, axis],
                           minlength=n_voxels)
        centroids[:, axis] = sums / counts
    return PointCloud(centroids)


def estimate_point_covariances(cloud: PointCloud, k: int,
                               plane_epsilon: float) -> PointCloud:
    """Attach plane-regularized covariances from each point's k nearest neighbors.

    Each point's covariance is ``I - (1 - plane_epsilon) n n^T``, where n is
    the normal of its k-neighborhood (self inclusive): the eigenvector of the
    smallest eigenvalue of the neighborhood's sample covariance. That is the
    sample covariance with its eigenvalues replaced by (plane_epsilon, 1, 1),
    which keeps surface orientation while flattening scale. The sample
    covariances are summed over the neighbours in order, j = 0..k-1, into
    packed (6, n) rows, the form of the result; the normal comes from a
    closed-form 3x3 solve, see :func:`_normals`.

    The returned cloud keeps the k-d tree built over its points in ``tree``,
    so a registration against it does not build a second one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(cloud)
    if n < k:
        raise ValueError("insufficient points for covariance estimation")
    points = cloud.points.copy()
    # the layout of the submap trees: it builds in half the time, and a
    # query returns the same neighbours in the same order, up to exact
    # distance ties
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    # (n,) indices at k = 1
    nn = query_neighbors(tree, points, k)[1].reshape(n, k)
    # the (k, n) indices and the (3, k, n) neighbour coordinates, one
    # contiguous (k, n) plane per axis, take n k 32 bytes and set this
    # stage's memory peak (the query's distances and indices, n k 16
    # bytes, stay under it), so each is released as soon as it is used
    nn = np.ascontiguousarray(nn.T)
    neigh = np.ascontiguousarray(points.T).take(nn, axis=1)
    del nn
    # the centre and each scatter entry are sums over the k slices, in order
    centre = neigh[:, 0].copy()
    for j in range(1, k):
        centre += neigh[:, j]
    centre /= k
    neigh -= centre[:, None, :]
    scatter = np.empty((6, n))
    term = np.empty(n)
    for row, a, b in zip(scatter, PACKED_ROWS, PACKED_COLS):
        np.multiply(neigh[a, 0], neigh[b, 0], out=row)
        for j in range(1, k):
            np.multiply(neigh[a, j], neigh[b, j], out=term)
            row += term
    del neigh, term
    scatter /= float(k)
    normals = _normals(scatter).T  # (3, n) rows
    del scatter
    # the packed rows of I - (1 - plane_epsilon) n n^T
    covariances = np.empty((6, n))
    for row, a, b in zip(covariances, PACKED_ROWS, PACKED_COLS):
        np.multiply(normals[a], normals[b], out=row)
    covariances *= -(1.0 - plane_epsilon)
    covariances[PACKED_DIAG] += 1.0
    return PointCloud(points, covariances, tree=tree)


def _normals(scatter: np.ndarray) -> np.ndarray:
    """(n, 3) unit eigenvectors of the smallest eigenvalues of symmetric 3x3
    matrices S, given as (6, n) packed rows ``[00, 01, 02, 11, 12, 22]``.

    The smallest eigenvalue lam comes from the trigonometric solution of the
    characteristic cubic. The rows of ``S - lam I`` then span the plane
    orthogonal to the eigenvector, so the largest cross product of two rows
    is parallel to it. Where the two smallest eigenvalues (nearly) coincide,
    as for collinear or coincident neighbors, every cross product (nearly)
    vanishes and the eigenvector is taken from ``eigh`` instead.
    """
    a00, a01, a02, a11, a12, a22 = scatter
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    det = (b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02)
           + a02 * (a01 * a12 - b11 * a02))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(det / (2.0 * p * p * p), -1.0, 1.0)
    lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)
    d0, d1, d2 = a00 - lam, a11 - lam, a22 - lam
    # the cross products r0 x r1, r0 x r2 and r1 x r2 of the rows
    # r0 = (d0, a01, a02), r1 = (a01, d1, a12) and r2 = (a02, a12, d2),
    # each component in np.cross's operand order
    best = np.stack([a01 * a12 - a02 * d1, a02 * a01 - d0 * a12,
                     d0 * d1 - a01 * a01])
    best_sq = best[0] * best[0] + best[1] * best[1] + best[2] * best[2]
    for cand in ((a01 * d2 - a02 * a12, a02 * a02 - d0 * d2,
                  d0 * a12 - a01 * a02),
                 (d1 * d2 - a12 * a12, a12 * a02 - a01 * d2,
                  a01 * a12 - d1 * a02)):
        cand_sq = cand[0] * cand[0] + cand[1] * cand[1] + cand[2] * cand[2]
        larger = cand_sq > best_sq
        for component, value in zip(best, cand):
            np.copyto(component, value, where=larger)
        np.copyto(best_sq, cand_sq, where=larger)
    with np.errstate(invalid="ignore"):
        degenerate = ~(best_sq > (_DEGENERATE_GAP * p * p) ** 2)
        best /= np.sqrt(best_sq)
    normals = best.T
    if np.any(degenerate):
        normals[degenerate] = np.linalg.eigh(
            unpack(scatter[:, degenerate]))[1][:, :, 0]
    return normals
