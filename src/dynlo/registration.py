"""Two-stage GICP registration: distribution-to-distribution Gauss-Newton on SE(3).

The cost for a transform T = (R, t) over correspondences (s, t) is

    sum_i d_i^T (C_i^tgt + R C_i^src R^T)^-1 d_i,   d_i = p_i^tgt - T p_i^src

with plane-regularized per-point covariances. Correspondences are re-searched
every iteration; the local step is a right-multiplied 6-DoF increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, Pose, se3_exp

_MIN_CORRESPONDENCES = 10
_JITTER = 1e-9


@dataclass
class GicpParams:
    max_correspondence_distance: float = 1.0
    max_iterations: int = 64
    translation_epsilon: float = 1e-4
    rotation_epsilon: float = 1e-4


@dataclass
class GicpResult:
    pose: Pose
    converged: bool
    error: float
    iterations: int


def _adjugate_det(M: np.ndarray):
    """Adjugates and determinants of a stack of 3x3 matrices."""
    a, b, c = M[:, 0, 0], M[:, 0, 1], M[:, 0, 2]
    d, e, f = M[:, 1, 0], M[:, 1, 1], M[:, 1, 2]
    g, h, i = M[:, 2, 0], M[:, 2, 1], M[:, 2, 2]
    A = e * i - f * h
    D = f * g - d * i
    G = d * h - e * g
    adj = np.empty_like(M)
    adj[:, 0, 0] = A
    adj[:, 0, 1] = c * h - b * i
    adj[:, 0, 2] = b * f - c * e
    adj[:, 1, 0] = D
    adj[:, 1, 1] = a * i - c * g
    adj[:, 1, 2] = c * d - a * f
    adj[:, 2, 0] = G
    adj[:, 2, 1] = b * g - a * h
    adj[:, 2, 2] = a * e - b * d
    return adj, a * A + b * D + c * G


def _singular(det: np.ndarray) -> bool:
    return bool(np.any(np.abs(det) < 1e-300) or not np.all(np.isfinite(det)))


def _batched_inverse(M: np.ndarray) -> np.ndarray:
    """Closed-form batched 3x3 inverse (adjugate over determinant); a singular
    stack is retried once with a small diagonal jitter."""
    adj, det = _adjugate_det(M)
    if _singular(det):
        adj, det = _adjugate_det(M + _JITTER * np.eye(3))
        if _singular(det):
            raise ValueError("fused covariance singular")
    return adj / det[:, None, None]


def _require_covariances(cloud: PointCloud, name: str) -> None:
    if cloud.covariances is None:
        raise ValueError(f"{name} cloud has no covariances")


def _conjugate_sym(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """R C_i R^T for a stack of symmetric 3x3 matrices, as two flat GEMMs."""
    n = C.shape[0]
    X = (C.reshape(-1, 3) @ R.T).reshape(n, 3, 3)  # C_i R^T
    return (X.transpose(0, 2, 1).reshape(-1, 3) @ R.T).reshape(n, 3, 3)


def _fused_inverse(R: np.ndarray, cs: np.ndarray, ct: np.ndarray) -> np.ndarray:
    fused = ct + _conjugate_sym(cs, R)
    return _batched_inverse(fused)


def gicp_residual(T: Pose, source: PointCloud, target: PointCloud,
                  correspondences: np.ndarray) -> float:
    """Mahalanobis registration error over explicit (source, target) index pairs."""
    _require_covariances(source, "source")
    _require_covariances(target, "target")
    corr = np.asarray(correspondences, dtype=int).reshape(-1, 2)
    if corr.shape[0] == 0:
        return 0.0
    s_idx, t_idx = corr[:, 0], corr[:, 1]
    d = target.points[t_idx] - T.apply(source.points[s_idx])
    minv = _fused_inverse(T.rotation, source.covariances[s_idx],
                          target.covariances[t_idx])
    return float(np.einsum("ni,nij,nj->", d, minv, d))


def gicp_gradient(T: Pose, source: PointCloud, target: PointCloud,
                  correspondences: np.ndarray) -> np.ndarray:
    """Analytic gradient of the residual wrt a right-multiplied twist [v, w].

    Includes the dependence of the fused covariance on the rotation, so it
    matches finite differences of :func:`gicp_residual` exactly to first order.
    """
    _require_covariances(source, "source")
    _require_covariances(target, "target")
    corr = np.asarray(correspondences, dtype=int).reshape(-1, 2)
    if corr.shape[0] == 0:
        return np.zeros(6)
    s_idx, t_idx = corr[:, 0], corr[:, 1]
    ps = source.points[s_idx]
    cs = source.covariances[s_idx]
    R = T.rotation
    d = target.points[t_idx] - T.apply(ps)
    minv = _fused_inverse(R, cs, target.covariances[t_idx])
    u = np.einsum("nij,nj->ni", minv, d) @ R  # rows are R^T M^-1 d
    w = np.einsum("nij,nj->ni", cs, u)
    g_v = -2.0 * u.sum(axis=0)
    g_w = -2.0 * (np.cross(ps, u) + np.cross(w, u)).sum(axis=0)
    return np.concatenate([g_v, g_w])


def find_correspondences(T: Pose, source: PointCloud, target_tree: cKDTree,
                         max_distance: float) -> np.ndarray:
    """Nearest target point per transformed source point, within max_distance."""
    transformed = T.apply(source.points)
    dist, idx = target_tree.query(transformed, k=1,
                                  distance_upper_bound=max_distance)
    valid = np.isfinite(dist)
    s_idx = np.flatnonzero(valid)
    return np.column_stack([s_idx, idx[valid]])


def _coordinate_rank(points: np.ndarray) -> np.ndarray:
    """Rank of each point under lexicographic (x, y, z) ordering."""
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    rank = np.empty(points.shape[0], dtype=np.int64)
    rank[order] = np.arange(points.shape[0])
    return rank


def _canonical_order(rank: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Order pairs by the source point coordinates so that accumulation order,
    and hence the solution, is independent of the input point ordering."""
    return corr[np.argsort(rank[corr[:, 0]], kind="stable")]


def _skew_batch(p: np.ndarray) -> np.ndarray:
    S = np.zeros((p.shape[0], 3, 3))
    S[:, 0, 1] = -p[:, 2]
    S[:, 0, 2] = p[:, 1]
    S[:, 1, 0] = p[:, 2]
    S[:, 1, 2] = -p[:, 0]
    S[:, 2, 0] = -p[:, 1]
    S[:, 2, 1] = p[:, 0]
    return S


def _normal_equations(T: Pose, ps, cs, pt, ct):
    """Gauss-Newton system (A, c), error, and fused information at T."""
    R = T.rotation
    n = ps.shape[0]
    d = pt - T.apply(ps)
    minv = _fused_inverse(R, cs, ct)
    minv_d = np.einsum("nij,nj->ni", minv, d)
    err = float(np.sum(d * minv_d))
    B = _conjugate_sym(minv, R.T)  # R^T M^-1 R per point
    u = minv_d @ R
    G = np.zeros((n, 3, 6))
    G[:, :, :3] = -np.eye(3)
    G[:, :, 3:] = _skew_batch(ps)
    BG = np.matmul(B, G)
    Gf = G.reshape(-1, 6)
    A = Gf.T @ BG.reshape(-1, 6)
    c = Gf.T @ u.reshape(-1)
    return A, c, err, minv


def _model_error(T: Pose, ps, pt, minv) -> float:
    """Cost at T with the fused covariances frozen at the linearization point."""
    d = pt - T.apply(ps)
    return float(np.sum(d * np.einsum("nij,nj->ni", minv, d)))


def gicp_align(source: PointCloud, target: PointCloud, init: Pose,
               params: GicpParams | None = None,
               target_tree: Optional[cKDTree] = None) -> GicpResult:
    """Iteratively minimize the GICP cost of source against target from ``init``.

    Gauss-Newton with per-iteration correspondence re-search; Levenberg
    damping engages only when the undamped step does not decrease the error.
    Correspondences are searched in ``target_tree`` if given, else in the
    tree the target carries, else in a tree built here. The source's
    coordinate rank is computed once and kept on the source cloud.
    """
    params = params if params is not None else GicpParams()
    _require_covariances(source, "source")
    _require_covariances(target, "target")
    if len(source) < _MIN_CORRESPONDENCES or len(target) < _MIN_CORRESPONDENCES:
        raise ValueError("insufficient overlap")
    tree = target_tree if target_tree is not None else target.tree
    if tree is None:
        tree = cKDTree(target.points)
    if source.rank is None:
        source.rank = _coordinate_rank(source.points)
    rank = source.rank
    T = init
    err = float("inf")
    iterations = 0
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        corr = find_correspondences(T, source, tree,
                                    params.max_correspondence_distance)
        if corr.shape[0] < _MIN_CORRESPONDENCES:
            if iterations == 1:
                raise ValueError("insufficient overlap")
            converged = False
            break
        corr = _canonical_order(rank, corr)
        ps = source.points[corr[:, 0]]
        cs = source.covariances[corr[:, 0]]
        pt = target.points[corr[:, 1]]
        ct = target.covariances[corr[:, 1]]
        A, c, err, minv = _normal_equations(T, ps, cs, pt, ct)
        try:
            xi = np.linalg.solve(A, -c)
        except np.linalg.LinAlgError:
            xi = np.linalg.solve(A + _JITTER * np.eye(6), -c)
        if not np.all(np.isfinite(xi)):
            raise ValueError("solver diverged")
        cand = T.compose(se3_exp(xi))
        if (np.linalg.norm(xi[:3]) < params.translation_epsilon
                and np.linalg.norm(xi[3:]) < params.rotation_epsilon):
            T = cand
            converged = True
            break
        cand_err = _model_error(cand, ps, pt, minv)
        if cand_err > err * (1.0 + 1e-6):
            accepted = False
            lam = 1e-4
            diag = np.diag(np.diag(A)) + _JITTER * np.eye(6)
            while lam <= 1e5:
                xi = np.linalg.solve(A + lam * diag, -c)
                cand = T.compose(se3_exp(xi))
                cand_err = _model_error(cand, ps, pt, minv)
                if cand_err <= err * (1.0 + 1e-6):
                    accepted = True
                    break
                lam *= 10.0
            if not accepted:
                # no descent direction left: treat the current pose as a minimum
                converged = True
                break
        if not np.isfinite(cand_err):
            raise ValueError("solver diverged")
        T = cand
        err = cand_err
    return GicpResult(pose=T, converged=converged, error=err,
                      iterations=iterations)


def scan_to_scan(current: PointCloud, previous: PointCloud,
                 init: Pose | None = None,
                 params: GicpParams | None = None) -> GicpResult:
    """Relative transform taking the current scan onto the previous one."""
    if init is None:
        init = Pose.identity()
    return gicp_align(current, previous, init, params)


def propagate_world(prev_world: Pose, rel: Pose) -> Pose:
    """Accumulate a relative scan transform onto the previous world pose."""
    return prev_world.compose(rel)


def scan_to_map(current: PointCloud, submap: PointCloud, init_world: Pose,
                params: GicpParams | None = None,
                submap_tree: Optional[cKDTree] = None) -> GicpResult:
    """Refine a world pose by registering the scan against a stitched submap."""
    if len(submap) == 0:
        raise ValueError("empty submap")
    return gicp_align(current, submap, init_world, params,
                      target_tree=submap_tree)
