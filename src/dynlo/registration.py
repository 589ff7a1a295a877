"""Two-stage GICP registration: distribution-to-distribution Gauss-Newton on SE(3).

The cost for a transform T = (R, t) over correspondences (s, t) is

    sum_i d_i^T W_i d_i,   W_i = (C_i^tgt + R C_i^src R^T)^-1,   d_i = p_i^tgt - T p_i^src

with plane-regularized per-point covariances. Correspondences are re-searched
every iteration; the local step is a right-multiplied 6-DoF increment.

Symmetric 3x3 matrices are packed into their upper triangles, (n, 6) rows
``[00, 01, 02, 11, 12, 22]``. ``gicp_align`` packs the source covariances
once per call and the target covariances of each iteration's pairs.
Conjugation by a rotation is then one 6x6 linear map,
``packed(R C R^T) = packed(C) @ K(R)``, and the fused covariances are
inverted by a packed adjugate. The Gauss-Newton system
``A = sum_i G_i^T B_i G_i`` with ``G_i = [-I | skew(p_i)]`` and
``B_i = R^T W_i R`` is assembled from moments: one GEMM of the source basis
``[1, x, y, z, xx, xy, xz, yy, yz, zz]`` with the packed information gives
every weighted moment ``sum_i W_i m_i``; each is rotated to ``R^T . R`` and
contracted with the three skew generators. No per-point Jacobian is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, Pose, se3_exp, skew

_MIN_CORRESPONDENCES = 10
_JITTER = 1e-9

# packed entry p holds the 3x3 entry (_ROWS[p], _COLS[p])
_ROWS, _COLS = np.triu_indices(3)
_PACKED = 3 * _ROWS + _COLS  # flat 3x3 index of each packed entry
_DIAG = np.array([0, 3, 5])  # packed index of the diagonal entries
_UNPACK = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])  # packed index of each flat entry
# skew(p) = sum_k p_k _GENERATORS[k]
_GENERATORS = np.array([skew(e) for e in np.eye(3)])
# basis index of the second moment x_k x_l
_SECOND = 4 + _UNPACK.reshape(3, 3)


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


def _pack(C: np.ndarray) -> np.ndarray:
    """(n, 6) upper triangles of a stack of symmetric 3x3 matrices."""
    return C.reshape(-1, 9)[:, _PACKED]


def _unpack(S: np.ndarray) -> np.ndarray:
    return S[..., _UNPACK].reshape(S.shape[:-1] + (3, 3))


def _conjugation_map(R: np.ndarray) -> np.ndarray:
    """The 6x6 K with packed(R C R^T) = packed(C) @ K for symmetric C."""
    a, b = R[:, _ROWS], R[:, _COLS]
    K = np.einsum("ip,jp->pij", a, b)
    K += K.transpose(0, 2, 1)  # an off-diagonal entry stands for C_kl and C_lk
    K[_DIAG] *= 0.5
    return K.reshape(6, 9)[:, _PACKED]


def _sym_matvec(S: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows S_i v_i for packed symmetric S_i."""
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    out = np.empty_like(v)
    out[:, 0] = S[:, 0] * x + S[:, 1] * y + S[:, 2] * z
    out[:, 1] = S[:, 1] * x + S[:, 3] * y + S[:, 4] * z
    out[:, 2] = S[:, 2] * x + S[:, 4] * y + S[:, 5] * z
    return out


def _sym_adjugate_det(M: np.ndarray):
    """Packed adjugates and determinants of packed symmetric 3x3 matrices."""
    a, b, c, d, e, f = M.T
    adj = np.empty_like(M)
    adj[:, 0] = d * f - e * e
    adj[:, 1] = c * e - b * f
    adj[:, 2] = b * e - c * d
    adj[:, 3] = a * f - c * c
    adj[:, 4] = b * c - a * e
    adj[:, 5] = a * d - b * b
    return adj, a * adj[:, 0] + b * adj[:, 1] + c * adj[:, 2]


def _singular(det: np.ndarray) -> bool:
    return bool(np.any(np.abs(det) < 1e-300) or not np.all(np.isfinite(det)))


def _fused_information(R: np.ndarray, cs: np.ndarray,
                       ct: np.ndarray) -> np.ndarray:
    """Packed (C^tgt + R C^src R^T)^-1 from packed covariances; a singular
    stack is retried once with a small diagonal jitter."""
    M = ct + cs @ _conjugation_map(R)
    adj, det = _sym_adjugate_det(M)
    if _singular(det):
        M[:, _DIAG] += _JITTER
        adj, det = _sym_adjugate_det(M)
        if _singular(det):
            raise ValueError("fused covariance singular")
    adj /= det[:, None]
    return adj


def _require_covariances(cloud: PointCloud, name: str) -> None:
    if cloud.covariances is None:
        raise ValueError(f"{name} cloud has no covariances")


def _pair_terms(T: Pose, source: PointCloud, target: PointCloud,
                correspondences: np.ndarray):
    """Source points, packed source covariances, residuals and packed fused
    information of explicit (source, target) index pairs."""
    _require_covariances(source, "source")
    _require_covariances(target, "target")
    corr = np.asarray(correspondences, dtype=int).reshape(-1, 2)
    s_idx, t_idx = corr[:, 0], corr[:, 1]
    ps = source.points[s_idx]
    cs = _pack(source.covariances[s_idx])
    d = target.points[t_idx] - T.apply(ps)
    W = _fused_information(T.rotation, cs, _pack(target.covariances[t_idx]))
    return ps, cs, d, W


def gicp_residual(T: Pose, source: PointCloud, target: PointCloud,
                  correspondences: np.ndarray) -> float:
    """Mahalanobis registration error over explicit (source, target) index pairs."""
    _, _, d, W = _pair_terms(T, source, target, correspondences)
    return float(np.sum(d * _sym_matvec(W, d)))


def gicp_gradient(T: Pose, source: PointCloud, target: PointCloud,
                  correspondences: np.ndarray) -> np.ndarray:
    """Analytic gradient of the residual wrt a right-multiplied twist [v, w].

    Includes the dependence of the fused covariance on the rotation, so it
    matches finite differences of :func:`gicp_residual` exactly to first order.
    """
    ps, cs, d, W = _pair_terms(T, source, target, correspondences)
    u = _sym_matvec(W, d) @ T.rotation  # rows are R^T W d
    w = _sym_matvec(cs, u)
    g_v = -2.0 * u.sum(axis=0)
    g_w = -2.0 * (np.cross(ps, u) + np.cross(w, u)).sum(axis=0)
    return np.concatenate([g_v, g_w])


def find_correspondences(T: Pose, points: np.ndarray, target_tree: cKDTree,
                         max_distance: float):
    """Indices (source, target) of the nearest target point per transformed
    source point, within max_distance; source indices ascend."""
    dist, idx = target_tree.query(T.apply(points), k=1,
                                  distance_upper_bound=max_distance)
    valid = np.isfinite(dist)
    return np.flatnonzero(valid), idx[valid]


def _coordinate_rank(points: np.ndarray) -> np.ndarray:
    """Rank of each point under lexicographic (x, y, z) ordering."""
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    rank = np.empty(points.shape[0], dtype=np.int64)
    rank[order] = np.arange(points.shape[0])
    return rank


def _moment_basis(points: np.ndarray) -> np.ndarray:
    """Rows [1, x, y, z, xx, xy, xz, yy, yz, zz] per point."""
    return np.column_stack([np.ones(points.shape[0]), points,
                            points[:, _ROWS] * points[:, _COLS]])


def _normal_equations(T: Pose, basis, cs, pt, ct):
    """Gauss-Newton system (A, c), error and packed fused information at T.

    ``basis`` holds the :func:`_moment_basis` rows of the source points and
    ``cs``, ``ct`` the packed covariances of each pair.
    """
    R = T.rotation
    W = _fused_information(R, cs, ct)
    d = pt - T.apply(basis[:, 1:4])
    Wd = _sym_matvec(W, d)
    err = float(np.sum(d * Wd))
    # sum_i B_i m_i per basis moment m, with B_i = R^T W_i R
    B = _unpack((basis.T @ W) @ _conjugation_map(R.T))
    A = np.empty((6, 6))
    A[:3, :3] = B[0]
    A[:3, 3:] = -np.einsum("kij,kjl->il", B[1:4], _GENERATORS)
    A[3:, :3] = A[:3, 3:].T
    A[3:, 3:] = -np.einsum("kab,klbc,lcd->ad", _GENERATORS, B[_SECOND],
                           _GENERATORS)
    # sum_i m_i u_i for m in [1, x, y, z], with u_i = R^T W_i d_i
    U = (basis[:, :4].T @ Wd) @ R
    c = np.concatenate([-U[0], -np.einsum("kij,kj->i", _GENERATORS, U[1:])])
    return A, c, err, W


def _model_error(T: Pose, ps, pt, W) -> float:
    """Cost at T with the fused information frozen at the linearization point."""
    d = pt - T.apply(ps)
    return float(np.sum(d * _sym_matvec(W, d)))


def gicp_align(source: PointCloud, target: PointCloud, init: Pose,
               params: GicpParams | None = None,
               target_tree: Optional[cKDTree] = None) -> GicpResult:
    """Iteratively minimize the GICP cost of source against target from ``init``.

    Gauss-Newton with per-iteration correspondence re-search; Levenberg
    damping engages only when the undamped step does not decrease the error.
    Correspondences are searched in ``target_tree`` if given, else in the
    tree the target carries, else in a tree built here. The source's
    coordinate rank is computed once and kept on the source cloud; the
    source is visited in that order, so the accumulation order, and hence
    the solution, does not depend on the input point ordering.
    """
    params = params if params is not None else GicpParams()
    if len(source) < _MIN_CORRESPONDENCES or len(target) < _MIN_CORRESPONDENCES:
        raise ValueError("insufficient overlap")
    _require_covariances(source, "source")
    _require_covariances(target, "target")
    tree = target_tree if target_tree is not None else target.tree
    if tree is None:
        tree = cKDTree(target.points)
    if source.rank is None:
        source.rank = _coordinate_rank(source.points)
    order = np.empty_like(source.rank)
    order[source.rank] = np.arange(len(source))
    src_points = source.points.take(order, axis=0)
    src_basis = _moment_basis(src_points)
    src_cov = _pack(source.covariances).take(order, axis=0)
    T = init
    err = float("inf")
    iterations = 0
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        s_idx, t_idx = find_correspondences(T, src_points, tree,
                                            params.max_correspondence_distance)
        if s_idx.shape[0] < _MIN_CORRESPONDENCES:
            if iterations == 1:
                raise ValueError("insufficient overlap")
            converged = False
            break
        basis = src_basis.take(s_idx, axis=0)
        ps = basis[:, 1:4]
        pt = target.points.take(t_idx, axis=0)
        # the target's rows are packed per iteration: packing a whole submap
        # per call costs more memory than the pairs use
        A, c, err, W = _normal_equations(
            T, basis, src_cov.take(s_idx, axis=0), pt,
            _pack(target.covariances.take(t_idx, axis=0)))
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
        cand_err = _model_error(cand, ps, pt, W)
        if cand_err > err * (1.0 + 1e-6):
            accepted = False
            lam = 1e-4
            diag = np.diag(np.diag(A)) + _JITTER * np.eye(6)
            while lam <= 1e5:
                xi = np.linalg.solve(A + lam * diag, -c)
                cand = T.compose(se3_exp(xi))
                cand_err = _model_error(cand, ps, pt, W)
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


def propagate_world(prev_world: Pose, rel: Pose) -> Pose:
    """Accumulate a relative scan transform onto the previous world pose."""
    return prev_world.compose(rel)
