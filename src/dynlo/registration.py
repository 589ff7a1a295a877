"""Two-stage GICP registration: distribution-to-distribution Gauss-Newton on SE(3).

The cost for a transform T = (R, t) over correspondences (s, t) is

    sum_i d_i^T W_i d_i,   W_i = (C_i^tgt + R C_i^src R^T)^-1,   d_i = p_i^tgt - T p_i^src

with plane-regularized per-point covariances. Each Gauss-Newton iteration
minimizes this cost with W_i frozen at its current rotation
(``_model_error``). Each iteration pairs every source point with its nearest
target inside the gate, but a point keeps its last answer while it has moved
less than half the gap between its nearest and second-nearest target (or the
gate), since that answer cannot have changed; an exact tie has no gap and is
searched every iteration. A point with no target in the gate stays unpaired
while it has moved less than its clearance, the distance by which its
nearest target lies outside the gate. The local step is a right-multiplied
6-DoF increment.

The per-pair arithmetic runs on contiguous columns, one row per entry:
points and residuals are (3, n), and symmetric 3x3 matrices are packed into
their upper triangles, (6, n) with rows ``[00, 01, 02, 11, 12, 22]``, the
form every cloud holds its covariances in: an iteration only gathers the
columns of its pairs. Conjugation by a rotation is one 6x6 linear map,
``packed(R C R^T) = K(R)^T packed(C)`` (``conjugation_map``), and the fused
covariances are inverted by a packed adjugate. The Gauss-Newton system
``A = sum_i G_i^T B_i G_i`` with ``G_i = [-I | skew(p_i)]`` and
``B_i = R^T W_i R`` is assembled from moments: one GEMM of the packed
information with the (10, n) source basis ``[1, x, y, z, xx, xy, xz, yy, yz,
zz]`` gives every weighted moment ``sum_i W_i m_i``, and one more rotates
them all to ``R^T . R``. Each entry of A is then a signed sum of at most
four of these packed entries (the skew generators' contraction), gathered
by one ``take`` from fixed index tables. No per-point Jacobian is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (PACKED_COLS, PACKED_DIAG, PACKED_ROWS, UNPACK_INDEX,
                       PointCloud, Pose, conjugation_map, query_neighbors,
                       se3_exp, skew)

_MIN_CORRESPONDENCES = 10
_JITTER = 1e-9
# per metre of coordinate magnitude, see _NearestTargets
_REUSE_SLACK = 1e-9
# reach of the k = 2 search, in gates: a row with no target in the gate
# learns how far outside it is (see _NearestTargets)
_SEARCH_REACH = 1.1


def _assembly_terms():
    """Each entry of A and c as a signed sum of entries of the packed
    moments M (6, 10) and U (4, 3) of :func:`_normal_equations`: flat
    indices and signs, one row per term, padded with zero-signed terms.

    With B_m the unpacked column m of M and G_k the skew generators,
    ``A = [[B_0, -sum_k B_{1+k} G_k], [., -sum_kl G_k B_{x_k x_l} G_l]]``
    and ``c = [-U_0, -sum_k G_k U_{1+k}]``. An entry's terms are listed in
    the loop order (k, b, l, c) of ``G_k[a, b] B[b, c] G_l[c, d]``, the
    order in which einsum adds them, so the sums round as einsum's did.
    """
    G = [skew(e) for e in np.eye(3)]
    unpacked = UNPACK_INDEX.reshape(3, 3)
    second = 4 + unpacked  # basis index of the moment x_k x_l
    a_terms = (np.zeros((4, 6, 6), dtype=np.intp), np.zeros((4, 6, 6)))
    c_terms = (np.zeros((2, 6), dtype=np.intp), np.zeros((2, 6)))

    def put(table, at, terms):
        for row, (sign, flat) in enumerate(terms):
            table[0][(row, *at)], table[1][(row, *at)] = flat, sign

    r3 = range(3)
    for a in r3:
        put(c_terms, (a,), [(-1.0, a)])
        put(c_terms, (3 + a,), [(-G[k][a, b], 3 * (1 + k) + b)
                                for k in r3 for b in r3 if G[k][a, b]])
        for d in r3:
            put(a_terms, (a, d), [(1.0, 10 * unpacked[a, d])])
            cross = [(-G[k][b, d], 10 * unpacked[a, b] + 1 + k)
                     for k in r3 for b in r3 if G[k][b, d]]
            put(a_terms, (a, 3 + d), cross)
            put(a_terms, (3 + d, a), cross)
            put(a_terms, (3 + a, 3 + d),
                [(-G[k][a, b] * G[l][c, d],
                  10 * unpacked[b, c] + second[k, l])
                 for k in r3 for b in r3 for l in r3 for c in r3
                 if G[k][a, b] and G[l][c, d]])
    return a_terms, c_terms


(_A_INDEX, _A_SIGN), (_C_INDEX, _C_SIGN) = _assembly_terms()


@dataclass
class GicpParams:
    max_correspondence_distance: float = field(default=1.0,
                                               metadata={"bound": "> 0"})
    max_iterations: int = field(default=64, metadata={"bound": ">= 1"})
    translation_epsilon: float = field(default=1e-4, metadata={"bound": "> 0"})
    rotation_epsilon: float = field(default=1e-4, metadata={"bound": "> 0"})


@dataclass
class GicpResult:
    pose: Pose
    converged: bool
    error: float
    iterations: int


def _sym_matvec(S: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns S_i v_i for packed symmetric S_i."""
    x, y, z = v
    out = np.empty_like(v)
    for row, (p, q, s) in zip(out, UNPACK_INDEX.reshape(3, 3)):
        np.multiply(S[p], x, out=row)
        row += S[q] * y
        row += S[s] * z
    return out


def _sym_adjugate_det(M: np.ndarray):
    """Packed adjugates and determinants of packed symmetric 3x3 matrices."""
    a, b, c, d, e, f = M
    adj = np.empty_like(M)
    np.subtract(d * f, e * e, out=adj[0])
    np.subtract(c * e, b * f, out=adj[1])
    np.subtract(b * e, c * d, out=adj[2])
    np.subtract(a * f, c * c, out=adj[3])
    np.subtract(b * c, a * e, out=adj[4])
    np.subtract(a * d, b * b, out=adj[5])
    return adj, a * adj[0] + b * adj[1] + c * adj[2]


def _singular(det: np.ndarray) -> bool:
    """Any |det| under 1e-300 or not finite; NaN fails both comparisons."""
    size = np.abs(det)
    return not (size.min() >= 1e-300 and size.max() < np.inf)


def _fused_information(R: np.ndarray, cs: np.ndarray,
                       ct: np.ndarray) -> np.ndarray:
    """Packed (C^tgt + R C^src R^T)^-1 from packed covariances; a singular
    stack is retried once with a small diagonal jitter."""
    M = conjugation_map(R).T @ cs
    M += ct
    adj, det = _sym_adjugate_det(M)
    if _singular(det):
        M[PACKED_DIAG] += _JITTER
        adj, det = _sym_adjugate_det(M)
        if _singular(det):
            raise ValueError("fused covariance singular")
    adj /= det
    return adj


def _apply(T: Pose, p: np.ndarray) -> np.ndarray:
    """T applied to the columns of p."""
    return T.rotation @ p + T.translation[:, None]


class _NearestTargets:
    """Nearest target point of each source point, within the gate, at the
    source positions of successive iterations.

    A search (k = 2, out to ``_SEARCH_REACH`` gates) stores each point's
    anchor, the position it was searched from, its nearest target and a gap.
    Where the nearest target is inside the gate (d1 < gate; scipy's bound is
    strict), the gap is ``min(d2, gate) - d1``, by which every other target
    point was farther. A point that has since moved by delta with
    ``2 delta + slack < gap`` keeps its answer: the old nearest is at most
    ``d1 + delta`` away and every other point at least ``d2 - delta`` (or
    ``gate - delta``), so a k = 1 search would return it, inside the gate.
    A point with no target inside the gate stores twice its clearance,
    ``2 (min(d1, reach) - gate)``, so the same test keeps it unpaired while
    every target is still at least ``d1 - delta`` > gate away. Only the
    other points are searched again.
    """

    def __init__(self, tree: cKDTree, max_distance: float):
        self.tree = tree
        self.max_distance = max_distance
        self.reach = _SEARCH_REACH * max_distance
        # covers the round-off of the compared distances, which grows with
        # the coordinates' magnitude
        self.slack = _REUSE_SLACK * (1.0 + max(np.abs(tree.mins).max(),
                                               np.abs(tree.maxes).max()))
        self.anchor = None

    def _search(self, q: np.ndarray):
        gate = self.max_distance
        dist, idx = query_neighbors(self.tree, q, 2, self.reach)
        nearest = idx[:, 0]
        d1 = dist[:, 0]
        gap = np.minimum(dist[:, 1], gate) - d1
        # scipy orders an exact tie differently at k = 2 than at k = 1, so a
        # tied row takes its k = 1 answer; its gap is 0, so it is searched
        # every time
        tied = np.flatnonzero((d1 == dist[:, 1]) & (d1 < gate))
        if tied.size:
            nearest[tied] = query_neighbors(self.tree, q[tied], 1, gate)[1]
        outside = np.flatnonzero(d1 >= gate)
        if outside.size:
            nearest[outside] = self.tree.n
            gap[outside] = 2.0 * (np.minimum(d1[outside], self.reach) - gate)
        return nearest, gap

    def pairs(self, q: np.ndarray):
        """Indices (source, target) of the nearest target of each row of q
        within the gate; source indices ascend."""
        if self.anchor is None:
            self.anchor = q
            self.nearest, self.gap = self._search(q)
        else:
            moved = q - self.anchor
            stale = np.flatnonzero(
                2.0 * np.sqrt(np.einsum("ij,ij->i", moved, moved))
                + self.slack >= self.gap)
            self.anchor[stale] = q[stale]
            self.nearest[stale], self.gap[stale] = self._search(q[stale])
        found = self.nearest < self.tree.n
        return np.flatnonzero(found), self.nearest[found]


def _moment_basis(points: np.ndarray) -> np.ndarray:
    """Columns [1, x, y, z, xx, xy, xz, yy, yz, zz] of (n, 3) points."""
    basis = np.empty((10, points.shape[0]))
    basis[0] = 1.0
    basis[1:4] = points.T
    # products written in place: fancy-indexed rows make three (6, n)
    # temporaries, which took ten times as long at 15k points
    for row, a, b in zip(basis[4:], PACKED_ROWS, PACKED_COLS):
        np.multiply(basis[1 + a], basis[1 + b], out=row)
    return basis


def _normal_equations(T: Pose, basis, cs, pt, ct):
    """Gauss-Newton system (A, c), error and packed fused information at T.

    ``basis`` holds the :func:`_moment_basis` columns of the source points,
    ``pt`` the target points and ``cs``, ``ct`` the packed covariances of
    each pair.
    """
    R = T.rotation
    W = _fused_information(R, cs, ct)
    d = pt - _apply(T, basis[1:4])
    Wd = _sym_matvec(W, d)
    err = float(np.sum(d * Wd))
    # A's terms, gathered from the packed sum_i B_i m_i per basis moment m,
    # with B_i = R^T W_i R
    terms = (conjugation_map(R.T).T @ (W @ basis.T)).take(_A_INDEX)
    terms *= _A_SIGN
    A = terms[0] + terms[1]
    A += terms[2]
    A += terms[3]
    # c's terms, from sum_i m_i u_i for m in [1, x, y, z], u_i = R^T W_i d_i
    terms = ((basis[:4] @ Wd.T) @ R).take(_C_INDEX)
    terms *= _C_SIGN
    return A, terms[0] + terms[1], err, W


def _model_error(T: Pose, ps, pt, W) -> float:
    """Cost at T with the fused information frozen at the linearization point."""
    d = pt - _apply(T, ps)
    return float(np.sum(d * _sym_matvec(W, d)))


def _first_revisit(rotations: np.ndarray, translations: np.ndarray,
                   cand: Pose, translation_epsilon: float,
                   min_trace: float) -> int:
    """Index of the first pose (rotations[j], translations[j]) within both
    epsilons of cand, or -1: nearer than ``translation_epsilon``, and with
    trace(R_j^T R_cand) above ``min_trace``, the trace at the rotation
    epsilon."""
    dt = translations - cand.translation
    near = np.einsum("ij,ij->i", dt, dt) < translation_epsilon**2
    # trace(R_j^T R_c) = sum(R_j * R_c)
    near &= rotations.reshape(-1, 9) @ cand.rotation.ravel() > min_trace
    hits = np.flatnonzero(near)
    return int(hits[0]) if hits.size else -1


def gicp_align(source: PointCloud, target: PointCloud, init: Pose,
               params: GicpParams | None = None,
               target_tree: Optional[cKDTree] = None) -> GicpResult:
    """Iteratively minimize the GICP cost of source against target from ``init``.

    Gauss-Newton with per-iteration correspondences. The call ends
    converged at the pose after a step under both epsilons, or on a
    revisit: a step that lands within both epsilons (translation distance,
    rotation angle) of a pose an earlier iteration linearized at. Nearest
    pairing and the Mahalanobis solve do not lower one common cost, so they
    can cycle; a revisit ends the call at the cycle's lowest-cost pose from
    the revisited one on, each cost taken under that pose's own pairs. The
    call ends unconverged, at the last pose that lowered the cost, when the
    iterations run out, when fewer than ``_MIN_CORRESPONDENCES`` pairs are
    left after the first iteration, or when a step does not lower the cost
    with W frozen. Correspondences are searched in ``target_tree`` if
    given, else in the tree the target carries, else in a tree built here.
    A source point is searched again only where its nearest target could
    have changed (see :class:`_NearestTargets`), so the correspondences
    equal a k = 1 search of every point at every iteration. The sums run
    over the source in its stored order.
    """
    params = params if params is not None else GicpParams()
    if params.max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if not params.max_correspondence_distance > 0.0:
        # scipy reads a negative distance bound as no bound at all
        raise ValueError("max_correspondence_distance must be positive")
    if len(source) < _MIN_CORRESPONDENCES or len(target) < _MIN_CORRESPONDENCES:
        raise ValueError("insufficient overlap")
    for cloud, name in ((source, "source"), (target, "target")):
        if cloud.covariances is None:
            raise ValueError(f"{name} cloud has no covariances")
    tree = target_tree if target_tree is not None else target.tree
    if tree is None:
        tree = cKDTree(target.points)
    src_basis = _moment_basis(source.points)
    nearest_targets = _NearestTargets(tree, params.max_correspondence_distance)
    # each linearization point and its cost under its own pairs
    seen_t = np.empty((params.max_iterations, 3))
    seen_R = np.empty((params.max_iterations, 3, 3))
    seen_err = np.empty(params.max_iterations)
    # an angle under the epsilon (at most pi) has a trace above this
    min_trace = 1.0 + 2.0 * math.cos(min(params.rotation_epsilon, math.pi))
    T = init
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        s_idx, t_idx = nearest_targets.pairs(T.apply(source.points))
        if s_idx.shape[0] < _MIN_CORRESPONDENCES:
            if iterations == 1:
                raise ValueError("insufficient overlap")
            break
        basis = src_basis.take(s_idx, axis=1)
        ps = basis[1:4]
        pt = target.points.take(t_idx, axis=0).T.copy()
        A, c, err, W = _normal_equations(
            T, basis, source.covariances.take(s_idx, axis=1), pt,
            target.covariances.take(t_idx, axis=1))
        i = iterations - 1
        seen_t[i], seen_R[i], seen_err[i] = T.translation, T.rotation, err
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
        first = _first_revisit(seen_R[:i], seen_t[:i], cand,
                               params.translation_epsilon, min_trace)
        if first >= 0:
            best = first + int(seen_err[first:i + 1].argmin())
            T = Pose(seen_R[best].copy(), seen_t[best].copy())
            err = float(seen_err[best])
            converged = True
            break
        cand_err = _model_error(cand, ps, pt, W)
        if not np.isfinite(cand_err):
            raise ValueError("solver diverged")
        if cand_err > err * (1.0 + 1e-6):
            break
        T = cand
        err = cand_err
    return GicpResult(pose=T, converged=converged, error=err,
                      iterations=iterations)
