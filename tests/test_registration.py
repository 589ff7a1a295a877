import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import pack, unpack
from dynlo import registration
from dynlo.geometry import (PointCloud, Pose, conjugation_map, se3_exp, skew,
                            so3_exp)
from dynlo.preprocess import estimate_point_covariances
from dynlo.registration import GicpParams, gicp_align


def structured_cloud(rng, n_per_surface=700, extent=3.0):
    """Room-scale cloud: floor plus two perpendicular walls."""
    n = n_per_surface
    floor = np.column_stack([rng.uniform(-extent, extent, n),
                             rng.uniform(-extent, extent, n), np.zeros(n)])
    wall_y = np.column_stack([rng.uniform(-extent, extent, n),
                              np.full(n, extent), rng.uniform(0, 2, n)])
    wall_x = np.column_stack([np.full(n, -extent),
                              rng.uniform(-extent, extent, n),
                              rng.uniform(0, 2, n)])
    return np.concatenate([floor, wall_y, wall_x])


@pytest.fixture
def room(rng):
    pts = structured_cloud(rng)
    return estimate_point_covariances(PointCloud(pts), 10, 1e-3)


def pair_system(T: Pose, source: PointCloud, target: PointCloud, corr):
    """The solver's terms over explicit (source, target) index pairs: the
    source and target points as columns, then ``_normal_equations``'
    (A, c, err, W) at T."""
    s_idx, t_idx = np.asarray(corr, dtype=int).reshape(-1, 2).T
    basis = registration._moment_basis(source.points[s_idx])
    pt = target.points[t_idx].T.copy()
    return (basis[1:4], pt) + registration._normal_equations(
        T, basis, source.covariances[:, s_idx], pt,
        target.covariances[:, t_idx])


def gicp_cost(T: Pose, source: PointCloud, target: PointCloud, corr) -> float:
    """The GICP cost the solver reads at T: sum d^T W d over the pairs."""
    return pair_system(T, source, target, corr)[4]


def rotation_error_deg(a: Pose, b: Pose) -> float:
    R = a.rotation.T @ b.rotation
    c = (np.trace(R) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


class TestResidual:
    def test_identity_on_identical_clouds_is_zero(self, room):
        corr = np.column_stack([np.arange(len(room)), np.arange(len(room))])
        assert gicp_cost(Pose.identity(), room, room, corr) == pytest.approx(0.0)

    def test_single_pair_closed_form(self):
        # both covariances eps*I: residual = |d|^2 / (2 eps)
        eps = 1e-3
        src = PointCloud([[0.0, 0.0, 0.0]], covariances=pack([eps * np.eye(3)]))
        tgt = PointCloud([[0.3, -0.2, 0.5]], covariances=pack([eps * np.eye(3)]))
        d = np.array([0.3, -0.2, 0.5])
        got = gicp_cost(Pose.identity(), src, tgt, [[0, 0]])
        assert got == pytest.approx(float(d @ d) / (2 * eps), rel=1e-9)

    def test_truth_beats_perturbations(self, rng, room):
        T_true = Pose.from_yaw(0.2, (0.4, -0.3, 0.1))
        target = room.transformed(T_true)
        corr = np.column_stack([np.arange(len(room)), np.arange(len(room))])
        at_truth = gicp_cost(T_true, room, target, corr)
        for _ in range(20):
            dv = rng.normal(size=3)
            dv = dv / np.linalg.norm(dv) * rng.uniform(0.1, 0.5)
            dw = rng.normal(size=3)
            dw = dw / np.linalg.norm(dw) * rng.uniform(0.05, 0.2)
            perturbed = T_true.compose(se3_exp(np.concatenate([dv, dw])))
            assert gicp_cost(perturbed, room, target, corr) > at_truth

    def test_nonnegative(self, rng, room):
        target = room.transformed(Pose.from_yaw(0.1, (0.2, 0.0, 0.0)))
        corr = np.column_stack([np.arange(0, len(room), 3),
                                np.arange(0, len(room), 3)])
        for _ in range(10):
            xi = rng.normal(scale=0.2, size=6)
            T = se3_exp(xi)
            assert gicp_cost(T, room, target, corr) >= 0.0


class TestGradient:
    def test_matches_central_finite_differences(self, rng):
        pts = rng.normal(0, 2, (200, 3))
        src = estimate_point_covariances(PointCloud(pts), 8, 1e-3)
        tgt = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.05, pts.shape)), 8, 1e-3)
        corr = np.column_stack([np.arange(200), np.arange(200)])
        for _ in range(5):
            T = se3_exp(rng.normal(scale=0.1, size=6))
            ps, pt, _, c, _, W = pair_system(T, src, tgt, corr)
            # the solver's gradient is 2c, of the cost with W frozen at T
            h = 1e-6
            fd = np.zeros(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                hi = registration._model_error(T.compose(se3_exp(e)), ps, pt, W)
                lo = registration._model_error(T.compose(se3_exp(-e)), ps, pt, W)
                fd[i] = (hi - lo) / (2 * h)
            rel = np.abs(2 * c - fd) / np.maximum(np.abs(fd), 1e-12)
            assert rel.max() < 1e-5

    def test_zero_at_perfect_alignment(self, room):
        corr = np.column_stack([np.arange(len(room)), np.arange(len(room))])
        c = pair_system(Pose.identity(), room, room, corr)[3]
        assert np.allclose(c, 0.0, atol=1e-12)


def random_spd(rng, n, scale=1.0):
    """Symmetric positive definite stack with eigenvalues in [scale/2, 2 scale]."""
    Q = np.array([so3_exp(w) for w in rng.normal(size=(n, 3))])
    lam = scale * rng.uniform(0.5, 2.0, (n, 3))
    return np.einsum("nij,nj,nkj->nik", Q, lam, Q)


class TestPackedKernels:
    """The kernels take packed (6, n) and point (3, n) columns."""

    def test_conjugation_matches_dense(self, rng):
        C = random_spd(rng, 50)
        for _ in range(5):
            R = so3_exp(rng.normal(size=3))
            got = conjugation_map(R).T @ pack(C)
            want = pack(R @ C @ R.T)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_fused_information_matches_inverse(self, rng):
        cs, ct = random_spd(rng, 200), random_spd(rng, 200, 0.1)
        R = so3_exp(rng.normal(size=3))
        got = registration._fused_information(R, pack(cs), pack(ct))
        want = np.linalg.inv(ct + R @ cs @ R.T)
        np.testing.assert_allclose(unpack(got), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_singular_fused_stack_is_jittered(self):
        # a planar source covariance and no target covariance: singular
        # until the jitter is added to the diagonal
        eps = registration._JITTER
        cs = pack(np.array([np.eye(3), np.diag([1.0, 1.0, 0.0])]))
        W = registration._fused_information(np.eye(3), cs, np.zeros((6, 2)))
        want = np.array([np.diag([1.0 / (1.0 + eps)] * 3),
                         np.diag([1.0 / (1.0 + eps), 1.0 / (1.0 + eps), 1.0 / eps])])
        np.testing.assert_allclose(unpack(W), want, rtol=1e-12)

    def test_singular_after_jitter_raises(self):
        # the first matrix triggers the retry, which the second one (an
        # eigenvalue of exactly -jitter) fails
        eps = registration._JITTER
        cs = pack(np.array([np.diag([1.0, 1.0, 0.0]),
                                          np.diag([1.0, 1.0, -eps])]))
        with pytest.raises(ValueError, match="fused covariance singular"):
            registration._fused_information(np.eye(3), cs, np.zeros((6, 2)))

    def test_normal_equations_match_dense_reference(self, rng):
        n = 300
        for _ in range(5):
            T = se3_exp(rng.normal(scale=0.3, size=6))
            ps = rng.normal(0.0, 3.0, (n, 3))
            pt = T.apply(ps) + rng.normal(0.0, 0.1, (n, 3))
            cs, ct = random_spd(rng, n, 0.01), random_spd(rng, n, 0.01)
            A, c, err, W = registration._normal_equations(
                T, registration._moment_basis(ps), pack(cs),
                pt.T.copy(), pack(ct))
            # dense reference: sum_i G_i^T B_i G_i with G_i = [-I | skew(p_i)]
            R = T.rotation
            minv = np.linalg.inv(ct + R @ cs @ R.T)
            d = pt - T.apply(ps)
            G = np.zeros((n, 3, 6))
            G[:, :, :3] = -np.eye(3)
            G[:, :, 3:] = [skew(p) for p in ps]
            B = R.T @ minv @ R
            u = np.einsum("nij,nj->ni", minv, d) @ R
            A_ref = np.einsum("nki,nkl,nlj->ij", G, B, G)
            c_ref = np.einsum("nki,nk->i", G, u)
            err_ref = np.einsum("ni,nij,nj->", d, minv, d)
            # entries that cancel to near zero are held to the scale of
            # their matrix
            for got, want in ((A, A_ref), (c, c_ref),
                              (unpack(W), minv)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
            assert err == pytest.approx(err_ref, rel=1e-12)

    def test_assembly_bit_equal_to_einsum_contraction(self, rng):
        # A and c are gathered as signed sums of the packed moments; the
        # terms are ordered so each sum rounds as this contraction does
        G = np.array([skew(e) for e in np.eye(3)])
        second = 4 + np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
        for n in (10, 60, 1500):
            T = se3_exp(rng.normal(scale=0.5, size=6))
            ps = rng.normal(0.0, 5.0, (n, 3))
            pt = (T.apply(ps) + rng.normal(0.0, 0.05, (n, 3))).T.copy()
            basis = registration._moment_basis(ps)
            R = T.rotation
            A, c, _, W = registration._normal_equations(
                T, basis, pack(random_spd(rng, n, 0.01)), pt,
                pack(random_spd(rng, n, 0.01)))
            B = unpack(conjugation_map(R.T).T @ (W @ basis.T))
            A_ref = np.empty((6, 6))
            A_ref[:3, :3] = B[0]
            A_ref[:3, 3:] = -np.einsum("kij,kjl->il", B[1:4], G)
            A_ref[3:, :3] = A_ref[:3, 3:].T
            A_ref[3:, 3:] = -np.einsum("kab,klbc,lcd->ad", G, B[second], G)
            d = pt - (R @ ps.T + T.translation[:, None])
            U = (basis[:4] @ registration._sym_matvec(W, d).T) @ R
            c_ref = np.concatenate([-U[0],
                                    -np.einsum("kij,kj->i", G, U[1:])])
            assert np.array_equal(A, A_ref)
            assert np.array_equal(c, c_ref)


class TestAlign:
    def test_self_registration_identity(self, room):
        res = gicp_align(room, room, Pose.identity())
        assert res.converged
        assert res.iterations <= 2
        assert res.error == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.pose.matrix(), np.eye(4), atol=1e-12)

    def test_recovers_known_transform(self, room):
        T_true = Pose.from_yaw(math.radians(10.0), (0.5, 0.0, 0.0))
        target = room.transformed(T_true)
        res = gicp_align(room, target, Pose.identity())
        assert res.converged
        assert np.linalg.norm(res.pose.translation - T_true.translation) < 1e-3
        assert rotation_error_deg(res.pose, T_true) < 0.1

    def test_source_permutation_invariance(self, rng, room):
        T_true = Pose.from_yaw(0.05, (0.2, 0.1, 0.0))
        target = room.transformed(T_true)
        perm = rng.permutation(len(room))
        shuffled = PointCloud(room.points[perm], room.covariances[:, perm])
        a = gicp_align(room, target, Pose.identity())
        b = gicp_align(shuffled, target, Pose.identity())
        # the sums run in the source's stored order, so a shuffle moves the
        # pose by round-off only
        assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert np.allclose(a.pose.matrix(), b.pose.matrix(), rtol=0, atol=1e-12)

    def test_convergence_basin(self, rng, room):
        noisy = PointCloud(room.points + rng.normal(0, 0.01, room.points.shape),
                           room.covariances)
        for _ in range(5):
            dv = rng.normal(size=3)
            dv = dv / np.linalg.norm(dv) * rng.uniform(0, 0.3)
            yaw = rng.uniform(-math.radians(5), math.radians(5))
            init = Pose.from_yaw(yaw, dv)
            res = gicp_align(noisy, room, init)
            assert np.linalg.norm(res.pose.translation) < 0.02
            assert rotation_error_deg(res.pose, Pose.identity()) < 0.5

    def test_insufficient_overlap_raises(self, room):
        far = PointCloud(room.points + 100.0, room.covariances)
        with pytest.raises(ValueError, match="insufficient overlap"):
            gicp_align(far, room, Pose.identity())

    def test_requires_covariances(self, room):
        bare = PointCloud(room.points)
        with pytest.raises(ValueError, match="covariances"):
            gicp_align(bare, room, Pose.identity())

    def test_no_iteration_rejected_before_any_query(self, room, monkeypatch):
        queries = []
        monkeypatch.setattr(registration, "query_neighbors",
                            lambda *args: queries.append(args))
        with pytest.raises(ValueError,
                           match="max_iterations must be at least 1"):
            gicp_align(room, room, Pose.identity(),
                       GicpParams(max_iterations=0))
        assert queries == []

    @pytest.mark.parametrize("gate", [0.0, -1.0])
    def test_no_gate_rejected_before_any_query(self, room, monkeypatch, gate):
        # scipy reads a negative distance bound as no bound at all
        queries = []
        monkeypatch.setattr(registration, "query_neighbors",
                            lambda *args: queries.append(args))
        with pytest.raises(ValueError,
                           match="max_correspondence_distance must be "
                                 "positive"):
            gicp_align(room, room, Pose.identity(),
                       GicpParams(max_correspondence_distance=gate))
        assert queries == []


def shifted_copies(cloud: PointCloud, poses):
    """One target cloud of ``cloud`` moved by each pose, and per pose the
    pairs (source, target) of every point with its own moved copy."""
    n = len(cloud)
    copies = [cloud.transformed(T) for T in poses]
    target = PointCloud(np.concatenate([c.points for c in copies]),
                        np.concatenate([c.covariances for c in copies], axis=1))
    return target, [(np.arange(n), m * n + np.arange(n))
                    for m in range(len(poses))]


class TestExits:
    """Each way out of gicp_align; a fake stands in where no real input
    reaches an exit."""

    @pytest.fixture
    def moved(self, room):
        return room.transformed(Pose.from_yaw(0.05, (0.2, 0.1, 0.0)))

    @pytest.fixture
    def linearization_costs(self, monkeypatch):
        """The cost of each iteration's pose, as ``_normal_equations``
        returns it."""
        costs = []
        original = registration._normal_equations

        def recording(*args):
            out = original(*args)
            costs.append(out[2])
            return out

        monkeypatch.setattr(registration, "_normal_equations", recording)
        return costs

    def one_step(self, room, moved):
        return gicp_align(room, moved, Pose.identity(),
                          GicpParams(max_iterations=1)).pose

    @pytest.mark.parametrize("raised_from", [1, 2])
    def test_step_that_raises_the_cost_ends_unconverged(
            self, room, moved, monkeypatch, linearization_costs, raised_from):
        # from call raised_from on, the candidate's cost reads one above the
        # cost at the linearization point
        after_one = self.one_step(room, moved)
        original = registration._model_error
        calls = []

        def raised(*args):
            calls.append(args)
            if len(calls) < raised_from:
                return original(*args)
            return linearization_costs[-1] + 1.0

        monkeypatch.setattr(registration, "_model_error", raised)
        del linearization_costs[:]
        res = gicp_align(room, moved, Pose.identity())
        assert not res.converged
        assert res.iterations == raised_from
        # the call ends at the last pose that lowered the cost, with its cost
        want = Pose.identity() if raised_from == 1 else after_one
        assert np.array_equal(res.pose.matrix(), want.matrix())
        assert res.error == linearization_costs[-1]

    def test_overlap_lost_after_the_first_iteration(self, room, moved,
                                                     monkeypatch):
        after_one = self.one_step(room, moved)
        original = registration._NearestTargets.pairs
        calls = []

        def thinned(nearest, q):
            s_idx, t_idx = original(nearest, q)
            calls.append(len(s_idx))
            if len(calls) == 2:
                return s_idx[:9], t_idx[:9]
            return s_idx, t_idx

        monkeypatch.setattr(registration._NearestTargets, "pairs", thinned)
        res = gicp_align(room, moved, Pose.identity())
        assert len(calls) == 2 and calls[1] >= 10
        assert not res.converged
        assert res.iterations == 2
        assert np.array_equal(res.pose.matrix(), after_one.matrix())

    def test_non_finite_step_raises(self, room, moved, monkeypatch):
        original = registration._normal_equations

        def nan_gradient(*args):
            A, c, err, W = original(*args)
            return A, np.full_like(c, np.nan), err, W

        monkeypatch.setattr(registration, "_normal_equations", nan_gradient)
        with pytest.raises(ValueError, match="^solver diverged$"):
            gicp_align(room, moved, Pose.identity())

    @pytest.mark.parametrize("cost", [np.inf, np.nan])
    def test_non_finite_cost_raises(self, room, moved, monkeypatch, cost):
        monkeypatch.setattr(registration, "_model_error",
                            lambda *args: cost)
        with pytest.raises(ValueError, match="^solver diverged$"):
            gicp_align(room, moved, Pose.identity())


    # the revisit exit: a faked pairing cycles through fixed pair sets, each
    # pulling the pose onto its own copy of the source
    A = Pose(np.eye(3), (0.05, 0.0, 0.0))
    B = Pose(np.eye(3), (0.0, 0.05, 0.0))
    C = Pose(np.eye(3), (0.0, 0.0, 0.05))

    @pytest.fixture
    def linearizations(self, monkeypatch):
        """(pose, cost) of each iteration's linearization point."""
        seen = []
        original = registration._normal_equations

        def recording(T, *args):
            out = original(T, *args)
            seen.append((T, out[2]))
            return out

        monkeypatch.setattr(registration, "_normal_equations", recording)
        return seen

    @staticmethod
    def fake_pairs(monkeypatch, sequence):
        """Iteration i pairs with ``sequence[i]``, the last set from then on."""
        calls = []

        def cycling(nearest, q):
            calls.append(q)
            return sequence[min(len(calls), len(sequence)) - 1]

        monkeypatch.setattr(registration._NearestTargets, "pairs", cycling)

    def test_ends_at_the_lowest_cost_pose_of_the_cycle(
            self, room, monkeypatch, linearizations):
        target, (a, b, c) = shifted_copies(room, [self.A, self.B, self.C])
        # the set towards C keeps a third of the points, so the pose it is
        # taken at, B, has the cycle's lowest cost under its own pairs
        c = (c[0][::3], c[1][::3])
        self.fake_pairs(monkeypatch, [a, b, c, a, b, c, a])
        res = gicp_align(room, target, Pose.identity())
        poses, costs = zip(*linearizations)
        # identity -> A -> B -> C, whose step lands back on A
        assert res.iterations == 4 and len(poses) == 4
        for T, want in zip(poses[1:], (self.A, self.B, self.C)):
            np.testing.assert_allclose(T.matrix(), want.matrix(), atol=1e-9)
        assert res.converged
        assert costs[2] < min(costs[1], costs[3])
        assert np.array_equal(res.pose.matrix(), poses[2].matrix())
        assert res.error == costs[2]

    @pytest.mark.parametrize("kind", ["translation", "rotation"])
    @pytest.mark.parametrize("factor, revisits", [(0.5, True), (2.0, False)])
    def test_only_a_pose_within_both_epsilons_is_revisited(
            self, room, monkeypatch, linearizations, kind, factor,
            revisits):
        params = GicpParams()
        if kind == "translation":
            offset = (factor * params.translation_epsilon, 0.0, 0.0)
            near_a = Pose(self.A.rotation, self.A.translation + offset)
        else:
            near_a = Pose(so3_exp((0.0, 0.0, factor * params.rotation_epsilon)),
                          self.A.translation)
        target, (a, b, a2) = shifted_copies(room, [self.A, self.B, near_a])
        # identity -> A -> B, whose step lands near A; pairing on with the
        # last set converges there
        self.fake_pairs(monkeypatch, [a, b, a2])
        res = gicp_align(room, target, Pose.identity(), params)
        poses, costs = zip(*linearizations)
        assert res.converged
        if revisits:
            assert res.iterations == 3
            best = 1 + int(np.argmin(costs[1:]))
            assert np.array_equal(res.pose.matrix(), poses[best].matrix())
        else:
            # a step under both epsilons from the pose near A
            assert res.iterations == 4
            np.testing.assert_allclose(res.pose.matrix(), near_a.matrix(),
                                       atol=1e-9)


def grid_room(step=0.25, extent=2.0):
    """Floor and two walls sampled on an exact dyadic grid, each point once."""
    a = np.arange(-extent, extent + step / 2, step)
    h = np.arange(0.0, 2.0 + step / 2, step)
    u, v = (g.ravel() for g in np.meshgrid(a, a))
    s, z = (g.ravel() for g in np.meshgrid(a, h))
    return np.unique(np.concatenate([
        np.column_stack([u, v, np.zeros_like(u)]),
        np.column_stack([s, np.full_like(s, extent), z]),
        np.column_stack([np.full_like(s, -extent), s, z])]), axis=0)


def brute_force_pairs(T, source, target, max_distance):
    """(source, target) indices of a plain k = 1 search of every point, in
    the tree gicp_align searches: an exact tie is answered by the tree's
    layout."""
    tree = target.tree if target.tree is not None else cKDTree(target.points)
    dist, idx = tree.query(
        T.apply(source.points), k=1, distance_upper_bound=max_distance)
    found = np.isfinite(dist)
    return np.flatnonzero(found), idx[found]


class TestCorrespondenceReuse:
    """The reused correspondences equal a k = 1 search at every iteration."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = registration._normal_equations

        def recording(T, basis, cs, pt, ct):
            calls.append((T, basis[1:4].T.copy(), pt.T.copy()))
            return original(T, basis, cs, pt, ct)

        monkeypatch.setattr(registration, "_normal_equations", recording)
        return calls

    def check(self, solves, source, target, init, params=GicpParams()):
        # distinct target points, so equal points mean equal indices
        assert len(np.unique(target.points, axis=0)) == len(target)
        del solves[:]
        res = gicp_align(source, target, init, params)
        assert len(solves) == res.iterations
        for T, ps, pt in solves:
            s_idx, t_idx = brute_force_pairs(
                T, source, target, params.max_correspondence_distance)
            assert np.array_equal(ps, source.points[s_idx])
            assert np.array_equal(pt, target.points[t_idx])
        return res

    @pytest.mark.parametrize("seed", range(4))
    def test_random_clouds_under_small_motions(self, solves, seed):
        rng = np.random.default_rng(seed)
        pts = structured_cloud(rng, 400)
        source = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.02, pts.shape)), 10, 1e-3)
        target = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.02, pts.shape)), 10, 1e-3)
        init = se3_exp(np.concatenate([rng.normal(0, 0.15, 3),
                                       rng.normal(0, 0.03, 3)]))
        assert self.check(solves, source, target, init).iterations > 1

    def test_exact_ties_on_a_grid(self, solves):
        grid = grid_room()
        target = estimate_point_covariances(PointCloud(grid), 10, 1e-3)
        # half a step off the grid along x: the floor and the y wall tie
        # between two targets
        source = estimate_point_covariances(
            PointCloud(grid + [0.125, 0.0, 0.0]), 10, 1e-3)
        dist, _ = cKDTree(grid).query(source.points, k=2)
        assert np.mean(dist[:, 0] == dist[:, 1]) > 0.7
        assert self.check(solves, source, target,
                          Pose.identity()).iterations > 1

    def test_far_from_the_origin(self, solves, room):
        far = Pose.from_yaw(0.3, (1e5, -1e5, 1e5))
        target = room.transformed(far)
        init = far.compose(Pose.from_yaw(0.02, (0.1, -0.05, 0.0)))
        assert self.check(solves, room, target, init).iterations > 1

    def test_rows_beyond_the_gate(self, solves, rng, room):
        # floor points lifted about one gate width: they cross the gate as
        # the pose moves; others lifted far out never have a target
        floor = room.points[room.points[:, 2] == 0.0][:300]
        lifted = floor + np.column_stack([
            np.zeros((300, 2)), rng.uniform(0.8, 1.2, 300)])
        lifted[::3, 2] += 5.0
        source = estimate_point_covariances(
            PointCloud(np.concatenate([room.points, lifted])), 10, 1e-3)
        init = Pose.from_yaw(0.05, (0.2, 0.1, -0.1))
        res = self.check(solves, source, room, init)
        assert res.iterations > 1
        assert all(len(ps) < len(source) for _, ps, _ in solves)

    def test_later_iterations_query_fewer_rows(self, room, monkeypatch):
        rows = [0]
        original = registration.query_neighbors

        def counting(tree, points, k, distance_upper_bound=np.inf):
            rows[-1] += len(points)
            return original(tree, points, k, distance_upper_bound)

        solve = registration._normal_equations

        def next_iteration(*args):
            rows.append(0)
            return solve(*args)

        monkeypatch.setattr(registration, "query_neighbors", counting)
        monkeypatch.setattr(registration, "_normal_equations", next_iteration)
        target = room.transformed(Pose.from_yaw(0.02, (0.1, 0.05, 0.0)))
        res = gicp_align(room, target, Pose.identity())
        per_iteration = rows[:res.iterations]
        assert res.iterations > 2
        assert per_iteration[0] == len(room)
        assert all(n < len(room) for n in per_iteration[1:])
        # the last step is tiny: nearly every row keeps its answer
        assert per_iteration[-1] < len(room) // 10


class TestRowsOutsideTheGate:
    """A row with no target inside the gate is searched again only once it
    could have moved into the gate."""

    GATE = 1.0

    @pytest.fixture
    def searched(self, monkeypatch):
        rows = []
        original = registration.query_neighbors

        def recording(tree, points, k, distance_upper_bound=np.inf):
            rows.append(points.copy())
            return original(tree, points, k, distance_upper_bound)

        monkeypatch.setattr(registration, "query_neighbors", recording)
        return rows

    @given(st.integers(0, 2**32 - 1), st.lists(st.tuples(
        st.floats(-0.1, 0.1), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1),
        st.floats(-0.02, 0.02)), min_size=1, max_size=12))
    def test_pairs_equal_a_k1_search_under_small_moves(self, seed, moves):
        # sparse: ~2.3 m between targets, so many rows lie outside the gate
        rng = np.random.default_rng(seed)
        target = rng.uniform(-4.0, 4.0, (40, 3))
        source = rng.uniform(-4.0, 4.0, (30, 3))
        tree = cKDTree(target)
        nearest_targets = registration._NearestTargets(tree, self.GATE)
        T = Pose.identity()
        for *step, yaw in [(0.0, 0.0, 0.0, 0.0)] + moves:
            T = T.compose(Pose.from_yaw(yaw, step))
            q = T.apply(source)
            s_idx, t_idx = nearest_targets.pairs(q.copy())
            dist, idx = tree.query(q, k=1, distance_upper_bound=self.GATE)
            found = np.isfinite(dist)
            assert np.array_equal(s_idx, np.flatnonzero(found))
            assert np.array_equal(t_idx, idx[found])

    def test_grid_rows_at_and_past_the_gate(self, searched):
        g = np.arange(-8.0, 9.0, 4.0)
        x, y = (a.ravel() for a in np.meshgrid(g, g))
        target = np.column_stack([x, y, np.zeros_like(x)])
        tree = cKDTree(target)
        nearest_targets = registration._NearestTargets(tree, self.GATE)
        # above grid points: exactly at the gate (clearance 0), 5 cm past it
        # and beyond the search's reach (clearance 0.1 gate)
        q = np.array([[0.0, 0.0, 1.0], [4.0, 0.0, 1.05], [-4.0, 0.0, 3.0]])
        s_idx, _ = nearest_targets.pairs(q.copy())
        assert s_idx.size == 0  # scipy's bound is strict
        del searched[:]
        # each row moves less than its clearance, the first sideways
        q += [[0.0, 0.01, 0.0], [0.0, 0.0, -0.02], [0.0, 0.0, -0.09]]
        s_idx, _ = nearest_targets.pairs(q.copy())
        assert s_idx.size == 0
        assert np.array_equal(np.concatenate(searched), q[:1])
        del searched[:]
        # the second row moves into the gate, the third past its clearance
        q += [[0.0, 0.0, 0.0], [0.0, 0.0, -0.04], [0.0, 0.0, -0.02]]
        s_idx, t_idx = nearest_targets.pairs(q.copy())
        assert np.array_equal(np.concatenate(searched), q[1:])
        assert s_idx.tolist() == [1]
        assert target[t_idx].tolist() == [[4.0, 0.0, 0.0]]

    def test_sparse_scan_pair_keeps_its_unpaired_rows(self, searched,
                                                      monkeypatch):
        from dynlo.preprocess import voxel_downsample
        from dynlo.simulate import (reference_config, reference_dynamic_scene,
                                    simulate)
        cfg = reference_config()
        pre = cfg.preprocess
        sim = simulate(reference_dynamic_scene(n_scans=2, rays_per_scan=1500),
                       0)
        source, target = (
            estimate_point_covariances(
                voxel_downsample(scan, pre.voxel_leaf), pre.covariance_knn,
                pre.plane_epsilon)
            for scan in (sim.scans[1], sim.scans[0]))
        per_call, unpaired = [], []
        pairs = registration._NearestTargets.pairs

        def counting(self, q):
            start = len(searched)
            s_idx, t_idx = pairs(self, q)
            per_call.append(sum(len(rows) for rows in searched[start:]))
            unpaired.append(len(q) - len(s_idx))
            return s_idx, t_idx

        monkeypatch.setattr(registration._NearestTargets, "pairs", counting)
        res = gicp_align(source, target, Pose.identity(), cfg.gicp)
        assert res.iterations > 2
        assert per_call[0] == len(source)
        assert all(n < len(source) for n in per_call[1:])
        # the old rule searched every unpaired row again at the next call
        assert per_call[-1] < unpaired[-2]


class TestCarriedTree:
    @pytest.fixture
    def tree_builds(self, monkeypatch):
        builds = []
        original = registration.cKDTree

        def counting_tree(points):
            builds.append(len(points))
            return original(points)

        monkeypatch.setattr(registration, "cKDTree", counting_tree)
        return builds

    def test_same_result_with_carried_and_fresh_tree(self, room, tree_builds):
        target = estimate_point_covariances(
            room.transformed(Pose.from_yaw(0.05, (0.2, 0.1, 0.0))), 10, 1e-3)
        assert target.tree is not None
        bare = PointCloud(target.points, target.covariances)

        def align(tgt):
            source = PointCloud(room.points, room.covariances)
            return gicp_align(source, tgt, Pose.identity())

        carried = align(target)
        assert tree_builds == []
        fresh = align(bare)
        assert tree_builds == [len(bare)]
        assert np.array_equal(carried.pose.matrix(), fresh.pose.matrix())
        assert (carried.converged, carried.error, carried.iterations) == \
            (fresh.converged, fresh.error, fresh.iterations)

    def test_explicit_target_tree_wins(self, room, tree_builds):
        gicp_align(room, PointCloud(room.points, room.covariances),
                   Pose.identity(), target_tree=room.tree)
        assert tree_builds == []

    def test_arguments_left_untouched(self, room):
        source = PointCloud(room.points, room.covariances)
        before = [dict(vars(c)) for c in (source, room)]
        gicp_align(source, room, Pose.identity())
        for cloud, attrs in zip((source, room), before):
            assert vars(cloud).keys() == attrs.keys()
            assert all(vars(cloud)[k] is v for k, v in attrs.items())


class TestScanToScanAndMap:
    def test_stationary_scene_gives_identity(self, rng):
        pts = structured_cloud(rng, 500)
        a = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.01, pts.shape)), 10, 1e-3)
        b = estimate_point_covariances(
            PointCloud(pts + rng.normal(0, 0.01, pts.shape)), 10, 1e-3)
        res = gicp_align(a, b, Pose.identity())
        assert np.linalg.norm(res.pose.translation) < 0.02
        assert rotation_error_deg(res.pose, Pose.identity()) < 0.2

    def test_forward_motion_recovered(self, rng):
        from dynlo.simulate import (SensorModel, SimScene,
                                    reference_dynamic_scene, simulate)
        from dynlo.preprocess import crop_self_returns, voxel_downsample
        base = reference_dynamic_scene(n_scans=2, rays_per_scan=3000,
                                       ego_speed=1.0, dt=1.0)
        # whole scene in range: no sampling frontier between the two scans
        sensor = SensorModel(rays_per_scan=3000, max_range=100.0,
                             noise_sigma=0.02)
        scene = SimScene(dt=base.dt, ego_poses=base.ego_poses,
                         sensor=sensor, rects=base.rects,
                         boxes=base.boxes, movers=[])
        res = simulate(scene, 0)
        clouds = []
        for s in res.scans:
            c = voxel_downsample(crop_self_returns(s, 0.5), 0.25)
            clouds.append(estimate_point_covariances(c, 10, 1e-3))
        # the robot advanced 1 m along +x: the scan content shifted by -x,
        # and registering scan k to scan k-1 recovers the +x ego motion.
        # Per-scan motion must stay below the correspondence gate.
        params = GicpParams(max_correspondence_distance=2.5)
        rel = gicp_align(clouds[1], clouds[0], Pose.identity(), params).pose
        assert np.allclose(rel.translation, [1.0, 0.0, 0.0], atol=1e-2)

    def test_scan_to_map_degenerate_submap_matches_scan_to_scan(self, rng, room):
        T_rel = Pose.from_yaw(0.03, (0.15, -0.05, 0.02))
        current = room.transformed(T_rel.inverse())
        world_prev = Pose.from_yaw(0.8, (4.0, -2.0, 0.3))
        submap = room.transformed(world_prev)
        rel = gicp_align(current, room, Pose.identity()).pose
        expected = world_prev.compose(rel)
        refined = gicp_align(current, submap, expected).pose
        assert np.allclose(refined.matrix(), expected.matrix(), atol=1e-6)

    def test_empty_submap_raises(self, room):
        with pytest.raises(ValueError, match="insufficient overlap"):
            gicp_align(room, PointCloud(np.empty((0, 3))), Pose.identity())


class TestReferencePairCycle:
    """Scans 0 and 1 of the reference scene (seed 1, 6000 rays), preprocessed
    without removal, on which nearest pairing and the solve alternate
    between two poses from the identity and from ground truth."""

    @pytest.fixture(scope="class")
    def pair(self):
        from dynlo.preprocess import crop_self_returns, voxel_downsample
        from dynlo.simulate import (reference_config, reference_dynamic_scene,
                                    simulate)
        cfg = reference_config()
        pre = cfg.preprocess
        sim = simulate(reference_dynamic_scene(n_scans=2, rays_per_scan=6000),
                       1)
        source, target = (
            estimate_point_covariances(
                voxel_downsample(crop_self_returns(scan,
                                                   pre.self_crop_half_extent),
                                 pre.voxel_leaf),
                pre.covariance_knn, pre.plane_epsilon)
            for scan in (sim.scans[1], sim.scans[0]))
        truth = sim.gt_poses[0].inverse().compose(sim.gt_poses[1])
        return source, target, truth, cfg.gicp

    @staticmethod
    def distance(a: Pose, b: Pose) -> float:
        return float(np.linalg.norm(a.translation - b.translation))

    def test_the_call_ends_on_the_revisit(self, pair, monkeypatch):
        source, target, truth, params = pair
        ends = [gicp_align(source, target, init, params)
                for init in (Pose.identity(), truth)]
        # without the exit both calls cycle until the iterations run out,
        # and end on whichever pose of the cycle the last one lands on
        monkeypatch.setattr(registration, "_first_revisit",
                            lambda *args: -1)
        cycling = [gicp_align(source, target, init, params)
                   for init in (Pose.identity(), truth)]
        assert [res.converged for res in cycling] == [False, False]
        assert [res.iterations for res in cycling] == [params.max_iterations] * 2
        for res in ends:
            assert res.converged
            assert res.iterations <= 6
        # both calls end at the cycle's lowest-cost pose (cost 4859.5, that
        # of the other pose 4902.7): from ground truth as far from it as
        # the cycling call's end (26.2 mm, within 1 um), and from the
        # identity 2.6 mm farther than the cycling call's end, which the
        # 64th iteration put on the other pose. The cost minimum itself
        # lies ~26 mm off, since no removal leaves the movers in the scans
        np.testing.assert_allclose(ends[0].pose.matrix(),
                                   ends[1].pose.matrix(), atol=1e-9)
        assert ends[0].error == pytest.approx(ends[1].error, rel=1e-9)
        assert (self.distance(ends[1].pose, truth)
                <= self.distance(cycling[1].pose, truth) + 1e-6)
