import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import pack, unpack
from dynlo.geometry import PACKED_COLS, PACKED_ROWS, PointCloud
from dynlo.preprocess import (_normals, crop_self_returns,
                              estimate_point_covariances, voxel_downsample)


def brute_force_crop(points, half_extent):
    keep = [p for p in points if not (abs(p[0]) <= half_extent
                                      and abs(p[1]) <= half_extent
                                      and abs(p[2]) <= half_extent)]
    return np.array(keep).reshape(-1, 3)


def unique_voxel_reference(points, leaf):
    """Grouping by np.unique over the integer voxel rows, summed in input order."""
    idx = np.floor(points / leaf).astype(np.int64)
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.zeros((uniq.shape[0], 3))
    np.add.at(sums, inverse, points)
    counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(float)
    return sums / counts[:, None]


def eigh_covariance(points, plane_epsilon):
    """Reference: eigendecompose the sample covariance, eigenvalues -> (eps, 1, 1)."""
    centered = points - points.mean(axis=0)
    vals, vecs = np.linalg.eigh(centered.T @ centered / len(points))
    return vecs @ np.diag([plane_epsilon, 1.0, 1.0]) @ vecs.T, vals, vecs


# coordinates that collide in a voxel often, plus extremes and negatives
_coordinate = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([-1e6, -2.5, -0.25, -1e-9, 0.0, 0.1, 0.2499, 0.25, 1e6]))


def lexsort_voxel_downsample(points, leaf):
    """Centroids grouped by a stable three-key lexsort of the voxel indices."""
    idx = np.floor(points / leaf).astype(np.int64)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    idx = idx[order]
    new_voxel = np.empty(len(order), dtype=bool)
    new_voxel[0] = True
    np.any(idx[1:] != idx[:-1], axis=1, out=new_voxel[1:])
    group = np.cumsum(new_voxel) - 1
    n_voxels = int(group[-1]) + 1
    counts = np.bincount(group, minlength=n_voxels).astype(float)
    centroids = np.empty((n_voxels, 3))
    for axis in range(3):
        sums = np.bincount(group, weights=points[order, axis],
                           minlength=n_voxels)
        centroids[:, axis] = sums / counts
    return centroids


# small coordinates of either sign, and outliers whose voxel box would
# overflow an int64 key
_near = st.one_of(st.floats(-20.0, 20.0, allow_nan=False),
                  st.sampled_from([-2.5, -0.25, -1e-9, 0.0, 0.2499, 0.25]))
_outlier = st.sampled_from([-1e7, 1e7])


def packed_scatter(neigh):
    """(6, n) packed sample covariances of (n, k, 3) neighbourhoods, centred
    by ``mean(axis=1)``; each entry a plain sum over the neighbours in order."""
    centred = neigh - neigh.mean(axis=1, keepdims=True)
    scatter = np.zeros((6, len(neigh)))
    for j in range(neigh.shape[1]):
        for row, a, b in zip(scatter, PACKED_ROWS, PACKED_COLS):
            row += centred[:, j, a] * centred[:, j, b]
    return scatter / neigh.shape[1]


def plane_covariances(normals, plane_epsilon):
    """``I - (1 - plane_epsilon) n n^T`` per normal, packed."""
    covariances = normals[:, :, None] * normals[:, None, :]
    covariances *= -(1.0 - plane_epsilon)
    covariances[:, [0, 1, 2], [0, 1, 2]] += 1.0
    return pack(covariances)


def default_tree_neighbourhoods(points, k):
    _, nn = cKDTree(points).query(points, k=k)
    return points[nn.reshape(len(points), k)]


def mean_centred_covariances(points, k, plane_epsilon):
    """Covariances spelled out: neighbours from a default cKDTree, the
    packed scatter of :func:`packed_scatter`, and the closed-form normal."""
    neigh = default_tree_neighbourhoods(points, k)
    return plane_covariances(_normals(packed_scatter(neigh)), plane_epsilon)


def matmul_covariances(points, k, plane_epsilon):
    """Covariances from a per-point matmul scatter, as first written."""
    neigh = default_tree_neighbourhoods(points, k)
    neigh -= neigh.mean(axis=1, keepdims=True)
    scatter = np.matmul(neigh.transpose(0, 2, 1), neigh) / float(k)
    return plane_covariances(_normals(pack(scatter)), plane_epsilon)


def brute_force_voxel(points, leaf):
    """Hash-by-floor-division grouping oracle."""
    groups = {}
    for p in points:
        key = tuple(int(np.floor(c / leaf)) for c in p)
        groups.setdefault(key, []).append(p)
    out = [np.mean(groups[k], axis=0) for k in sorted(groups)]
    return np.array(out).reshape(-1, 3)


class TestCrop:
    def test_far_cloud_unchanged(self, rng):
        pts = rng.normal(size=(100, 3)) + 15.0
        out = crop_self_returns(PointCloud(pts), 0.5)
        assert np.array_equal(out.points, pts)

    def test_origin_point_removed(self):
        out = crop_self_returns(PointCloud([[0.0, 0.0, 0.0]]), 0.5)
        assert len(out) == 0

    def test_matches_brute_force(self, rng):
        pts = rng.normal(scale=1.0, size=(500, 3))
        out = crop_self_returns(PointCloud(pts), 0.5)
        assert np.allclose(out.points, brute_force_crop(pts, 0.5))

    def test_preserves_labels_and_order(self, rng):
        pts = rng.normal(scale=1.0, size=(200, 3))
        labels = rng.random(200) > 0.5
        out = crop_self_returns(PointCloud(pts, labels=labels), 0.5)
        keep = ~np.all(np.abs(pts) <= 0.5, axis=1)
        assert np.array_equal(out.labels, labels[keep])


class TestVoxel:
    def test_single_point(self):
        out = voxel_downsample(PointCloud([[1.3, -0.2, 0.7]]), 0.25)
        assert np.allclose(out.points, [[1.3, -0.2, 0.7]])

    def test_cube_corners_collapse_to_centroid(self):
        center = np.array([0.125, 0.125, 0.125])
        corners = center + 0.05 * np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        out = voxel_downsample(PointCloud(corners), 0.25)
        assert len(out) == 1
        assert np.allclose(out.points[0], center)

    def test_matches_grouping_oracle(self, rng):
        pts = rng.uniform(-4, 4, size=(1000, 3))
        out = voxel_downsample(PointCloud(pts), 0.25)
        assert np.allclose(out.points, brute_force_voxel(pts, 0.25), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_size_and_distance_bounds(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3, 3, size=(200, 3))
        leaf = 0.5
        out = voxel_downsample(PointCloud(pts), leaf)
        assert len(out) <= 200
        # every centroid lies within half a voxel diagonal of some input point
        d = np.linalg.norm(out.points[:, None, :] - pts[None, :, :], axis=2)
        assert np.all(d.min(axis=1) <= leaf * np.sqrt(3) / 2 + 1e-12)

    @given(st.lists(st.tuples(_coordinate, _coordinate, _coordinate),
                    min_size=1, max_size=80),
           st.floats(0.01, 10.0))
    def test_bit_identical_to_unique_grouping(self, rows, leaf):
        pts = np.array(rows, dtype=float)
        out = voxel_downsample(PointCloud(pts), leaf)
        assert np.array_equal(out.points, unique_voxel_reference(pts, leaf))

    @given(st.lists(st.tuples(_near, _near, _near), min_size=1, max_size=60),
           st.lists(st.tuples(_outlier, _outlier, _outlier), max_size=2),
           st.floats(0.05, 2.0))
    def test_bit_identical_to_lexsort(self, rows, outliers, leaf):
        pts = np.array(rows + outliers, dtype=float)
        out = voxel_downsample(PointCloud(pts), leaf)
        assert np.array_equal(out.points, lexsort_voxel_downsample(pts, leaf))

    @pytest.mark.parametrize("corner", [
        # with the origin, a voxel box of 2^63 - 2^42 voxels: an int64
        # offset, but not once scaled by the 73 rows, so sorted on the three
        # indices; so are boxes of 2^63 voxels and more
        ((2.0**21 - 1, 2.0**21 - 1, 2.0**21 - 2), "lexsort"),
        ((2.0**21 - 1, 2.0**21 - 1, 2.0**21 - 1), "lexsort"),
        ((2.0**21, 2.0**21, 2.0**21), "lexsort"),
        ((1e7, -1e7, 1e7), "lexsort"),
        # the largest voxel index below 2^63
        ((2.0**63 - 1024, 0.0, 0.0), "lexsort"),
        # a box of (2^63 - 1) / 73 voxels, 6223 x 31252369 x 649657: the
        # largest key, 2^63 - 2, still fits; one voxel layer more does not
        ((6222.0, 31252368.0, 649656.0), "key"),
        ((6222.0, 31252368.0, 649657.0), "lexsort"),
    ])
    def test_widest_voxel_boxes(self, rng, monkeypatch, corner):
        corner, branch = corner
        pts = np.concatenate([rng.uniform(0.0, 3.0, (70, 3)),
                              [[0.0, 0.0, 0.0], corner, corner]])
        expected = lexsort_voxel_downsample(pts, 1.0)
        lexsort, calls = np.lexsort, []
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: calls.append(keys) or lexsort(keys))
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert np.array_equal(out.points, expected)
        assert bool(calls) == (branch == "lexsort")

    def test_many_points_per_voxel_summed_in_input_order(self, rng):
        # ~600 points in each of 8 voxels, shuffled: a centroid summed in
        # another order than the input's would differ by round-off
        pts = rng.permutation(rng.uniform(0.0, 0.5, (5000, 3)) + 1e3)
        out = voxel_downsample(PointCloud(pts), 0.25)
        assert len(out) == 8
        assert np.array_equal(out.points, unique_voxel_reference(pts, 0.25))

    @pytest.mark.parametrize("far", [3e18, -3e18, 2.0**63 * 0.25])
    def test_point_without_an_int64_voxel_index_raises(self, far):
        # cast to int64, both far indices became INT64_MIN, and their
        # centroid a phantom voxel at the origin
        pts = [[far, 0.0, 0.0], [-3e18, 0.0, 0.0], [5.0, 5.0, 5.0]]
        with pytest.raises(ValueError, match="too far from the origin"):
            voxel_downsample(PointCloud(pts), 0.25)

    def test_translation_by_leaf_multiples_commutes(self, rng):
        # grid anchoring: shifting by whole voxels shifts the output likewise
        leaf = 0.25
        pts = rng.uniform(2.0, 5.0, size=(300, 3))  # away from the crop region
        shift = leaf * np.array([3.0, -2.0, 5.0])
        a = voxel_downsample(PointCloud(pts + shift), leaf).points
        b = voxel_downsample(PointCloud(pts), leaf).points + shift
        assert np.allclose(a, b, atol=1e-9)


class TestCovariances:
    def test_coplanar_neighborhood_normal(self, rng):
        # points on the plane z = 0: smallest eigenvector must be +-z
        xy = rng.uniform(-1, 1, size=(40, 2))
        pts = np.column_stack([xy, np.zeros(40)])
        out = estimate_point_covariances(PointCloud(pts), k=10, plane_epsilon=1e-3)
        for cov in unpack(out.covariances):
            vals, vecs = np.linalg.eigh(cov)
            normal = vecs[:, 0]
            angle = np.arccos(min(1.0, abs(normal[2])))
            assert angle < 1e-6

    def test_regularized_eigenvalues_exact(self, rng):
        pts = rng.normal(size=(50, 3))
        out = estimate_point_covariances(PointCloud(pts), k=10, plane_epsilon=1e-3)
        for cov in unpack(out.covariances):
            vals = np.linalg.eigvalsh(cov)
            assert np.allclose(sorted(vals), [1e-3, 1.0, 1.0], atol=1e-9)

    def test_knn_matches_all_pairs_sort(self, rng):
        pts = rng.normal(size=(60, 3))
        k = 8
        _, nn = cKDTree(pts).query(pts, k=k)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        brute = np.argsort(d, axis=1, kind="stable")[:, :k]
        for i in range(60):
            assert set(nn[i]) == set(brute[i])

    def test_symmetric_psd_with_fixed_condition(self, rng):
        eps = 1e-3
        pts = rng.normal(size=(30, 3))
        out = estimate_point_covariances(PointCloud(pts), k=5, plane_epsilon=eps)
        for cov in unpack(out.covariances):
            assert np.allclose(cov, cov.T, atol=1e-12)
            vals = np.linalg.eigvalsh(cov)
            assert vals[0] > 0
            assert np.isclose(vals[-1] / vals[0], 1.0 / eps, rtol=1e-6)

    def test_keeps_kdtree_over_its_points(self, rng):
        pts = rng.normal(size=(40, 3))
        out = estimate_point_covariances(PointCloud(pts), k=6,
                                         plane_epsilon=1e-3)
        assert out.tree is not None
        _, nn = out.tree.query(out.points, k=6)
        assert np.array_equal(nn, cKDTree(pts).query(pts, k=6)[1])

    @staticmethod
    def floor_wall_blob(n, k):
        # a floor, a wall and a blob; random coordinates, so no two
        # neighbours of a point are at exactly the same distance
        rng = np.random.default_rng(100 * k + n)
        m = n // 3
        pts = np.concatenate([
            np.column_stack([rng.uniform(-5, 5, (m, 2)), rng.normal(0, 0.01, m)]),
            np.column_stack([rng.uniform(-5, 5, m), rng.normal(5, 0.01, m),
                             rng.uniform(0, 3, m)]),
            rng.normal(0.0, 1.0, (n - 2 * m, 3))])
        dist, _ = cKDTree(pts).query(pts, k=k + 1)
        assert np.all(np.diff(dist, axis=1) > 0.0)
        return pts

    @pytest.mark.parametrize("n", [600, 5000])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_bit_identical_to_mean_centring(self, n, k):
        pts = self.floor_wall_blob(n, k)
        out = estimate_point_covariances(PointCloud(pts), k, 1e-3)
        assert np.array_equal(out.covariances,
                              mean_centred_covariances(pts, k, 1e-3))

    @pytest.mark.parametrize("n", [600, 5000])
    @pytest.mark.parametrize("k, atol", [(1, 0.0), (3, 1e-8), (10, 1e-13)])
    def test_close_to_matmul_scatter(self, n, k, atol):
        # a per-point matmul rounds the scatter differently; the normal
        # amplifies that by the spread over the gap of the two smallest
        # eigenvalues, large for the nearly collinear triples of k = 3
        # (1.6e-9 at most on these clouds, 1.4e-14 at k = 10)
        pts = self.floor_wall_blob(n, k)
        out = estimate_point_covariances(PointCloud(pts), k, 1e-3)
        assert np.allclose(out.covariances, matmul_covariances(pts, k, 1e-3),
                           rtol=0.0, atol=atol)

    def test_memory_peak(self):
        # the (3, k, n) neighbour planes are n k 24 bytes; with the (k, n)
        # indices and the tree the peak reads 1.57x that, and 2.3x when the
        # planes outlive the scatter. The query phase, tree included, reads
        # 0.80x: one n k 8 B array each of distances and indices, the
        # distances dropped at once. The bound is the measured 1.57x plus 5 %
        n, k = 17000, 10
        pts = np.random.default_rng(5).normal(size=(n, 3)) * [20.0, 20.0, 2.0]
        cloud = PointCloud(pts)
        tracemalloc.start()
        try:
            estimate_point_covariances(cloud, k, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.65 * n * k * 24

    def test_degenerate_rows_in_one_large_batch(self, rng):
        # regular neighbourhoods mixed with single points (k = 1),
        # coincident and collinear ones, in one call of _normals
        m, k = 1500, 10
        regular = rng.normal(size=(m, k, 3)) * [3.0, 2.0, 1.0]
        line = rng.normal(size=(m, 1, 3))
        collinear = (rng.uniform(-2.0, 2.0, (m, k, 1)) * line
                     + rng.normal(size=(m, 1, 3)))
        coincident = np.repeat(rng.normal(size=(m, 1, 3)), k, axis=1)
        single = rng.normal(size=(m, 1, 3))
        kinds = np.repeat(np.arange(4), m)
        shuffle = rng.permutation(4 * m)
        kinds = kinds[shuffle]
        scatter = np.concatenate([packed_scatter(h) for h in
                                  (regular, collinear, coincident, single)],
                                 axis=1)[:, shuffle]
        normals = _normals(scatter)
        assert normals.shape == (4 * m, 3)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        vecs = np.linalg.eigh(unpack(scatter))[1][:, :, 0]
        degenerate = kinds > 0
        assert np.array_equal(normals[degenerate], vecs[degenerate])
        cosines = np.abs(np.einsum("ni,ni->n", normals, vecs))
        assert np.allclose(cosines[~degenerate], 1.0, atol=1e-9)
        # the same mix as a cloud: every covariance finite
        pts = np.concatenate([regular[:50].reshape(-1, 3),
                              collinear[:20].reshape(-1, 3),
                              coincident[:20].reshape(-1, 3)])
        for knn in (1, k):
            out = estimate_point_covariances(PointCloud(pts), knn, 1e-3)
            assert np.all(np.isfinite(out.covariances))

    def test_insufficient_points_error(self):
        with pytest.raises(ValueError, match="insufficient points"):
            estimate_point_covariances(PointCloud(np.zeros((3, 3))), k=10,
                                       plane_epsilon=1e-3)

    @pytest.mark.parametrize("n", [0, 5])
    def test_no_neighbour_rejected(self, n):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            estimate_point_covariances(PointCloud(np.zeros((n, 3))), k=0,
                                       plane_epsilon=1e-3)


class TestClosedFormNormal:
    """The closed-form normal against eigh, one neighborhood per case: with
    k equal to the cloud size every point's neighborhood is the whole cloud."""

    EPS = 1e-3

    def check(self, pts):
        out = estimate_point_covariances(PointCloud(pts), k=len(pts),
                                         plane_epsilon=self.EPS)
        expected, vals, vecs = eigh_covariance(pts, self.EPS)
        # and the normal of the packed sample covariance rows on their own
        normal = _normals(packed_scatter(pts[None]))
        for cov in [*unpack(out.covariances),
                    *unpack(plane_covariances(normal, self.EPS))]:
            assert np.allclose(cov, cov.T, atol=1e-12)
            assert np.allclose(np.linalg.eigvalsh(cov), [self.EPS, 1.0, 1.0],
                               atol=1e-9)
            if vals[1] - vals[0] > 1e-3 * (vals[2] - vals[0]):
                # separated smallest eigenvalue: same covariance (n up to sign)
                assert np.allclose(cov, expected, atol=1e-9)
            else:
                # the normal lies in the eigenspace of the two smallest
                assert np.allclose(cov @ vecs[:, 2], vecs[:, 2], atol=1e-6)
        return out, expected

    @given(st.integers(0, 2**32 - 1))
    def test_random_neighborhoods(self, seed):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.01, 10.0, size=3)
        self.check(rng.normal(size=(int(rng.integers(4, 30)), 3)) * scale
                   + rng.uniform(-50, 50, size=3))

    @given(st.integers(0, 2**32 - 1))
    def test_exactly_planar(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        u, v = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2].T
        a, b = rng.uniform(-2, 2, size=(2, n))
        self.check(a[:, None] * u + b[:, None] * v)

    @given(st.integers(0, 2**32 - 1), st.floats(1e-9, 1e-2))
    def test_near_collinear(self, seed, spread):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        direction = rng.normal(size=3)
        pts = (rng.uniform(-3, 3, size=n)[:, None] * direction
               + rng.normal(scale=spread, size=(n, 3)))
        self.check(pts)

    def test_coincident_points(self):
        # zero scatter: every direction is a normal, and eigh's choice is kept
        out, expected = self.check(np.tile([1.5, -2.0, 0.3], (10, 1)))
        assert np.allclose(unpack(out.covariances)[0], expected, atol=1e-15)

    def test_duplicated_points(self, rng):
        self.check(np.repeat(rng.normal(size=(5, 3)), 3, axis=0))
