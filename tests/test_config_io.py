import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dynlo.cli import _scan_source

from dynlo.config import PipelineConfig, dump_config, load_config, parse_config_text
from dynlo.fileio import (read_labels, read_removal_provenance, read_scan_bin,
                          read_trajectory, write_labels, write_map_ascii,
                          write_removal_provenance, write_scan_bin,
                          write_trajectory)
from dynlo.geometry import PointCloud
from dynlo.metrics import Trajectory


class TestConfig:
    def test_defaults_round_trip(self):
        text = dump_config()
        cfg = parse_config_text(text)
        ref = PipelineConfig()
        assert cfg.dt == ref.dt
        assert cfg.preprocess == ref.preprocess
        assert cfg.gicp == ref.gicp
        assert cfg.constraint == ref.constraint
        assert np.array_equal(cfg.tracker.process_noise, ref.tracker.process_noise)
        assert np.array_equal(cfg.tracker.measurement_noise,
                              ref.tracker.measurement_noise)
        assert cfg.enable_removal and cfg.enable_constraint
        assert cfg.tracker_kind == "ukf"

    def test_every_documented_key_appears(self):
        text = dump_config()
        for key in ["dt", "preprocess.voxel_leaf", "detections.min_score",
                    "tracker.kind", "tracker.process_noise_diag",
                    "removal.enabled", "removal.margin",
                    "gicp.max_correspondence_distance", "constraint.enabled",
                    "constraint.blend_weight", "keyframes.k_nearest",
                    "keyframes.concave_alpha", "eval.rpe_delta"]:
            assert any(line.startswith(key + " =") for line in text.splitlines())

    def test_overrides_applied(self):
        cfg = parse_config_text("""
            # comment
            dt = 0.05
            tracker.kind = ekf
            removal.enabled = false
            tracker.process_noise_diag = 1 2 3 4 5 6 7 8
            detections.classes = car
        """)
        assert cfg.dt == 0.05
        assert cfg.tracker_kind == "ekf"
        assert not cfg.enable_removal
        assert np.allclose(np.diag(cfg.tracker.process_noise),
                           [1, 2, 3, 4, 5, 6, 7, 8])
        assert cfg.detection_classes == ("car",)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2.*unknown key"):
            parse_config_text("dt = 0.1\nbogus.key = 3\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("removal.enabled = maybe\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(dump_config())
        cfg = load_config(str(path))
        assert cfg.dt == PipelineConfig().dt


class TestScanIO:
    def test_round_trip(self, tmp_path, rng):
        cloud = PointCloud(rng.normal(size=(64, 3)).astype(np.float32))
        path = str(tmp_path / "000000.bin")
        write_scan_bin(path, cloud)
        back = read_scan_bin(path)
        assert np.allclose(back.points, cloud.points, atol=1e-6)

    def test_intensity_ignored(self, tmp_path, rng):
        pts = rng.normal(size=(10, 3))
        path = str(tmp_path / "000000.bin")
        write_scan_bin(path, PointCloud(pts), intensity=rng.random(10))
        back = read_scan_bin(path)
        assert back.points.shape == (10, 3)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(ValueError, match="multiple of 4"):
            read_scan_bin(str(path))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_points_rejected_with_count(self, seed, n, bad):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        hit = rng.random((n, 3)) < 0.3
        pts[hit] = bad
        n_bad = int(np.count_nonzero(hit.any(axis=1)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "000000.bin")
            write_scan_bin(path, PointCloud(pts),
                           intensity=np.full(n, np.nan))
            if n_bad == 0:
                assert np.allclose(read_scan_bin(path).points, pts, atol=1e-5)
            else:
                with pytest.raises(ValueError,
                                   match=f"000000.bin: {n_bad} non-finite"):
                    read_scan_bin(path)

    @given(st.integers(1, 40), st.integers(0, 45))
    def test_label_count_must_match_scan(self, n_points, n_labels):
        with tempfile.TemporaryDirectory() as tmp:
            scan = os.path.join(tmp, "000000.bin")
            write_scan_bin(scan, PointCloud(np.ones((n_points, 3))))
            write_labels(os.path.join(tmp, "000000.txt"),
                         np.arange(n_labels) % 2 == 0)
            if n_labels == n_points:
                (cloud,) = _scan_source([scan], tmp)
                assert np.array_equal(cloud.labels, np.arange(n_points) % 2 == 0)
            else:
                with pytest.raises(ValueError, match=f"000000.txt: {n_labels} "
                                   f"labels for {n_points} points"):
                    list(_scan_source([scan], tmp))

    def test_labels_round_trip(self, tmp_path, rng):
        labels = rng.random(40) > 0.5
        path = str(tmp_path / "000000.txt")
        write_labels(path, labels)
        assert np.array_equal(read_labels(path), labels)


class TestTrajectoryIO:
    def make_traj(self, rng, n=8):
        from conftest import random_pose
        return Trajectory.from_poses([random_pose(rng) for _ in range(n)])

    def test_tum_round_trip(self, tmp_path, rng):
        traj = self.make_traj(rng)
        path = str(tmp_path / "traj.txt")
        write_trajectory(path, traj)
        back = read_trajectory(path)
        assert len(back) == len(traj)
        for a, b in zip(traj.poses, back.poses):
            assert np.allclose(a.translation, b.translation, atol=1e-8)
            assert np.allclose(a.rotation, b.rotation, atol=1e-7)
        assert np.allclose(back.timestamps, traj.timestamps, atol=1e-9)

    def test_kitti_round_trip(self, tmp_path, rng):
        traj = self.make_traj(rng)
        path = str(tmp_path / "traj.kitti")
        write_trajectory(path, traj)
        back = read_trajectory(path)
        for a, b in zip(traj.poses, back.poses):
            assert np.allclose(a.matrix(), b.matrix(), atol=1e-8)

    def test_unrecognized_column_count(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="columns"):
            read_trajectory(str(path))


class TestMapAndProvenance:
    def test_map_with_labels(self, tmp_path, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)), labels=[1, 0, 1, 0, 1])
        path = str(tmp_path / "map.txt")
        write_map_ascii(path, cloud)
        lines = [l.split() for l in open(path).read().splitlines()]
        assert all(len(l) == 4 for l in lines)
        assert [int(l[3]) for l in lines] == [1, 0, 1, 0, 1]

    @given(st.integers(0, 9000), st.integers(0, 2**32 - 1), st.booleans(),
           st.lists(st.floats(-1e9, 1e9, allow_nan=False), max_size=20))
    @example(0, 0, True, [])
    @example(0, 0, False, [])
    @example(9000, 1, True, [-2e6, 1e6, -1e-300, 5e-7, -0.0])
    @example(9000, 2, False, [-2e6, 1e6, -1e-300, 5e-7, -0.0])
    def test_map_matches_row_by_row_reference(self, n, seed, labelled, special):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3)) * rng.choice([1e-7, 1.0, 1e3, 2e6], (n, 1))
        if n:
            # negative, huge and tiny values at random places
            pts.flat[rng.integers(0, pts.size, len(special))] = special
        labels = rng.random(n) < 0.3 if labelled else None
        cloud = PointCloud(pts, labels=labels)
        reference = []
        for i in range(n):
            x, y, z = cloud.points[i]
            if labels is not None:
                reference.append("%.6f %.6f %.6f %d\n" % (x, y, z, int(labels[i])))
            else:
                reference.append("%.6f %.6f %.6f\n" % (x, y, z))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "map.txt")
            write_map_ascii(path, cloud)
            with open(path, "rb") as fh:
                assert fh.read() == "".join(reference).encode()

    def test_provenance_round_trip(self, tmp_path):
        rows = [(0, 100, 20, 99, 18), (1, 120, 15, 118, 15)]
        path = str(tmp_path / "removal_provenance.txt")
        write_removal_provenance(path, rows)
        counts = read_removal_provenance(path)
        assert counts.static_total == 220
        assert counts.dynamic_total == 35
        assert counts.static_preserved == 217
        assert counts.dynamic_removed == 33
