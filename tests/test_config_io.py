import os
import re
import tempfile
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from dynlo.cli import _scan_source
from dynlo.cli import main as cli_main
from dynlo import fileio

from dynlo.config import PipelineConfig, dump_config, load_config, parse_config_text
from dynlo.fileio import (read_labels, read_removal_provenance, read_scan_bin,
                          read_trajectory, write_labels, write_map_ascii,
                          write_removal_provenance, write_scan_bin,
                          write_trajectory)
from dynlo.geometry import PointCloud, Pose
from dynlo.metrics import Trajectory
from dynlo.pipeline import run_pipeline
from dynlo.simulate import reference_config

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _fields(cfg):
    """(owner, field) of every parameter, stage fields expanded."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from ((value, g) for g in fields(value))
        else:
            yield cfg, f


# every numeric bound a field declares: the st.floats arguments of the
# values inside it, and values just outside it
_BOUNDS = {
    None: ({}, []),
    "> 0": ({"min_value": 0.0, "exclude_min": True}, [0.0, -1.0]),
    ">= 0": ({"min_value": 0.0}, [-1.0]),
    ">= 1": ({"min_value": 1.0}, [0.0, -1.0]),
    "in [0, 1]": ({"min_value": 0.0, "max_value": 1.0}, [-0.5, 1.5]),
    "in (0, 1]": ({"min_value": 0.0, "max_value": 1.0, "exclude_min": True},
                  [0.0, 1.5]),
}


def _inside(default, bound):
    """Values inside a field's declared range, drawn by the type of its
    default."""
    if isinstance(bound, tuple):  # the names the field may hold
        return st.lists(st.sampled_from(bound), min_size=1,
                        unique=True).map(tuple)
    if isinstance(default, bool):
        return st.booleans()
    kwargs = _BOUNDS[bound][0]
    if isinstance(default, int):  # the integer bounds are all ">= n"
        return st.integers(int(kwargs.get("min_value", -2**63)), 2**63)
    # the dump writes 12 significant digits, so draw values it carries
    # exactly; rounding to them keeps a value inside each bound above
    floats = st.floats(allow_nan=False, **kwargs).map(
        lambda v: float("%.12g" % v))
    if isinstance(default, np.ndarray):
        return st.lists(floats, min_size=len(default),
                        max_size=len(default)).map(np.diag)
    return floats


@st.composite
def _random_configs(draw):
    """A PipelineConfig with a random value inside the declared range of
    every field."""
    cfg = PipelineConfig()
    for owner, f in _fields(cfg):
        setattr(owner, f.name,
                draw(_inside(getattr(owner, f.name), f.metadata["bound"])))
    return cfg


def _outside(default, bound):
    """(config text, value) pairs just outside a field's declared range."""
    if isinstance(bound, tuple):
        return [("", ()), ("bogus", ("bogus",))]
    pairs = []
    for v in _BOUNDS[bound][1]:
        if isinstance(default, np.ndarray):
            diag = np.diag(default).copy()
            diag[0] = v
            pairs.append((" ".join("%.12g" % d for d in diag), np.diag(diag)))
        else:
            v = type(default)(v)
            pairs.append((str(v) if isinstance(v, int) else "%.12g" % v, v))
    return pairs


def _unpulled_scans():
    raise AssertionError("a scan was pulled")
    yield


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
        assert cfg.removal.enabled and cfg.constraint.enabled

    def test_every_documented_key_appears(self):
        text = dump_config()
        for key in ["dt", "preprocess.voxel_leaf", "detections.min_score",
                    "tracker.process_noise_diag",
                    "removal.enabled", "removal.margin",
                    "gicp.max_correspondence_distance", "constraint.enabled",
                    "constraint.blend_weight", "keyframes.k_nearest",
                    "keyframes.concave_alpha"]:
            assert any(line.startswith(key + " =") for line in text.splitlines())

    def test_overrides_applied(self):
        cfg = parse_config_text("""
            # comment
            dt = 0.05
            removal.enabled = false
            tracker.process_noise_diag = 1 2 3 4 5 6 7 8
            detections.classes = car
        """)
        assert cfg.dt == 0.05
        assert not cfg.removal.enabled
        assert np.allclose(np.diag(cfg.tracker.process_noise),
                           [1, 2, 3, 4, 5, 6, 7, 8])
        assert cfg.detections.classes == ("car",)

    @pytest.mark.parametrize("cfg, golden", [
        (PipelineConfig(), "config_defaults.txt"),
        (reference_config(), "config_reference.txt")])
    def test_dump_matches_golden_text(self, cfg, golden):
        with open(os.path.join(GOLDEN, golden), "rb") as fh:
            assert dump_config(cfg).encode() == fh.read()

    @given(_random_configs())
    def test_dump_parse_round_trip_reproduces_every_field(self, cfg):
        back = parse_config_text(dump_config(cfg))
        for (owner, f), (owner_back, _) in zip(_fields(cfg), _fields(back)):
            value, value_back = getattr(owner, f.name), getattr(owner_back,
                                                                f.name)
            assert type(value) is type(value_back), f.name
            assert np.array_equal(value, value_back), f.name

    def test_every_field_has_exactly_one_key(self):
        # changing one field changes one line of the dump, keyed
        # <stage>.<field> (<stage>.<field>_diag for a matrix) or dt, and that
        # line parses back into that field alone
        base = dump_config().splitlines()
        for i, _ in enumerate(_fields(PipelineConfig())):
            cfg = PipelineConfig()
            owner, f = list(_fields(cfg))[i]
            name = f.name
            value = getattr(owner, name)
            stage = [f.name for f in fields(cfg) if getattr(cfg, f.name) is owner]
            key = (f"{stage[0]}.{name}" if stage else name) + (
                "_diag" if isinstance(value, np.ndarray) else "")
            assert stage or key == "dt", name
            if isinstance(value, np.ndarray):
                value = value * 2.0
            elif isinstance(value, tuple):
                value = value[:1]
            elif isinstance(value, bool):
                value = not value
            elif isinstance(value, int):  # the integer bounds are all ">= n"
                value = value + 1
            else:  # each float bound holds half of any positive value in it
                value = value / 2.0 if value else 1.0
            setattr(owner, name, value)
            changed = [line for line, ref in zip(dump_config(cfg).splitlines(),
                                                 base) if line != ref]
            assert len(changed) == 1, name
            assert changed[0].startswith(key + " = "), name
            back = parse_config_text(changed[0])
            assert all(np.array_equal(getattr(a, g.name), getattr(b, g.name))
                       for (a, g), (b, _) in zip(_fields(back), _fields(cfg))
                       ), name

    def test_every_bounded_field_rejects_values_outside_twice(self):
        # every field declares a range (None for none); a value just outside
        # it is rejected at its config line, and in a config built in code
        # by run_pipeline, naming the key, before the first scan is pulled
        keys = [line.split(" = ")[0] for line in dump_config().splitlines()[1:]]
        for i, key in enumerate(keys):
            owner, f = list(_fields(PipelineConfig()))[i]
            assert "bound" in f.metadata, key
            for raw, value in _outside(getattr(owner, f.name),
                                       f.metadata["bound"]):
                with pytest.raises(ValueError) as at_line:
                    parse_config_text(f"dt = 0.1\n{key} = {raw}\n")
                message = str(at_line.value)
                assert message.startswith("config line 2: "), key
                cfg = PipelineConfig()
                owner, _ = list(_fields(cfg))[i]
                setattr(owner, f.name, value)
                named = key + ": " + message[len("config line 2: "):]
                with pytest.raises(ValueError,
                                   match="^" + re.escape(named) + "$"):
                    run_pipeline(_unpulled_scans(), [], cfg)

    @pytest.mark.parametrize("line, message", [
        ("detections.classes = Car", "unknown class 'Car'"),
        ("detections.classes = car Pedestrian", "unknown class 'Pedestrian'")],
        ids=["Car", "Pedestrian"])
    def test_unknown_name_rejected_with_line(self, line, message):
        with pytest.raises(ValueError, match=f"config line 2: {message}"):
            parse_config_text(f"dt = 0.1\n{line}\n")

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_class_list_rejected_with_line(self, value):
        with pytest.raises(ValueError,
                           match="config line 2: expected at least one class"):
            parse_config_text(f"dt = 0.1\ndetections.classes ={value}\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2.*unknown key"):
            parse_config_text("dt = 0.1\nbogus.key = 3\n")

    def test_removed_cell_size_key_rejected_with_line(self):
        # keyframe queries no longer use a spatial hash: delete that line
        with pytest.raises(ValueError, match="^config line 2: unknown key "
                           "'keyframes.cell_size'$"):
            parse_config_text("dt = 0.1\nkeyframes.cell_size = 5\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("removal.enabled = maybe\n")

    @pytest.mark.parametrize("line", [
        "tracker.measurement_noise_diag = nan 0.04 0.04 0.01 0.01 0.01 0.01",
        "tracker.process_noise_diag = 0.01 0.01 0.01 0.01 NaN 1 1 1",
        "dt = nan", "keyframes.concave_alpha = -nan"])
    def test_values_that_break_the_filter_rejected_with_line(self, line):
        with pytest.raises(ValueError, match="config line 2: expected a number"):
            parse_config_text("dt = 0.1\n" + line + "\n")

    def test_inf_accepted(self):
        cfg = parse_config_text("keyframes.concave_alpha = inf\n")
        assert cfg.keyframes.concave_alpha == np.inf

    def test_run_reports_zero_alpha_as_a_config_error(self, tmp_path, capsys):
        # removed keys: the sigma-point spread is a constant of the filter,
        # and the UKF is the one tracker; delete such a line
        config = tmp_path / "cfg.txt"
        for line, key in (("tracker.alpha = 0", "tracker.alpha"),
                          ("tracker.kind = ekf", "tracker.kind")):
            config.write_text(line + "\n")
            rc = cli_main(["run", "--config", str(config),
                           "--scans", str(tmp_path),
                           "--detections", str(tmp_path),
                           "--out-traj", str(tmp_path / "t.txt"),
                           "--out-map", str(tmp_path / "m.txt")])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: config line 1: unknown key '{key}'\n")

    def test_run_reports_zero_covariance_knn_in_one_line(self, tmp_path,
                                                          capsys):
        (tmp_path / "scans").mkdir()
        (tmp_path / "dets").mkdir()
        write_scan_bin(str(tmp_path / "scans" / "000000.bin"),
                       PointCloud(np.random.default_rng(0).normal(size=(50, 3))))
        (tmp_path / "dets" / "000000.txt").write_text("")
        config = tmp_path / "cfg.txt"
        config.write_text("preprocess.covariance_knn = 0\n")
        rc = cli_main(["run", "--config", str(config),
                       "--scans", str(tmp_path / "scans"),
                       "--detections", str(tmp_path / "dets"),
                       "--out-traj", str(tmp_path / "t.txt"),
                       "--out-map", str(tmp_path / "m.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config line 1: expected an integer >= 1, got '0'\n")

    @pytest.mark.parametrize("text, message", [
        ("tracker.process_noise_diag = 1 2\n",
         "config line 1: expected 8 values, got 2"),
        ("dt = 0.1\nremoval.enabled\n",
         "config line 2: expected 'key = value'")],
        ids=["diag length", "no equals sign"])
    def test_run_reports_a_malformed_config_line(self, tmp_path, capsys, text,
                                                 message):
        config = tmp_path / "cfg.txt"
        config.write_text(text)
        rc = cli_main(["run", "--config", str(config),
                       "--scans", str(tmp_path), "--detections", str(tmp_path),
                       "--out-traj", str(tmp_path / "t.txt"),
                       "--out-map", str(tmp_path / "m.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_run_reports_negative_dt_in_one_line(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("dt = -0.1\n")
        rc = cli_main(["run", "--config", str(config),
                       "--scans", str(tmp_path), "--detections", str(tmp_path),
                       "--out-traj", str(tmp_path / "t.txt"),
                       "--out-map", str(tmp_path / "m.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config line 1: expected a number > 0, got '-0.1'\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(dump_config())
        cfg = load_config(str(path))
        assert cfg.dt == PipelineConfig().dt


def write_xyzi(path, points, intensity):
    """A scan file of little-endian float32 (x, y, z, i) records."""
    np.column_stack([points, intensity]).astype("<f4").tofile(path)


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
        write_xyzi(path, pts, rng.random(10))
        back = read_scan_bin(path)
        assert back.points.shape == (10, 3)
        assert np.allclose(back.points, pts, atol=1e-6)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(ValueError, match="multiple of 4"):
            read_scan_bin(str(path))

    @pytest.mark.parametrize("tail", [1, 2, 3])
    def test_trailing_bytes_rejected(self, tmp_path, rng, tail):
        # 16 n + 1..3 bytes: a whole number of points plus a partial float
        path = tmp_path / "tail.bin"
        write_xyzi(str(path), rng.normal(size=(2, 3)), np.zeros(2))
        path.write_bytes(path.read_bytes() + b"\x00" * tail)
        with pytest.raises(ValueError, match="tail.bin: .*16 B"):
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
            write_xyzi(path, pts, np.full(n, np.nan))
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

    @pytest.mark.parametrize("labels", [
        None, [], [True], [False], [1, 0, 2, -1], np.arange(50) % 3 == 0])
    def test_label_bytes_match_the_text_writer(self, tmp_path, labels):
        path = tmp_path / "000000.txt"
        write_labels(str(path), labels)
        flags = [] if labels is None else labels
        # the line-joining writer that write_labels replaced
        text = "\n".join("1" if v else "0" for v in flags)
        assert path.read_bytes() == (text + "\n" * bool(len(flags))).encode()

    @given(st.lists(st.booleans(), max_size=60))
    def test_canonical_labels_parse_alike_on_both_paths(self, labels):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "000000.txt")
            write_labels(path, np.array(labels, dtype=bool))
            got = read_labels(path)
            assert got.dtype == bool
            assert np.array_equal(got, labels)
            assert np.array_equal(got, fileio._parse_label_lines(path))

    @pytest.mark.parametrize("data, expected", [
        (b"-1\n0\n", [True, False]),
        (b"+1\n0\n", [True, False]),
        (b"2\n0\n", [True, False]),
        (b"1\n\n0\n\n", [True, False]),
        (b"1\r\n0\r\n", [True, False]),
        (b"1\n0", [True, False]),
        (b"0", [False]),
        (b"\n", []),
        (b"1\n\nx\n", "line 3: expected one 64-bit integer"),
        (b"0\r\n1\r\n1 2\r\n", "line 3: expected one 64-bit integer"),
        (b"1\n0\n2x", "line 3: expected one 64-bit integer"),
    ])
    def test_other_label_files_keep_their_results(self, tmp_path, data,
                                                  expected):
        path = tmp_path / "000000.txt"
        path.write_bytes(data)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"000000.txt {expected}$"):
                read_labels(str(path))
        else:
            assert np.array_equal(read_labels(str(path)), expected)
            assert np.array_equal(fileio._parse_label_lines(str(path)),
                                  expected)

    @staticmethod
    def _line_loop_labels(path):
        # the line-by-line reader that read_labels replaced
        with open(path, "r") as fh:
            vals = [int(line.strip()) for line in fh if line.strip()]
        return np.array(vals, dtype=bool)

    @given(st.lists(st.one_of(
        st.sampled_from(["0", "1", "-1", "+1", "007", "2", " 1", "0 ", "\t1\t",
                         "", " ", "\t", "1.0", "1e3", "0x1", "nan", "abc", "#",
                         "# 1", "1 #", "1 2", "1,2", "1\t0", "--1", "1-"]),
        st.integers(-2**63, 2**63 - 1).map(str)), max_size=30),
        st.sampled_from(["\n", "\r\n"]), st.booleans())
    @example(lines=[], newline="\n", trailing=False)
    @example(lines=["", " "], newline="\n", trailing=True)
    @example(lines=["1 2"], newline="\n", trailing=True)
    @example(lines=["1\t0", "", "0 1"], newline="\r\n", trailing=False)
    def test_labels_match_line_loop(self, lines, newline, trailing):
        text = newline.join(lines) + (newline if trailing else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "000000.txt")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            try:
                expected = self._line_loop_labels(path)
            except ValueError:
                with pytest.raises(ValueError):
                    read_labels(path)
                return
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = read_labels(path)
            assert got.dtype == bool
            assert np.array_equal(got, expected)


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

    def test_bytes_match_the_per_pose_writer(self, tmp_path, rng):
        # one Rotation.from_matrix call over the stack gives each pose's own
        # quaternion bit for bit, the identity and the half turns included
        turns = [np.eye(3), *(np.diag(d) for d in
                              ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                               [-1.0, -1.0, 1.0]))]
        traj = self.make_traj(rng, 50)
        traj = Trajectory.from_poses(
            traj.poses + [Pose(R, rng.normal(size=3)) for R in turns])
        for n in (0, 1, len(traj)):
            part = Trajectory(traj.scan_indices[:n], traj.timestamps[:n],
                              traj.poses[:n])
            path = tmp_path / f"traj{n}.txt"
            write_trajectory(str(path), part)
            per_pose = "".join(
                " ".join("%.9f" % v for v in [
                    ts, *pose.translation,
                    *Rotation.from_matrix(pose.rotation).as_quat()]) + "\n"
                for ts, pose in zip(part.timestamps, part.poses))
            assert path.read_bytes() == per_pose.encode()

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
        # a map holds points only: the labels are not written
        lines = [l.split() for l in open(path).read().splitlines()]
        assert len(lines) == 5 and all(len(l) == 3 for l in lines)

    @given(st.integers(0, 9000), st.integers(0, 2**32 - 1),
           st.lists(st.floats(-1e9, 1e9, allow_nan=False), max_size=20))
    @example(0, 0, [])
    @example(9000, 1, [-2e6, 1e6, -1e-300, 5e-7, -0.0])
    @example(9000, 2, [-2e6, 1e6, -1e-300, 5e-7, -0.0])
    def test_map_matches_row_by_row_reference(self, n, seed, special):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3)) * rng.choice([1e-7, 1.0, 1e3, 2e6], (n, 1))
        if n:
            # negative, huge and tiny values at random places
            pts.flat[rng.integers(0, pts.size, len(special))] = special
        cloud = PointCloud(pts)
        reference = ["%.6f %.6f %.6f\n" % (x, y, z) for x, y, z in cloud.points]
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
