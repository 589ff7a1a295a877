import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynlo.detections import (DetectionFrame, filter_detections,
                              load_detection_frame, save_detection_frame)
from dynlo.geometry import DetectionBox


def write(tmp_path, text, name="000007.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoad:
    def test_empty_file(self, tmp_path):
        frame = load_detection_frame(write(tmp_path, ""))
        assert frame.scan_index == 7
        assert frame.boxes == []

    def test_direct_field_mapping(self, tmp_path):
        path = write(tmp_path, "car 0.9 1.0 2.0 0.5 4.0 1.8 1.5 0.1\n")
        frame = load_detection_frame(path)
        box = frame.boxes[0]
        assert box.cls == "car"
        assert box.score == 0.9
        assert np.allclose(box.center, [1.0, 2.0, 0.5])
        assert np.allclose(box.dims, [4.0, 1.8, 1.5])
        assert np.isclose(box.yaw, 0.1)

    def test_yaw_normalized(self, tmp_path):
        path = write(tmp_path, "car 0.9 0 0 0 1 1 1 7.0\n")
        frame = load_detection_frame(path)
        # oracle: repeated 2*pi reduction
        expected = 7.0
        while expected > math.pi:
            expected -= 2 * math.pi
        assert np.isclose(frame.boxes[0].yaw, expected)
        assert np.isclose(frame.boxes[0].yaw, 7.0 - 2 * math.pi)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write(tmp_path, "# header\n\ncyclist 0.8 0 0 0 2 0.8 1.7 0.0\n")
        frame = load_detection_frame(path)
        assert len(frame.boxes) == 1
        assert frame.boxes[0].cls == "cyclist"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "car 0.9 1 2 3 4 5 6 0.1\ncar 0.9 1 2\n")
        with pytest.raises(ValueError, match=":2"):
            load_detection_frame(path)

    def test_non_numeric_field(self, tmp_path):
        path = write(tmp_path, "car x 1 2 3 4 5 6 0.1\n")
        with pytest.raises(ValueError, match="malformed"):
            load_detection_frame(path)

    def test_unknown_class_named_in_error(self, tmp_path):
        path = write(tmp_path, "truck 0.9 1 2 3 4 5 6 0.1\n")
        with pytest.raises(ValueError, match="truck"):
            load_detection_frame(path)

    def test_round_trip(self, tmp_path, rng):
        boxes = [DetectionBox(rng.normal(size=3), rng.uniform(-3, 3),
                              rng.uniform(0.5, 4, size=3),
                              cls="car" if i % 2 else "cyclist",
                              score=float(rng.uniform(0, 1)))
                 for i in range(6)]
        frame = DetectionFrame(scan_index=3, boxes=boxes)
        path = str(tmp_path / "000003.txt")
        save_detection_frame(frame, path)
        loaded = load_detection_frame(path)
        assert loaded.scan_index == 3
        for a, b in zip(frame.boxes, loaded.boxes):
            assert a.cls == b.cls
            assert np.allclose(a.center, b.center)
            assert np.allclose(a.dims, b.dims)
            assert np.isclose(a.yaw, b.yaw)
            assert np.isclose(a.score, b.score)


class TestFilter:
    def box(self, cls="car", score=1.0):
        return DetectionBox((0, 0, 0), 0.0, (1, 1, 1), cls=cls, score=score)

    def test_perfect_scores_unchanged(self):
        frame = DetectionFrame(0, [self.box() for _ in range(3)])
        assert len(filter_detections(frame).boxes) == 3

    def test_score_below_default_threshold_removed(self):
        # the detection threshold is 0.75, inclusive comparison
        frame = DetectionFrame(0, [self.box(score=0.74), self.box(score=0.75)])
        kept = filter_detections(frame, min_score=0.75).boxes
        assert len(kept) == 1
        assert kept[0].score == 0.75

    def test_matches_brute_force_predicate(self, rng):
        classes = ["car", "cyclist"]
        frame = DetectionFrame(0, [
            self.box(cls=classes[int(rng.integers(2))],
                     score=float(rng.uniform(0, 1)))
            for _ in range(40)])
        kept = filter_detections(frame, min_score=0.6, classes=("car",)).boxes
        expected = [b for b in frame.boxes if b.score >= 0.6 and b.cls == "car"]
        assert kept == expected

    def test_idempotent(self, rng):
        frame = DetectionFrame(0, [
            self.box(score=float(rng.uniform(0, 1))) for _ in range(20)])
        once = filter_detections(frame)
        twice = filter_detections(once)
        assert once.boxes == twice.boxes


class TestNonFinite:
    @given(st.integers(0, 7),
           st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"]),
           st.integers(0, 3))
    def test_loader_names_line_of_non_finite_field(self, field, text, before):
        values = ["0.9", "1.0", "2.0", "0.5", "4.0", "1.8", "1.5", "0.1"]
        values[field] = text
        lines = ["car 0.9 1 2 3 4 5 6 0.1"] * before + ["car " + " ".join(values)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "000001.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            message = f"{path}:{before + 1}: non-finite detection field"
            with pytest.raises(ValueError, match=re.escape(message)):
                load_detection_frame(path)

    @given(st.sampled_from(["center", "yaw", "dims"]), st.integers(0, 2),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_box_rejects_non_finite_geometry(self, name, index, value):
        center, yaw, dims = [1.0, 2.0, 0.5], 0.1, [4.0, 1.8, 1.5]
        if name == "yaw":
            yaw = value
        else:
            (center if name == "center" else dims)[index] = value
        with pytest.raises(ValueError, match="finite"):
            DetectionBox(center=center, yaw=yaw, dims=dims)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
           st.lists(st.floats(1e-6, 1e3), min_size=3, max_size=3))
    def test_finite_boxes_still_accepted(self, center_yaw, dims):
        box = DetectionBox(center=center_yaw[:3], yaw=center_yaw[3], dims=dims)
        assert np.array_equal(box.center, center_yaw[:3])
        assert -math.pi < box.yaw <= math.pi
