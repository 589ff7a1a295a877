import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynlo.detections import (VALID_CLASSES, DetectionFrame, filter_detections,
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
        assert frame.boxes.shape == (0, 7)
        assert len(frame.classes) == len(frame.scores) == 0

    def test_direct_field_mapping(self, tmp_path):
        path = write(tmp_path, "car 0.9 1.0 2.0 0.5 4.0 1.8 1.5 0.1\n")
        frame = load_detection_frame(path)
        box = frame.boxes[0]  # cx cy cz yaw l w h
        assert frame.classes[0] == "car"
        assert frame.scores[0] == 0.9
        assert np.allclose(box[:3], [1.0, 2.0, 0.5])
        assert np.allclose(box[4:], [4.0, 1.8, 1.5])
        assert np.isclose(box[3], 0.1)

    def test_yaw_normalized(self, tmp_path):
        path = write(tmp_path, "car 0.9 0 0 0 1 1 1 7.0\n")
        frame = load_detection_frame(path)
        # oracle: repeated 2*pi reduction
        expected = 7.0
        while expected > math.pi:
            expected -= 2 * math.pi
        assert np.isclose(frame.boxes[0, 3], expected)
        assert np.isclose(frame.boxes[0, 3], 7.0 - 2 * math.pi)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write(tmp_path, "# header\n\ncyclist 0.8 0 0 0 2 0.8 1.7 0.0\n")
        frame = load_detection_frame(path)
        assert len(frame.boxes) == 1
        assert frame.classes[0] == "cyclist"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "car 0.9 1 2 3 4 5 6 0.1\ncar 0.9 1 2\n")
        with pytest.raises(ValueError, match=" line 2: expected 9 fields"):
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
        boxes = np.column_stack([rng.normal(size=(6, 3)), rng.uniform(-3, 3, 6),
                                 rng.uniform(0.5, 4, size=(6, 3))])
        classes = np.array(["car" if i % 2 else "cyclist" for i in range(6)],
                           dtype=object)
        frame = DetectionFrame(3, boxes, classes, rng.uniform(0, 1, 6))
        path = str(tmp_path / "000003.txt")
        save_detection_frame(frame, path)
        loaded = load_detection_frame(path)
        assert loaded.scan_index == 3
        assert loaded.classes.tolist() == frame.classes.tolist()
        assert np.allclose(loaded.boxes[:, :3], frame.boxes[:, :3])
        assert np.allclose(loaded.boxes[:, 4:], frame.boxes[:, 4:])
        assert np.allclose(loaded.boxes[:, 3], frame.boxes[:, 3])
        assert np.allclose(loaded.scores, frame.scores)

    @given(st.lists(st.tuples(
        st.sampled_from(VALID_CLASSES), st.floats(0.0, 1.0),
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        # yaw in (-pi, pi], as frames hold it, with weight near the ends
        st.one_of(st.floats(-math.pi, math.pi, exclude_min=True),
                  st.floats(math.pi - 1e-6, math.pi),
                  st.floats(-math.pi, -math.pi + 1e-6, exclude_min=True)),
        st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3)), max_size=5))
    def test_save_load_save_is_byte_identical(self, dets):
        frame = DetectionFrame(
            0, np.array([(*c, yaw, *d) for _, _, c, yaw, d in dets]).reshape(-1, 7),
            np.array([d[0] for d in dets], dtype=object),
            np.array([d[1] for d in dets]))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = (os.path.join(tmp, name)
                             for name in ("000000.txt", "000001.txt"))
            save_detection_frame(frame, first)
            save_detection_frame(load_detection_frame(first), second)
            with open(first) as a, open(second) as b:
                assert a.read() == b.read()


def rows_of(frame):
    """A frame's detections as (box row, class, score) tuples, in order."""
    return list(zip(map(tuple, frame.boxes.tolist()), frame.classes.tolist(),
                    frame.scores.tolist()))


class TestFilter:
    def box(self, i, cls="car", score=1.0):
        """A unit box at x = i, as (box row, class, score)."""
        return (i, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0), cls, score

    def frame(self, boxes):
        rows, classes, scores = zip(*boxes)
        return DetectionFrame(0, np.array(rows), np.array(classes, dtype=object),
                              np.array(scores))

    def test_perfect_scores_unchanged(self):
        frame = self.frame([self.box(i) for i in range(3)])
        assert len(filter_detections(frame, 0.75, VALID_CLASSES).boxes) == 3

    def test_score_below_default_threshold_removed(self):
        # the detection threshold is 0.75, inclusive comparison
        frame = self.frame([self.box(0, score=0.74), self.box(1, score=0.75)])
        kept = filter_detections(frame, min_score=0.75, classes=VALID_CLASSES)
        assert len(kept.boxes) == 1
        assert kept.scores[0] == 0.75

    def test_matches_brute_force_predicate(self, rng):
        classes = ["car", "cyclist"]
        boxes = [self.box(i, cls=classes[int(rng.integers(2))],
                          score=float(rng.uniform(0, 1)))
                 for i in range(40)]
        kept = filter_detections(self.frame(boxes), min_score=0.6,
                                 classes=("car",))
        expected = [b for b in boxes if b[2] >= 0.6 and b[1] == "car"]
        assert rows_of(kept) == expected

    def test_idempotent(self, rng):
        frame = self.frame([self.box(i, score=float(rng.uniform(0, 1)))
                            for i in range(20)])
        once = filter_detections(frame, 0.75, VALID_CLASSES)
        twice = filter_detections(once, 0.75, VALID_CLASSES)
        assert rows_of(once) == rows_of(twice)


class TestNonFinite:
    @pytest.mark.parametrize("fields, texts, error", [
        (range(8), ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"],
         "non-finite detection field"),
        ([4, 5, 6], ["0", "-0.0", "-4"], "box dims must be strictly positive"),
        ([0], ["1.5", "-0.1", "1.0000001"], "box score must lie in [0, 1]"),
    ], ids=["non-finite", "dims", "score"])
    @given(data=st.data())
    def test_loader_names_line_of_bad_field(self, fields, texts, error, data):
        field = data.draw(st.sampled_from(fields))
        text = data.draw(st.sampled_from(texts))
        before = data.draw(st.integers(0, 3))
        values = ["0.9", "1.0", "2.0", "0.5", "4.0", "1.8", "1.5", "0.1"]
        values[field] = text
        lines = ["car 0.9 1 2 3 4 5 6 0.1"] * before + ["car " + " ".join(values)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "000001.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            message = f"{path} line {before + 1}: {error}"
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
