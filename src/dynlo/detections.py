"""Detection-box ingestion from per-scan text files and class/score filtering.

File format (one file per scan, ``NNNNNN.txt``): whitespace-separated columns
``class score cx cy cz l w h yaw``; ``#`` starts a comment line; meters and
radians. Yaw is about +z measured from +x and is normalized into (-pi, pi]
on load.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fileio import _data_lines
from .geometry import wrap_angle

VALID_CLASSES = ("car", "cyclist")


@dataclass
class DetectionParams:
    min_score: float = field(default=0.75, metadata={"bound": "in [0, 1]"})
    classes: tuple = field(default=VALID_CLASSES, metadata={
        "bound": VALID_CLASSES, "noun": "class"})


@dataclass(eq=False)
class DetectionFrame:
    """One scan's box rows ``cx cy cz yaw l w h`` (D, 7), the tracker's
    observation order, beside their class labels (object) and scores (D,)."""

    scan_index: int
    boxes: np.ndarray
    classes: np.ndarray
    scores: np.ndarray


def load_detection_frame(path: str, scan_index: int | None = None) -> DetectionFrame:
    rows, classes = [], []
    for where, parts in _data_lines(path):
        if len(parts) != 9:
            raise ValueError(f"{where}: expected 9 fields "
                             f"(class score cx cy cz l w h yaw), got {len(parts)}")
        cls = parts[0]
        if cls not in VALID_CLASSES:
            raise ValueError(f"{where}: unknown class label '{cls}'")
        try:
            vals = [float(v) for v in parts[1:]]
        except ValueError:
            raise ValueError(f"{where}: malformed detection line "
                             f"(non-numeric field)") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{where}: non-finite detection field")
        if min(vals[4:7]) <= 0.0:
            raise ValueError(f"{where}: box dims must be strictly positive")
        if not 0.0 <= vals[0] <= 1.0:
            raise ValueError(f"{where}: box score must lie in [0, 1]")
        # only out-of-range yaws: wrap_angle moves in-range ones by 2^-52
        if not -math.pi < vals[7] <= math.pi:
            vals[7] = wrap_angle(vals[7])
        rows.append(vals)
        classes.append(cls)
    fields = np.array(rows, dtype=float).reshape(-1, 8)  # score cx cy cz l w h yaw
    boxes = fields[:, [1, 2, 3, 7, 4, 5, 6]]
    if scan_index is None:  # from the file name NNNNNN.txt, else 0
        stem = os.path.splitext(os.path.basename(path))[0]
        scan_index = int(stem) if stem.isdigit() else 0
    return DetectionFrame(scan_index, boxes, np.array(classes, dtype=object),
                          fields[:, 0])


def save_detection_frame(frame: DetectionFrame, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# class score cx cy cz l w h yaw\n")
        for cls, score, (cx, cy, cz, yaw, l, w, h) in zip(
                frame.classes, frame.scores.tolist(), frame.boxes.tolist()):
            fh.write("%s %.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g\n" % (
                cls, score, cx, cy, cz, l, w, h, yaw))


def filter_detections(frame: DetectionFrame, min_score: float,
                      classes: Sequence[str]) -> DetectionFrame:
    """Keep boxes with score >= min_score and class in ``classes``; order preserved."""
    keep = (frame.scores >= min_score) & np.isin(frame.classes, list(classes))
    return DetectionFrame(frame.scan_index, frame.boxes[keep],
                          frame.classes[keep], frame.scores[keep])
