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
from typing import List, Sequence

from .geometry import DetectionBox

VALID_CLASSES = ("car", "cyclist")


@dataclass
class DetectionFrame:
    scan_index: int
    boxes: List[DetectionBox] = field(default_factory=list)


def _scan_index_from_path(path: str) -> int:
    stem = os.path.splitext(os.path.basename(path))[0]
    return int(stem) if stem.isdigit() else 0


def load_detection_frame(path: str, scan_index: int | None = None) -> DetectionFrame:
    boxes: List[DetectionBox] = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 9:
                raise ValueError(
                    f"{path}:{lineno}: malformed detection line "
                    f"(expected 9 fields, got {len(parts)})")
            cls = parts[0]
            if cls not in VALID_CLASSES:
                raise ValueError(f"{path}:{lineno}: unknown class label '{cls}'")
            try:
                vals = [float(v) for v in parts[1:]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed detection line "
                                 f"(non-numeric field)") from None
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"{path}:{lineno}: non-finite detection field")
            score, cx, cy, cz, l, w, h, yaw = vals
            boxes.append(DetectionBox(center=(cx, cy, cz), yaw=yaw,
                                      dims=(l, w, h), cls=cls, score=score))
    if scan_index is None:
        scan_index = _scan_index_from_path(path)
    return DetectionFrame(scan_index=scan_index, boxes=boxes)


def save_detection_frame(frame: DetectionFrame, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# class score cx cy cz l w h yaw\n")
        for b in frame.boxes:
            fh.write("%s %.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g\n" % (
                b.cls, b.score, b.center[0], b.center[1], b.center[2],
                b.dims[0], b.dims[1], b.dims[2], b.yaw))


def filter_detections(frame: DetectionFrame, min_score: float = 0.75,
                      classes: Sequence[str] = VALID_CLASSES) -> DetectionFrame:
    """Keep boxes with score >= min_score and class in ``classes``; order preserved."""
    allowed = set(classes)
    kept = [b for b in frame.boxes if b.score >= min_score and b.cls in allowed]
    return DetectionFrame(scan_index=frame.scan_index, boxes=kept)
