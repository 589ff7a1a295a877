"""Pipeline configuration: dataclass bundle plus a key=value text format.

Every parameter of every stage has a key; absent keys keep their defaults and
unknown keys are rejected. ``#`` starts a comment. The tracker noise matrices
are exposed as diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detections import VALID_CLASSES
from .ground import ConstraintParams
from .preprocess import PreprocessParams
from .registration import GicpParams
from .tracking import UkfParams


@dataclass
class PipelineConfig:
    dt: float = 0.1
    preprocess: PreprocessParams = field(default_factory=PreprocessParams)
    detection_min_score: float = 0.75
    detection_classes: tuple = VALID_CLASSES
    tracker: UkfParams = field(default_factory=UkfParams)
    tracker_kind: str = "ukf"
    enable_removal: bool = True
    removal_margin: float = 0.1
    gicp: GicpParams = field(default_factory=GicpParams)
    enable_constraint: bool = True
    constraint: ConstraintParams = field(default_factory=ConstraintParams)
    keyframe_k_nearest: int = 10
    keyframe_l_hull: int = 10
    keyframe_j_concave: int = 10
    keyframe_concave_alpha: float = 25.0
    keyframe_cell_size: float = 5.0


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got '{raw}'")


def _float(raw: str, positive: bool = False) -> float:
    value = float(raw)  # inf is a value: concave_alpha = inf means no splits
    if np.isnan(value) or (positive and value <= 0.0):
        raise ValueError(f"expected a number{' > 0' * positive}, got '{raw}'")
    return value


def _parse_floats(raw: str, n: int) -> np.ndarray:
    vals = np.array([_float(v) for v in raw.split()])
    if vals.shape[0] != n:
        raise ValueError(f"expected {n} values, got {vals.shape[0]}")
    return vals


def _entries(cfg: PipelineConfig):
    """(key, getter, setter) triples covering every configurable parameter."""

    def attr(obj, name, caster):
        return (lambda: getattr(obj, name),
                lambda raw: setattr(obj, name, caster(raw)))

    pre, trk, reg, con = cfg.preprocess, cfg.tracker, cfg.gicp, cfg.constraint
    items = [
        ("dt", *attr(cfg, "dt", _float)),
        ("preprocess.self_crop_half_extent",
         *attr(pre, "self_crop_half_extent", _float)),
        ("preprocess.voxel_leaf", *attr(pre, "voxel_leaf", _float)),
        ("preprocess.covariance_knn", *attr(pre, "covariance_knn", int)),
        ("preprocess.plane_epsilon", *attr(pre, "plane_epsilon", _float)),
        ("detections.min_score", *attr(cfg, "detection_min_score", _float)),
        ("detections.classes",
         lambda: " ".join(cfg.detection_classes),
         lambda raw: setattr(cfg, "detection_classes", tuple(raw.split()))),
        ("tracker.kind", *attr(cfg, "tracker_kind", str)),
        ("tracker.alpha", *attr(trk, "alpha", lambda raw: _float(raw, True))),
        ("tracker.beta", *attr(trk, "beta", _float)),
        ("tracker.kappa", *attr(trk, "kappa", _float)),
        ("tracker.process_noise_diag",
         lambda: " ".join(_fmt(v) for v in np.diag(trk.process_noise)),
         lambda raw: setattr(trk, "process_noise", np.diag(_parse_floats(raw, 8)))),
        ("tracker.measurement_noise_diag",
         lambda: " ".join(_fmt(v) for v in np.diag(trk.measurement_noise)),
         lambda raw: setattr(trk, "measurement_noise",
                             np.diag(_parse_floats(raw, 7)))),
        ("tracker.initial_velocity_variance",
         *attr(trk, "initial_velocity_variance", _float)),
        ("tracker.dynamic_speed_threshold",
         *attr(trk, "dynamic_speed_threshold", _float)),
        ("tracker.gate_distance", *attr(trk, "gate_distance", _float)),
        ("tracker.age_max", *attr(trk, "age_max", int)),
        ("removal.enabled", *attr(cfg, "enable_removal", _parse_bool)),
        ("removal.margin", *attr(cfg, "removal_margin", _float)),
        ("gicp.max_correspondence_distance",
         *attr(reg, "max_correspondence_distance", _float)),
        ("gicp.max_iterations", *attr(reg, "max_iterations", int)),
        ("gicp.translation_epsilon", *attr(reg, "translation_epsilon", _float)),
        ("gicp.rotation_epsilon", *attr(reg, "rotation_epsilon", _float)),
        ("constraint.enabled", *attr(cfg, "enable_constraint", _parse_bool)),
        ("constraint.window_scans", *attr(con, "window_scans", int)),
        ("constraint.min_inliers", *attr(con, "min_inliers", int)),
        ("constraint.plane_inlier_distance",
         *attr(con, "plane_inlier_distance", _float)),
        ("constraint.z_change_threshold",
         *attr(con, "z_change_threshold", _float)),
        ("constraint.blend_weight", *attr(con, "blend_weight", _float)),
        ("keyframes.k_nearest", *attr(cfg, "keyframe_k_nearest", int)),
        ("keyframes.l_hull", *attr(cfg, "keyframe_l_hull", int)),
        ("keyframes.j_concave", *attr(cfg, "keyframe_j_concave", int)),
        ("keyframes.concave_alpha", *attr(cfg, "keyframe_concave_alpha", _float)),
        ("keyframes.cell_size", *attr(cfg, "keyframe_cell_size", _float)),
    ]
    return items


def dump_config(cfg: PipelineConfig | None = None) -> str:
    cfg = cfg if cfg is not None else PipelineConfig()
    lines = ["# dynlo pipeline configuration"]
    for key, get, _ in _entries(cfg):
        value = get()
        lines.append(f"{key} = {_fmt(value) if not isinstance(value, str) else value}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> PipelineConfig:
    cfg = PipelineConfig()
    setters = {key: setter for key, _, setter in _entries(cfg)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key not in setters:
            raise ValueError(f"config line {lineno}: unknown key '{key}'")
        try:
            setters[key](raw)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return cfg


def load_config(path: str) -> PipelineConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())
