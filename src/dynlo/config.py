"""Pipeline configuration: dataclass bundle plus a key=value text format.

Every parameter of every stage has a key, derived from the dataclass fields:
a stage field is ``<stage>.<field>`` (a matrix ``<stage>.<field>_diag``, given
by its diagonal), a top-level field its own name, ``keyframe_*`` is
``keyframes.*``, and ``_RENAMES`` names the rest. Values are parsed and
formatted by the type of their default. Absent keys keep their defaults and
unknown keys are rejected. ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

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
    tracker_kind: str = "ukf"
    tracker: UkfParams = field(default_factory=UkfParams)
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


# top-level fields whose key is neither their name nor ``keyframes.*``
_RENAMES = {"detection_min_score": "detections.min_score",
            "detection_classes": "detections.classes",
            "tracker_kind": "tracker.kind",
            "enable_removal": "removal.enabled",
            "removal_margin": "removal.margin",
            "enable_constraint": "constraint.enabled"}
_POSITIVE = ("tracker.alpha",)  # float keys that must be > 0


def _parameters():
    """(key, stage, field name, default) of every parameter in field order;
    ``stage`` is the ``PipelineConfig`` attribute that holds it, or None."""
    defaults = PipelineConfig()
    for f in fields(defaults):
        default = getattr(defaults, f.name)
        if is_dataclass(default):
            for g in fields(default):
                value = getattr(default, g.name)
                diag = "_diag" if isinstance(value, np.ndarray) else ""
                yield f"{f.name}.{g.name}{diag}", f.name, g.name, value
        elif f.name.startswith("keyframe_"):
            yield "keyframes." + f.name[9:], None, f.name, default
        else:
            yield _RENAMES.get(f.name, f.name), None, f.name, default


def _parse(raw: str, default, positive: bool):
    if isinstance(default, bool):
        return _parse_bool(raw)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return _float(raw, positive)
    if isinstance(default, np.ndarray):
        diag = np.array([_float(v) for v in raw.split()])
        if len(diag) != len(default):
            raise ValueError(f"expected {len(default)} values, got {len(diag)}")
        return np.diag(diag)
    if isinstance(default, tuple):
        names = tuple(raw.split())
        if not names:  # removal.enabled = false is the switch for no classes
            raise ValueError("expected at least one class")
        for name in names:
            if name not in VALID_CLASSES:
                raise ValueError(f"unknown class '{name}'")
        return names
    return raw


def _format(value, default) -> str:
    if isinstance(default, np.ndarray):
        return " ".join(_fmt(v) for v in np.diag(value))
    if isinstance(default, tuple):
        return " ".join(value)
    return _fmt(value)


def dump_config(cfg: PipelineConfig | None = None) -> str:
    cfg = cfg if cfg is not None else PipelineConfig()
    lines = ["# dynlo pipeline configuration"]
    for key, stage, name, default in _parameters():
        owner = getattr(cfg, stage) if stage else cfg
        lines.append(f"{key} = {_format(getattr(owner, name), default)}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> PipelineConfig:
    cfg = PipelineConfig()
    params = {key: rest for key, *rest in _parameters()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key not in params:
            raise ValueError(f"config line {lineno}: unknown key '{key}'")
        stage, name, default = params[key]
        try:
            value = _parse(raw, default, key in _POSITIVE)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
        setattr(getattr(cfg, stage) if stage else cfg, name, value)
    return cfg


def load_config(path: str) -> PipelineConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())
