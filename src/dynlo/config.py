"""Pipeline configuration: dataclass bundle plus a key=value text format.

Each stage's parameters are the fields of its dataclass, and the key of a
field is ``<stage>.<field>`` (a matrix ``<stage>.<field>_diag``, given by its
diagonal); ``dt``, the one top-level field, is its own key. Values are parsed
and formatted by the type of their default. Absent keys keep their defaults
and unknown keys are rejected. ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .detections import VALID_CLASSES, DetectionParams
from .ground import ConstraintParams
from .keyframes import KeyframeParams
from .preprocess import PreprocessParams
from .registration import GicpParams
from .removal import RemovalParams
from .tracking import TRACKER_KINDS, UkfParams


@dataclass
class PipelineConfig:
    dt: float = 0.1
    preprocess: PreprocessParams = field(default_factory=PreprocessParams)
    detections: DetectionParams = field(default_factory=DetectionParams)
    tracker: UkfParams = field(default_factory=UkfParams)
    removal: RemovalParams = field(default_factory=RemovalParams)
    gicp: GicpParams = field(default_factory=GicpParams)
    constraint: ConstraintParams = field(default_factory=ConstraintParams)
    keyframes: KeyframeParams = field(default_factory=KeyframeParams)


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


_POSITIVE = ("tracker.alpha",)  # float keys that must be > 0


def _parameters():
    """(key, stage, field name, default) of every parameter in field order;
    ``stage`` is the ``PipelineConfig`` attribute that holds it, or None for
    ``dt``."""
    defaults = PipelineConfig()
    for f in fields(defaults):
        stage = getattr(defaults, f.name)
        if not is_dataclass(stage):
            yield f.name, None, f.name, stage
            continue
        for g in fields(stage):
            default = getattr(stage, g.name)
            diag = "_diag" if isinstance(default, np.ndarray) else ""
            yield f"{f.name}.{g.name}{diag}", f.name, g.name, default


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
    if raw not in TRACKER_KINDS:  # tracker.kind, the one string parameter
        raise ValueError(f"unknown tracker kind '{raw}'")
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
