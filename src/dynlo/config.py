"""Pipeline configuration: dataclass bundle plus a key=value text format.

Each stage's parameters are the fields of its dataclass, and the key of a
field is ``<stage>.<field>`` (a matrix ``<stage>.<field>_diag``, given by its
diagonal); ``dt``, the one top-level field, is its own key. Values are parsed
and formatted by the type of their default. Absent keys keep their defaults
and unknown keys are rejected. ``#`` starts a comment.

Each field declares its valid range in its ``metadata["bound"]``: a
comparison such as ``"> 0"`` or ``">= 1"``, an interval such as
``"in [0, 1]"``, a tuple of the names it may hold (with a ``"noun"`` for the
message), or None. NaN is never valid. One check enforces the ranges, at
each config line and on a whole config (:func:`check_config`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .detections import DetectionParams
from .ground import ConstraintParams
from .keyframes import KeyframeParams
from .preprocess import PreprocessParams
from .registration import GicpParams
from .removal import RemovalParams
from .tracking import UkfParams


@dataclass
class PipelineConfig:
    dt: float = field(default=0.1, metadata={"bound": "> 0"})
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


# the comparison of a bound's operator, or of an interval's bracket
_COMPARE = {">": operator.gt, ">=": operator.ge, "(": operator.gt,
            "[": operator.ge, ")": operator.lt, "]": operator.le}


def _within(value, bound: str) -> bool:
    if bound.startswith("in "):  # "in [lo, hi]", either end open or closed
        lo, hi = bound[4:-1].split(",")
        return (_COMPARE[bound[3]](value, float(lo))
                and _COMPARE[bound[-1]](value, float(hi)))
    op, limit = bound.split()
    return _COMPARE[op](value, float(limit))


def _check(value, metadata) -> None:
    """Raise ValueError if ``value`` lies outside the range its field's
    ``metadata`` declares; a matrix is checked on its diagonal."""
    bound = metadata["bound"]
    if isinstance(bound, tuple):
        noun = metadata["noun"]
        # removal.enabled = false is the switch for no classes
        if len(value) == 0:
            raise ValueError(f"expected at least one {noun}")
        for name in value:
            if name not in bound:
                raise ValueError(f"unknown {noun} '{name}'")
        return
    numbers = np.diag(value) if isinstance(value, np.ndarray) else (value,)
    for number in numbers:
        # NaN fails every comparison; inf is a value (concave_alpha = inf
        # means no splits)
        if number == number and (bound is None or _within(number, bound)):
            continue
        kind = ("an integer" if isinstance(number, (int, np.integer))
                else "a number")
        rule = f" {bound}" if bound is not None else ""
        raise ValueError(f"expected {kind}{rule}, got '{_fmt(number)}'")


def _parameters():
    """(key, stage, field name, default, metadata) of every parameter in
    field order; ``stage`` is the ``PipelineConfig`` attribute that holds
    it, or None for ``dt``."""
    defaults = PipelineConfig()
    for f in fields(defaults):
        stage = getattr(defaults, f.name)
        if not is_dataclass(stage):
            yield f.name, None, f.name, stage, f.metadata
            continue
        for g in fields(stage):
            default = getattr(stage, g.name)
            diag = "_diag" if isinstance(default, np.ndarray) else ""
            yield (f"{f.name}.{g.name}{diag}", f.name, g.name, default,
                   g.metadata)


def _parse(raw: str, default):
    if isinstance(default, bool):
        return _parse_bool(raw)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, np.ndarray):
        diag = np.array([float(v) for v in raw.split()])
        if len(diag) != len(default):
            raise ValueError(f"expected {len(default)} values, got {len(diag)}")
        return np.diag(diag)
    return tuple(raw.split())  # a list of names


def _format(value, default) -> str:
    if isinstance(default, np.ndarray):
        return " ".join(_fmt(v) for v in np.diag(value))
    if isinstance(default, tuple):
        return " ".join(value)
    return _fmt(value)


def check_config(cfg: PipelineConfig) -> None:
    """Raise ValueError, naming the key, for the first value outside the
    range its field declares."""
    for key, stage, name, _, metadata in _parameters():
        try:
            _check(getattr(getattr(cfg, stage) if stage else cfg, name),
                   metadata)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None


def dump_config(cfg: PipelineConfig | None = None) -> str:
    cfg = cfg if cfg is not None else PipelineConfig()
    lines = ["# dynlo pipeline configuration"]
    for key, stage, name, default, _ in _parameters():
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
        stage, name, default, metadata = params[key]
        try:
            value = _parse(raw, default)
            _check(value, metadata)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
        setattr(getattr(cfg, stage) if stage else cfg, name, value)
    return cfg


def load_config(path: str) -> PipelineConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())
