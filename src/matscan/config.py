"""Flat `key = value` pipeline configuration with `#` comments."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .geometry import PinholeCamera
from .scenes import BUILTIN_SCENES
from .simulator import NOISE_BOUNDS


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    scene: str = "two-sphere"
    n_vertices: int = 5000
    n_trajectory_poses: int = 50
    duration_s: float = 10.0
    trajectory_radius_m: float = 0.95
    trajectory_sweep_deg: float = 50.0
    n_ir_frames: int = 200
    rgb_frame_stride: int = 3
    fx: float = 570.0
    fy: float = 570.0
    cx: float = 347.0
    cy: float = 259.0
    width: int = 694
    height: int = 518
    saturation_level: float = 8.0
    normal_jitter_deg: float = 0.0
    pose_translation_jitter_m: float = 0.0
    pose_rotation_jitter_deg: float = 0.0
    intensity_multiplicative_sigma: float = 0.0
    outlier_fraction: float = 0.0
    dropout_fraction: float = 0.0
    sample_budget: int = 100000
    diffusion_radius_m: float = 0.01
    segmentation_mode: str = "multi"  # "two" or "multi"
    lambertian_materials: int = 0  # 1: replace scene materials by lambertian ones
    out_dir: str = "out"
    rng_seed: int = 0

    def validate(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.scene not in BUILTIN_SCENES:
            raise ConfigError(f"unknown scene {self.scene!r}, "
                              f"have {sorted(BUILTIN_SCENES)}")
        if self.n_vertices < 1 or self.n_ir_frames < 1 or self.n_trajectory_poses < 2:
            raise ConfigError("scene/trajectory sizes out of range")
        if self.rgb_frame_stride < 1 or self.sample_budget < 1:
            raise ConfigError("rgb_frame_stride and sample_budget must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")
        try:
            PinholeCamera(self.fx, self.fy, self.cx, self.cy, self.width,
                          self.height)
        except ValueError as exc:
            raise ConfigError(f"camera intrinsics: {exc}") from exc
        if self.segmentation_mode not in ("two", "multi"):
            raise ConfigError("segmentation_mode must be 'two' or 'multi'")
        if self.lambertian_materials not in (0, 1):
            raise ConfigError("lambertian_materials must be 0 or 1")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        for name in ("duration_s", "trajectory_radius_m", "saturation_level",
                     "diffusion_radius_m"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name, hi in NOISE_BOUNDS.items():
            if not 0 <= getattr(self, name) <= hi:
                raise ConfigError(f"{name} must be in [0, {hi}]")
        return self


_FIELDS = {f.name: f.type for f in fields(PipelineConfig)}
_CASTS = {"int": int, "float": float, "str": str}


def parse_config(text: str) -> PipelineConfig:
    cfg = PipelineConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _CASTS[_FIELDS[key]](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    cfg.validate()
    return cfg


def serialize_config(cfg: PipelineConfig) -> str:
    lines = []
    for f in fields(PipelineConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
