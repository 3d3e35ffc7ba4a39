"""Flat run configuration with desk-scale defaults.

Every knob has a default; a JSON config file may override any subset.
Unknown keys, values of the wrong type and out-of-range counts are
rejected. The resolved config is echoed into every output artifact
(checkpoints, loss logs, metric reports, generation sidecars).

`LARGE_SCALE` documents the reference full-scale settings this desk setup
is scaled down from; they are constants, not defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError

# Reference full-scale hyperparameters (documented, not defaults): codebook
# 2048x1024, 6-layer condition encoder (8 heads, hidden 1024, 256-d
# projection), 8-layer token transformer (hidden 1024), 8+8 diffusion
# layers with 1000 steps, Adam lr 1e-4, 438-d audio features, 24 joints.
LARGE_SCALE = {
    "code_count": 2048,
    "code_dim": 1024,
    "mate_layers": 6,
    "mate_heads": 8,
    "mate_hidden": 1024,
    "mate_proj_dim": 256,
    "utt_layers": 8,
    "utt_hidden": 1024,
    "dmd_cond_layers": 8,
    "dmd_layers": 8,
    "dmd_hidden": 1024,
    "dmd_heads": 8,
    "diffusion_steps": 1000,
    "lr": 1e-4,
    "beta_codebook": 1.0,
    "beta_commit": 1.0,
    "beta_adv": 1.0,
    "audio_feature_dim": 438,
    "joints": 24,
}


@dataclass
class RunConfig:
    # data
    fps: float = 16.0
    frames: int = 64
    joints: int = 8
    feature_dim: int = 16
    families: str = "walk:64,wave:64,jump:64,turn:64"
    families_test: str = "walk:16,wave:16,jump:16,turn:16"
    genres: str = "sway:86,groove:85,pulse:85"
    genres_test: str = "sway:22,groove:21,pulse:21"
    compose_fraction: float = 0.3

    # quantizer
    code_count: int = 64
    code_dim: int = 32
    mq_hidden: int = 64
    beta_codebook: float = 1.0
    beta_commit: float = 1.0

    # condition encoder
    embed_dim: int = 64
    mate_layers: int = 2
    mate_heads: int = 4
    max_text_len: int = 77
    max_audio_len: int = 256

    # token transformer
    utt_layers: int = 2
    utt_heads: int = 4
    z_dim: int = 16
    beta_adv: float = 1.0
    max_context: int = 512
    temperature: float = 1.0
    top_k: int = 16

    # diffusion decoder
    diffusion_steps: int = 50
    dmd_layers: int = 2
    dmd_cond_layers: int = 2
    dmd_heads: int = 4

    # training
    lr: float = 1e-3
    epochs_mq: int = 35
    epochs_utt: int = 18
    epochs_dmd: int = 12
    epochs_retrieval: int = 25
    batch_size: int = 8
    z_prob: float = 0.5
    seed: int = 0

    # metrics
    beat_sigma_frames: float = 3.0
    retrieval_distractors: int = 60
    retrieval_trials: int = 10
    retrieval_dim: int = 32
    samples_per_input: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def frame_dim(self) -> int:
        return self.joints * 3

    def beat_sigma_seconds(self) -> float:
        return self.beat_sigma_frames / self.fps


def parse_counts(spec: str) -> dict:
    """Parse "name:count,name:count" (or bare "name" = count 1) specs."""
    out = {}
    if not spec.strip():
        return out
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            name, _, count = chunk.partition(":")
            try:
                out[name.strip()] = int(count)
            except ValueError as exc:
                raise ConfigError(f"bad count in {chunk!r}") from exc
        else:
            out[chunk] = 1
    return {k: v for k, v in out.items() if v > 0}


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus overrides.

    Unknown keys are rejected; values are coerced to the field types.
    """
    known = {f.name: _FIELD_TYPES[f.type] for f in fields(RunConfig)}
    merged: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(loaded)
    merged.update(overrides or {})
    unknown = set(merged) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**{k: _coerce(k, known[k], v) for k, v in merged.items()})
    _check_ranges(cfg)
    return cfg


# smallest value each count may take
_MINIMUMS = {"frames": 4, "code_count": 1, "embed_dim": 1, "mate_heads": 1,
             "utt_heads": 1, "dmd_heads": 1, "top_k": 1, "diffusion_steps": 1,
             "batch_size": 1, "epochs_mq": 0, "epochs_utt": 0, "epochs_dmd": 0,
             "epochs_retrieval": 0}


def _check_ranges(cfg: RunConfig) -> None:
    for name, least in _MINIMUMS.items():
        if getattr(cfg, name) < least:
            raise ConfigError(f"config key {name!r} must be at least {least}, "
                              f"got {getattr(cfg, name)}")
    if cfg.frames % 4:
        raise ConfigError(f"frames {cfg.frames} must be divisible by 4")
    for heads in ("mate_heads", "utt_heads", "dmd_heads"):
        if cfg.embed_dim % getattr(cfg, heads):
            raise ConfigError(f"embed_dim {cfg.embed_dim} must be divisible by "
                              f"{heads} {getattr(cfg, heads)}")


_FIELD_TYPES = {"int": int, "float": float, "str": str}


def _coerce(name: str, kind: type, value):
    """`value` as the field type `kind`: numbers may arrive as numbers or
    strings, but an int field takes no fraction and a str field no number."""
    bad = ConfigError(f"config key {name!r} must be {kind.__name__}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise bad
    if kind is str:
        if not isinstance(value, str):
            raise bad
        return value
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise bad
    try:
        return kind(value)
    except ValueError:
        raise bad from None
