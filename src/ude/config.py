"""Flat run configuration with desk-scale defaults.

Every knob has a default; a JSON config file may override any subset.
Unknown keys, values of the wrong type, non-finite floats, out-of-range
values and unknown action families or dance genres are rejected. The
resolved config is echoed into every output artifact (checkpoints, loss
logs, metric reports, generation sidecars).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .dataset import longest_sentence, synth_counts
from .errors import ConfigError, DataError
from .fileio import read_text
from .motion import default_skeleton
from .mq import DOWNSAMPLE

# The defaults scale down these full-scale settings: codebook 2048x1024,
# 6-layer condition encoder (8 heads, hidden 1024, 256-d projection), 8-layer
# token transformer (hidden 1024), 8+8 diffusion layers with 1000 steps, Adam
# lr 1e-4, 438-d audio features, 24 joints (the synthetic skeleton has 8).


@dataclass
class RunConfig:
    # data
    fps: float = 16.0
    frames: int = 64
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
    batch_size: int = 8  # also the size of eval's sampling groups
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
        """Width of a frame of the synthetic dataset's skeleton, the only one it writes."""
        return default_skeleton().joint_count * 3

    def beat_sigma_seconds(self) -> float:
        return self.beat_sigma_frames / self.fps


def load_config(path=None) -> RunConfig:
    """Build a RunConfig from an optional JSON file.

    Unknown keys are rejected; values are coerced to the field types.
    """
    known = {f.name: _FIELD_TYPES[f.type] for f in fields(RunConfig)}
    loaded: dict = {}
    if path is not None:
        try:
            loaded = json.loads(read_text(path))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (json.JSONDecodeError, DataError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(loaded) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**{k: _coerce(k, known[k], v) for k, v in loaded.items()})
    _check_ranges(cfg)
    return cfg


# smallest value each count may take
_MINIMUMS = {"frames": DOWNSAMPLE, "feature_dim": 1, "code_count": 1, "code_dim": 1,
             "mq_hidden": 1, "embed_dim": 1, "mate_layers": 1, "mate_heads": 1,
             "utt_layers": 1, "utt_heads": 1, "z_dim": 0, "dmd_layers": 1,
             "dmd_cond_layers": 1, "dmd_heads": 1, "top_k": 1, "diffusion_steps": 1,
             "batch_size": 1, "epochs_mq": 0, "epochs_utt": 0, "epochs_dmd": 0,
             "epochs_retrieval": 0, "samples_per_input": 1, "retrieval_distractors": 1,
             "retrieval_trials": 1, "retrieval_dim": 1}


def _check_ranges(cfg: RunConfig) -> None:
    for name, least in _MINIMUMS.items():
        if getattr(cfg, name) < least:
            raise ConfigError(f"config key {name!r} must be at least {least}, "
                              f"got {getattr(cfg, name)}")
    for f in fields(cfg):
        if f.type == "float" and not math.isfinite(getattr(cfg, f.name)):
            raise ConfigError(f"config key {f.name!r} must be finite, got {getattr(cfg, f.name)}")
    for name in ("fps", "beat_sigma_frames"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"config key {name!r} must be positive, got {getattr(cfg, name)}")
    for name in ("z_prob", "compose_fraction"):
        if not 0 <= getattr(cfg, name) <= 1:
            raise ConfigError(f"config key {name!r} must lie in [0, 1], got {getattr(cfg, name)}")
    if cfg.frames % DOWNSAMPLE:
        raise ConfigError(f"frames {cfg.frames} must be divisible by {DOWNSAMPLE}")
    synth_counts(cfg)  # every family and genre name is one the generators know
    sentence = longest_sentence(cfg)
    if sentence > cfg.max_text_len:
        raise ConfigError(f"synth can write sentences of {sentence} tokens, more than "
                          f"max_text_len {cfg.max_text_len}")
    for heads in ("mate_heads", "utt_heads", "dmd_heads"):
        if cfg.embed_dim % getattr(cfg, heads):
            raise ConfigError(f"embed_dim {cfg.embed_dim} must be divisible by "
                              f"{heads} {getattr(cfg, heads)}")
    # the longest UTT context: glob, the longest condition, BOS and every token
    longest = 1 + max(cfg.max_text_len, cfg.max_audio_len) + 1 + cfg.frames // DOWNSAMPLE
    if longest > cfg.max_context:
        raise ConfigError(f"the longest context ({longest}: 1 + max(max_text_len, "
                          f"max_audio_len) + 1 + frames/{DOWNSAMPLE}) exceeds max_context "
                          f"{cfg.max_context}")
    if cfg.max_audio_len < cfg.frames:  # synth writes one feature row per frame
        raise ConfigError(f"max_audio_len {cfg.max_audio_len} is below frames {cfg.frames}, "
                          f"the feature rows of each synthesized audio clip")


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
