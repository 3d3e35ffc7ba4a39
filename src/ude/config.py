"""Flat run configuration with desk-scale defaults.

Every knob has a default; a JSON config file may override any subset.
Unknown keys, values of the wrong type, non-finite floats, out-of-range
values and unknown action families or dance genres are rejected. The
resolved config is echoed into every output artifact (checkpoints, loss
logs, metric reports, generation sidecars). It is the one owner of every
value: each model is built from a RunConfig and keeps it as `model.cfg`,
and each trainer reads its hyperparameters from there. A checkpoint's
recorded run config is the description of its models: loading rebuilds
them from it, after the same checks as a config file (`config_from_dict`).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .dataset import JOINT_NAMES, longest_sentence, synth_counts
from .dmd import MAX_TOKENS
from .errors import ConfigError, DataError
from .fileio import read_text
from .mate import audio_rows
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
    max_audio_len: int = 256  # feature rows; MATE embeds one row per DOWNSAMPLE of them

    # token transformer
    utt_layers: int = 2
    utt_heads: int = 4
    z_dim: int = 16
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
        return 3 * len(JOINT_NAMES)

    def beat_sigma_seconds(self) -> float:
        return self.beat_sigma_frames / self.fps


def load_config(path=None) -> RunConfig:
    """Build a RunConfig from an optional JSON file (see `config_from_dict`)."""
    if path is None:
        return config_from_dict({})
    try:
        loaded = json.loads(read_text(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (json.JSONDecodeError, DataError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(loaded)


def config_from_dict(loaded) -> RunConfig:
    """Build a RunConfig from a JSON object's values, defaults for the keys
    it leaves out. Unknown keys are rejected; values are coerced to the
    field types and checked."""
    if not isinstance(loaded, dict):
        raise ConfigError("a run config must be a JSON object")
    known = {f.name: _FIELD_TYPES[f.type] for f in fields(RunConfig)}
    unknown = set(loaded) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**{k: _coerce(k, known[k], v) for k, v in loaded.items()})
    _check_ranges(cfg)
    return cfg


# smallest value each count, the learning rate, the frame rate and the beat
# tolerance may take; at a rate far below one frame per second, synth would
# place billions of beats, and a tolerance below a hundredth of a frame is
# finer than any frame grid can tell (at 1e-300 frames, beat_align's
# 2 sigma^2 underflows to a division by zero)
_MINIMUMS = {"lr": 0, "fps": 1.0, "beat_sigma_frames": 0.01,
             "frames": DOWNSAMPLE, "feature_dim": 1, "code_count": 1, "code_dim": 1,
             "mq_hidden": 1, "embed_dim": 1, "mate_layers": 1, "mate_heads": 1,
             "utt_layers": 1, "utt_heads": 1, "z_dim": 0, "dmd_layers": 1,
             "dmd_cond_layers": 1, "dmd_heads": 1, "top_k": 1, "diffusion_steps": 1,
             "batch_size": 1, "epochs_mq": 0, "epochs_utt": 0, "epochs_dmd": 0,
             "epochs_retrieval": 0, "samples_per_input": 1, "retrieval_distractors": 1,
             "retrieval_trials": 1, "retrieval_dim": 1}
# largest value the frame rate may take: motion capture records at a few
# hundred frames per second, and the metrics scale frame differences by fps
# (at 1e300 the kinetic features' velocities overflow); a clip fits the
# diffusion decoder's frame and token position tables
_MAXIMUMS = {"fps": 1000.0,
             "frames": DOWNSAMPLE * MAX_TOKENS}


def _check_ranges(cfg: RunConfig) -> None:
    for name, least in _MINIMUMS.items():
        if getattr(cfg, name) < least:
            raise ConfigError(f"config key {name!r} must be at least {least}, "
                              f"got {getattr(cfg, name)}")
    for name, most in _MAXIMUMS.items():
        if getattr(cfg, name) > most:
            raise ConfigError(f"config key {name!r} must be at most {most}, "
                              f"got {getattr(cfg, name)}")
    for f in fields(cfg):
        if f.type == "float" and not math.isfinite(getattr(cfg, f.name)):
            raise ConfigError(f"config key {f.name!r} must be finite, got {getattr(cfg, f.name)}")
    if not cfg.temperature > 0:
        raise ConfigError(f"config key 'temperature' must be positive, got {cfg.temperature}")
    for name in ("z_prob", "compose_fraction"):
        if not 0 <= getattr(cfg, name) <= 1:
            raise ConfigError(f"config key {name!r} must lie in [0, 1], got {getattr(cfg, name)}")
    if cfg.frames % DOWNSAMPLE:
        raise ConfigError(f"frames {cfg.frames} must be divisible by {DOWNSAMPLE}")
    families, families_test, genres, genres_test = synth_counts(cfg)  # known names only
    for split, texts, clips in (("train", families, genres), ("test", families_test, genres_test)):
        if not texts and not clips:
            raise ConfigError(f"synth would write an empty {split} split")
    if sum(genres_test.values()) == 1:  # eval's FID and diversity compare two motions or more
        raise ConfigError("genres_test gives the test split one audio sample; eval needs "
                          "none or at least 2")
    texts = sum(families_test.values())
    if 0 < texts <= cfg.retrieval_distractors:  # retrieval ranks each text among distractors
        raise ConfigError(f"families_test gives the test split {texts} text samples; eval "
                          f"needs none or more than retrieval_distractors "
                          f"{cfg.retrieval_distractors}")
    sentence = longest_sentence(cfg)
    if sentence > cfg.max_text_len:
        raise ConfigError(f"synth can write sentences of {sentence} tokens, more than "
                          f"max_text_len {cfg.max_text_len}")
    for heads in ("mate_heads", "utt_heads", "dmd_heads"):
        if cfg.embed_dim % getattr(cfg, heads):
            raise ConfigError(f"embed_dim {cfg.embed_dim} must be divisible by "
                              f"{heads} {getattr(cfg, heads)}")
    # the longest UTT context, counted as generate_tokens checks it: glob, the
    # longest condition (one row per word, one per DOWNSAMPLE audio feature
    # rows) and a motion row per token, the first of which is BOS (training
    # feeds [BOS, t_0..t_{S-2}], sampling never feeds its last token)
    condition = max(cfg.max_text_len, audio_rows(cfg.max_audio_len))
    longest = 1 + condition + cfg.frames // DOWNSAMPLE
    if longest > cfg.max_context:
        raise ConfigError(f"the longest context ({longest}: 1 + max(max_text_len, "
                          f"ceil(max_audio_len/{DOWNSAMPLE})) + frames/{DOWNSAMPLE}) "
                          f"exceeds max_context {cfg.max_context}")
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
