import json
import math

import pytest

from ude.config import RunConfig, load_config
from ude.dataset import longest_sentence
from ude.errors import ConfigError
from ude.motion import default_skeleton


def _load(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return load_config(path)


def test_values_are_coerced_to_the_field_types(tmp_path):
    cfg = _load(tmp_path, {"frames": "64", "lr": "0.01", "fps": 16, "batch_size": 4.0})
    assert cfg.frames == 64 and type(cfg.frames) is int
    assert cfg.lr == 0.01 and type(cfg.lr) is float
    assert cfg.fps == 16.0 and type(cfg.fps) is float
    assert cfg.batch_size == 4 and type(cfg.batch_size) is int


def test_defaults_round_trip_unchanged(tmp_path):
    assert _load(tmp_path, RunConfig().to_dict()) == RunConfig()


@pytest.mark.parametrize("content", [b"{frames: 64}", b"\xff\xfe\x00\x81"],
                         ids=["not-json", "not-utf8"])
def test_unreadable_config_file_raises(tmp_path, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("values", [
    {"frames": "sixty-four"},
    {"frames": 64.5},
    {"frames": True},
    {"lr": None},
    {"lr": [0.1]},
    {"families": 3},
])
def test_values_that_do_not_fit_the_field_type_raise(tmp_path, values):
    with pytest.raises(ConfigError):
        _load(tmp_path, values)


@pytest.mark.parametrize("values", [
    {"embed_dim": 30},
    {"mate_heads": 3},
    {"utt_heads": 3},
    {"dmd_heads": 3},
    {"utt_heads": 0},
    {"frames": 62},
    {"frames": 0},
    {"code_count": 0},
    {"top_k": 0},
    {"diffusion_steps": 0},
    {"batch_size": 0},
    {"epochs_mq": -1},
    {"epochs_retrieval": -1},
    {"samples_per_input": 0},
    # glob + 256 audio rows + BOS + 64 / 4 tokens = 274 rows
    {"max_context": 273},
    {"max_text_len": 500},
    {"frames": 1024},
    {"max_audio_len": 63},  # synth writes 64 feature rows per audio clip
    {"retrieval_trials": 0},
    # counts below which synth, train or eval cannot run
    {"feature_dim": 0},
    {"code_dim": 0},
    {"mq_hidden": 0},
    {"utt_layers": 0},
    {"z_dim": -1},
    {"retrieval_distractors": -1},
    {"retrieval_dim": -1},
    {"beat_sigma_frames": 0.0},
    {"fps": -16.0},
    {"families": "walk:4,moonwalk:4"},
    {"genres_test": "polka:1"},
    {"lr": math.nan},
    {"lr": "nan"},
    {"beta_adv": "inf"},
    {"fps": math.inf},
    {"z_prob": 7.5},
    {"z_prob": -0.1},
    {"compose_fraction": -3},
    {"compose_fraction": 1.5},
    # layer counts below one, a zero-width retrieval embedding, and retrieval
    # without a distractor
    {"mate_layers": 0},
    {"mate_layers": -1},
    {"dmd_layers": -1},
    {"dmd_cond_layers": 0},
    {"retrieval_dim": 0},
    {"retrieval_distractors": 0},
    # the default families can write "<subject> <turn phrase> then <turn phrase>",
    # 2 + 6 + 1 + 6 = 15 tokens
    {"max_text_len": 14},
])
def test_values_out_of_range_raise(tmp_path, values):
    with pytest.raises(ConfigError):
        _load(tmp_path, values)


def test_longest_context_may_fill_max_context(tmp_path):
    assert _load(tmp_path, {"max_context": 274}).max_context == 274


def test_the_frame_width_is_the_synthetic_skeletons(tmp_path):
    # synth writes only the 8-joint skeleton, so no key can set another width
    assert RunConfig().frame_dim == 3 * default_skeleton().joint_count == 24
    with pytest.raises(ConfigError, match="unknown config keys"):
        _load(tmp_path, {"joints": 10})


@pytest.mark.parametrize("values, longest", [
    ({}, 15),
    ({"compose_fraction": 0.0}, 8),
    ({"frames": 8}, 8),  # clips under 16 frames hold one action
    ({"families": "walk:4", "families_test": "jump:1"}, 11),
    ({"families": "walk:4", "families_test": "", "compose_fraction": 0.0}, 5),
    ({"families": "", "families_test": "", "max_text_len": 1}, 0),
])
def test_max_text_len_may_equal_the_longest_sentence(tmp_path, values, longest):
    assert longest_sentence(_load(tmp_path, values)) == longest
    if longest:
        assert _load(tmp_path, {**values, "max_text_len": longest}).max_text_len == longest
        with pytest.raises(ConfigError, match=f"sentences of {longest} tokens"):
            _load(tmp_path, {**values, "max_text_len": longest - 1})
