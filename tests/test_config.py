import json
import math

import pytest

from ude.config import RunConfig, load_config
from ude.dataset import JOINT_NAMES, longest_sentence, synth_counts
from ude.errors import ConfigError


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
    # glob + 77 text rows (more than 256 / 4 audio rows) + 64 / 4 motion rows
    # (BOS and the first 15 tokens) = 94 rows
    {"max_context": 93},
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
    {"beta_commit": "inf"},
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
    # a temperature at or below zero, and gradient ascent
    {"temperature": 0.0},
    {"temperature": -1.0},
    {"lr": -1e-3},
    # under one frame per second, and splits that train or eval cannot use
    {"fps": 0.5},
    # float values far past their useful range (numpy warned at both), and the
    # nearest values past each bound
    {"fps": 1e300},
    {"fps": math.nextafter(1000.0, math.inf)},
    {"beat_sigma_frames": 1e-300},
    {"beat_sigma_frames": math.nextafter(0.01, 0.0)},
    {"families": "", "genres": ""},
    {"families_test": "", "genres_test": ""},
    {"genres_test": "groove:1"},
    # eval ranks each test text among retrieval_distractors others: the
    # default test split has 64 texts
    {"retrieval_distractors": 64},
    {"families_test": "walk:1"},
    # the diffusion decoder has positions for 512 frames (128 tokens)
    {"frames": 516, "max_audio_len": 520, "max_context": 1024},
    # a negative beat tolerance
    {"beat_sigma_frames": -1.0},
])
def test_values_out_of_range_raise(tmp_path, values):
    with pytest.raises(ConfigError):
        _load(tmp_path, values)


@pytest.mark.parametrize("values", [
    {"lr": 0.0},  # Adam leaves the parameters where they are
    {"temperature": 1e-9},
    {"fps": 1.0},
    {"fps": 1000.0},
    {"beat_sigma_frames": 0.01},
    {"families": "", "families_test": ""},  # audio only
    {"genres_test": ""},
    {"genres_test": "groove:2"},
    {"retrieval_distractors": 63},
    {"families_test": "walk:61"},
    {"frames": 512, "max_audio_len": 512, "max_context": 1024},
    {"z_prob": 0.0},  # no z-injection while training
])
def test_values_at_the_edges_of_their_ranges_load(tmp_path, values):
    cfg = _load(tmp_path, values)
    assert all(getattr(cfg, key) == value for key, value in values.items())


@pytest.mark.parametrize("key, spec, fault", [
    ("families", "walk:-5,wave:2,jump:2,turn:2", "negative count in 'walk:-5'"),
    ("genres_test", "sway:2,groove:-1", "negative count in 'groove:-1'"),
    ("families", "walk:2,walk:7", "names 'walk' more than once"),
    ("genres", "sway:1,pulse:1,sway:0", "names 'sway' more than once"),
    ("families_test", "walk:40, walk:40", "names 'walk' more than once"),
])
def test_a_negative_or_repeated_count_raises_naming_the_spec(tmp_path, key, spec, fault):
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, {key: spec})
    assert fault in str(info.value) and repr(spec) in str(info.value)


def test_a_zero_count_writes_none(tmp_path):
    cfg = _load(tmp_path, {"families": "walk:0,wave:3", "genres": "sway:0,pulse"})
    families, _, genres, _ = synth_counts(cfg)
    assert families == {"wave": 3} and genres == {"pulse": 1}


def test_longest_context_may_fill_max_context(tmp_path):
    assert _load(tmp_path, {"max_context": 94}).max_context == 94


def test_audio_condition_rows_are_counted_at_the_token_rate(tmp_path):
    # glob + ceil(401 / 4) = 101 audio rows (more than 77 text rows) + 16 motion rows
    values = {"max_audio_len": 401}
    assert _load(tmp_path, {**values, "max_context": 118}).max_context == 118
    with pytest.raises(ConfigError, match=r"longest context \(118: "):
        _load(tmp_path, {**values, "max_context": 117})


def test_the_frame_width_is_the_synthetic_skeletons(tmp_path):
    # synth writes only the 8-joint skeleton, so no key can set another width
    assert RunConfig().frame_dim == 3 * len(JOINT_NAMES) == 24
    with pytest.raises(ConfigError, match="unknown config keys"):
        _load(tmp_path, {"joints": 10})


def test_a_config_that_names_the_removed_adversarial_weight_is_rejected(tmp_path):
    # configs written before the discriminator was removed carry beta_adv 0.0
    with pytest.raises(ConfigError, match=r"^unknown config keys: \['beta_adv'\]$"):
        _load(tmp_path, {"beta_adv": 0.0})


@pytest.mark.parametrize("values, longest", [
    ({}, 15),
    ({"compose_fraction": 0.0}, 8),
    ({"frames": 8}, 8),  # clips under 16 frames hold one action
    ({"families": "walk:4", "families_test": "jump:61"}, 11),
    ({"families": "walk:4", "families_test": "", "compose_fraction": 0.0}, 5),
    ({"families": "", "families_test": "", "max_text_len": 1}, 0),
])
def test_max_text_len_may_equal_the_longest_sentence(tmp_path, values, longest):
    assert longest_sentence(_load(tmp_path, values)) == longest
    if longest:
        assert _load(tmp_path, {**values, "max_text_len": longest}).max_text_len == longest
        with pytest.raises(ConfigError, match=f"sentences of {longest} tokens"):
            _load(tmp_path, {**values, "max_text_len": longest - 1})
