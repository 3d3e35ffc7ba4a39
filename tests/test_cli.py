"""End to end through `cli.main` at a tiny config: every step of a run, a
byte-identical re-run with the same seed, and the exit code of each kind of
failure."""

import json
import os
import shutil
import warnings

import pytest

from ude.cli import main

SEED = 5


def _cli(*argv) -> int:
    return main([str(a) for a in argv])


def _run_sequence(root, config) -> dict:
    """synth -> train all -> generate (text/vq, audio/dmd with z) ->
    transition -> eval in `root`; returns every file written, by path."""
    data, ckpt, gen = root / "data", root / "ckpt", root / "gen"
    gen.mkdir()
    common = ["--config", config, "--seed", SEED]
    # the first audio sample of the test split at the tiny config
    features = data / "conds" / "audio_test_00020.udef"
    steps = [
        ["synth", *common, "--out", data],
        ["train", *common, "--stage", "all", "--data", data, "--out", ckpt,
         "--epochs", 1],
        ["generate", *common, "--ckpt", ckpt, "--modality", "text",
         "--prompt", "a person walks forward", "--decoder", "vq", "--frames", 32,
         "--out", gen / "text.udem"],
        ["generate", *common, "--ckpt", ckpt, "--modality", "audio",
         "--features", features, "--decoder", "dmd", "--z", "on", "--frames", 32,
         "--out", gen / "audio.udem", "--plot", gen / "audio.svg"],
        ["transition", *common, "--ckpt", ckpt, "--prompt", "a person waves",
         "--features", features, "--decoder", "dmd", "--primitive-len", 2,
         "--text-frames", 16, "--audio-frames", 16, "--out", gen / "trans.udem"],
        ["eval", *common, "--ckpt", ckpt, "--data", data, "--out", root / "eval.json"],
    ]
    for argv in steps:
        assert _cli(*argv) == 0, argv[0]
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


@pytest.fixture(scope="module")
def config(tmp_path_factory, tiny_cfg):
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps(tiny_cfg.to_dict()))
    return path


@pytest.fixture(scope="module")
def first_run(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("run1")
    return root, _run_sequence(root, config)


def _ckpt_copy(first_run, tmp_path):
    shutil.copytree(first_run[0] / "ckpt", tmp_path / "ckpt")
    return tmp_path / "ckpt"


def _generate_text(config, ckpt, out):
    return _cli("generate", "--config", config, "--ckpt", ckpt, "--modality", "text",
                "--prompt", "a person walks", "--decoder", "vq", "--out", out)


def test_every_step_writes_its_artifacts(first_run):
    files = first_run[1]
    for name in ("ckpt/mq.ckpt", "ckpt/utt.ckpt", "ckpt/dmd.ckpt", "ckpt/retrieval.ckpt",
                 "ckpt/mq_loss.csv", "ckpt/utt_loss.csv", "ckpt/dmd_loss.csv",
                 "ckpt/retrieval_loss.csv", "ckpt/vocab.txt", "gen/text.udem",
                 "gen/text.udem.meta.json", "gen/audio.udem", "gen/audio.svg",
                 "gen/trans.udem.meta.json", "eval.json"):
        assert name in files
    assert not any(os.path.basename(name) == "bundle.json" for name in files)
    report = json.loads(files["eval.json"])
    assert set(report["metrics"]) == {"text", "audio"}


def test_same_seed_rerun_is_byte_identical(first_run, config, tmp_path):
    files = first_run[1]
    again = _run_sequence(tmp_path, config)
    assert sorted(again) == sorted(files)
    assert [name for name in files if again[name] != files[name]] == []


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frames": 16, "no_such_key": 1}))
    assert _cli("synth", "--config", bad, "--out", tmp_path / "data") == 2


def test_text_generation_without_prompt_exits_2(first_run, config, tmp_path):
    assert _cli("generate", "--config", config, "--ckpt", first_run[0] / "ckpt",
                "--modality", "text", "--out", tmp_path / "m.udem") == 2


def test_generate_on_empty_checkpoint_dir_exits_3(config, tmp_path):
    (tmp_path / "empty").mkdir()
    assert _generate_text(config, tmp_path / "empty", tmp_path / "m.udem") == 3


def test_generate_after_retraining_mq_exits_3(first_run, config, tmp_path):
    ckpt = _ckpt_copy(first_run, tmp_path)
    assert _cli("train", "--config", config, "--seed", SEED + 1, "--stage", "mq",
                "--data", first_run[0] / "data", "--out", ckpt, "--epochs", 1) == 0
    assert _generate_text(config, ckpt, tmp_path / "m.udem") == 3


def test_generate_without_vocabulary_exits_3(first_run, config, tmp_path):
    ckpt = _ckpt_copy(first_run, tmp_path)
    os.remove(ckpt / "vocab.txt")
    assert _generate_text(config, ckpt, tmp_path / "m.udem") == 3


def _drop_a_float(path):
    """Rewrite a checkpoint with one float missing from its first parameter."""
    header, body = path.read_text().split("\n", 1)
    blob = json.loads(body)
    first = next(iter(next(iter(blob["sections"].values()))["params"].values()))
    first["data"].pop()
    path.write_text(header + "\n" + json.dumps(blob) + "\n")


NOT_UTF8 = b"\xff\xfe\x00\x81" * 64

# (file that is corrupted, what it gets: text, bytes or a rewrite)
CORRUPT_INPUTS = {
    "feature-header": ("features", "NOT A FEATURE FILE\n1.0 2.0\n"),
    "feature-value": ("features", "UDEFEAT v1 rate=16.0 dims=2\n1.0 abc\n"),
    "feature-binary": ("features", NOT_UTF8),
    "ckpt-binary": ("utt.ckpt", NOT_UTF8),
    "ckpt-body-a-list": ("utt.ckpt", "UDECKPT v1 module=utt\n[1,2]\n"),
    "ckpt-parameter-short": ("utt.ckpt", _drop_a_float),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_INPUTS))
def test_corrupt_input_file_exits_4(first_run, config, tmp_path, case):
    target, content = CORRUPT_INPUTS[case]
    if target == "features":
        ckpt, path = first_run[0] / "ckpt", tmp_path / "bad.udef"
        condition = ["--modality", "audio", "--features", path]
    else:
        ckpt = _ckpt_copy(first_run, tmp_path)
        path = ckpt / target
        condition = ["--modality", "text", "--prompt", "a person walks"]
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        content(path)
    assert _cli("generate", "--config", config, "--ckpt", ckpt, *condition,
                "--decoder", "vq", "--out", tmp_path / "m.udem") == 4


def test_zero_epochs_trains_no_stage(first_run, config, tmp_path):
    assert _cli("train", "--config", config, "--stage", "all", "--data",
                first_run[0] / "data", "--out", tmp_path, "--epochs", 0) == 0
    for stage in ("mq", "utt", "dmd", "retrieval"):
        lines = (tmp_path / f"{stage}_loss.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("epoch,")


def test_negative_epochs_exits_2(first_run, config, tmp_path):
    assert _cli("train", "--config", config, "--stage", "mq", "--data",
                first_run[0] / "data", "--out", tmp_path, "--epochs", -1) == 2


@pytest.mark.parametrize("count", [0, -1])
def test_eval_with_fewer_than_one_sample_per_input_exits_2(first_run, config, tmp_path,
                                                           count):
    root = first_run[0]
    out = tmp_path / "eval.json"
    assert _cli("eval", "--config", config, "--ckpt", root / "ckpt", "--data",
                root / "data", "--samples-per-input", count, "--out", out) == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_exits_5(first_run, tiny_cfg, tmp_path, capsys):
    config = tmp_path / "hot.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), "lr": 1e300}))
    assert _cli("train", "--config", config, "--stage", "mq", "--data",
                first_run[0] / "data", "--out", tmp_path / "ckpt", "--epochs", 2) == 5
    assert "numerical failure" in capsys.readouterr().err


def test_diverging_training_prints_no_numpy_warning(first_run, tiny_cfg, tmp_path):
    config = tmp_path / "hot.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), "lr": 1e300}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _cli("train", "--config", config, "--stage", "mq", "--data",
                    first_run[0] / "data", "--out", tmp_path / "ckpt", "--epochs", 2) == 5
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_more_frames_than_the_context_holds_exits_2(first_run, config, tmp_path):
    out = tmp_path / "m.udem"
    assert _cli("generate", "--config", config, "--ckpt", first_run[0] / "ckpt",
                "--modality", "text", "--prompt", "a person walks", "--decoder", "vq",
                "--frames", 2048, "--out", out) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, request_args", [
    ("generate", ["--frames", 0]),
    ("generate", ["--frames", -4]),
    ("generate", ["--frames", 516, "--decoder", "dmd"]),  # 129 tokens, the dmd takes 128
    ("transition", ["--text-frames", 0]),
    ("transition", ["--primitive-len", -1]),
    ("transition", ["--text-frames", 4]),  # one text token, the primitive takes 8
    ("transition", ["--audio-frames", 500, "--decoder", "dmd"]),
], ids=["zero-frames", "negative-frames", "dmd-too-long", "zero-text-frames",
        "negative-primitive", "primitive-longer-than-text", "dmd-transition-too-long"])
def test_request_that_cannot_be_served_exits_2_and_writes_nothing(first_run, config,
                                                                  tmp_path, command,
                                                                  request_args):
    root = first_run[0]
    features = ["--features", root / "data" / "conds" / "audio_test_00020.udef"]
    condition = (["--modality", "text", "--prompt", "a person walks"]
                 if command == "generate" else ["--prompt", "a person waves", *features])
    out = tmp_path / "out"
    assert _cli(command, "--config", config, "--ckpt", root / "ckpt", *condition,
                *request_args, "--out", out / "m.udem") == 2
    assert not out.exists()


def test_eval_with_the_diffusion_decoder(first_run, config, tmp_path):
    root = first_run[0]
    out = tmp_path / "eval.json"
    assert _cli("eval", "--config", config, "--seed", SEED, "--ckpt", root / "ckpt",
                "--data", root / "data", "--decoder", "dmd", "--out", out) == 0
    assert json.loads(out.read_text())["decoder"] == "dmd"


@pytest.mark.parametrize("modality, decoder", [("text", "dmd"), ("audio", "vq")])
def test_either_decoder_serves_either_modality(first_run, config, tmp_path, modality,
                                               decoder):
    root = first_run[0]
    condition = (["--prompt", "a person jumps"] if modality == "text" else
                 ["--features", root / "data" / "conds" / "audio_test_00020.udef"])
    out = tmp_path / "m.udem"
    assert _cli("generate", "--config", config, "--ckpt", root / "ckpt", "--modality",
                modality, *condition, "--decoder", decoder, "--frames", 16,
                "--out", out) == 0
    assert out.read_text().startswith("UDEMOTION v1")


def test_outputs_go_into_directories_that_do_not_exist_yet(first_run, config, tmp_path):
    root = first_run[0]
    out, plot = tmp_path / "new" / "m.udem", tmp_path / "plots" / "m.svg"
    assert _generate_text(config, root / "ckpt", out) == 0
    assert _cli("generate", "--config", config, "--ckpt", root / "ckpt", "--modality",
                "text", "--prompt", "a person walks", "--decoder", "vq",
                "--out", tmp_path / "gen" / "m.udem", "--plot", plot) == 0
    assert _cli("transition", "--config", config, "--ckpt", root / "ckpt", "--prompt",
                "a person waves", "--features",
                root / "data" / "conds" / "audio_test_00020.udef", "--primitive-len", 2,
                "--text-frames", 16, "--audio-frames", 16,
                "--out", tmp_path / "trans" / "t.udem") == 0
    assert out.exists() and plot.exists() and (tmp_path / "trans" / "t.udem").exists()
