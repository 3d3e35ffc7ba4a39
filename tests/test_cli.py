"""End to end through `cli.main` at a tiny config: every step of a run, a
byte-identical re-run with the same seed, and the exit code of each kind of
failure."""

import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ude import checkpoint, cli, pipeline
from ude.cli import main
from ude.config import load_config
from ude.dataset import load_samples
from ude.errors import ConfigError, DataError, NumericsError, StageError

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
                 "ckpt/retrieval_loss.csv", "gen/text.udem",
                 "gen/text.udem.meta.json", "gen/audio.udem", "gen/audio.svg",
                 "gen/trans.udem.meta.json", "eval.json"):
        assert name in files
    assert not any(os.path.basename(name) == "bundle.json" for name in files)
    # the vocabulary is a constant of the code: neither data/ nor ckpt/ carries it
    assert not any(os.path.basename(name) == "vocab.txt" for name in files)
    report = json.loads(files["eval.json"])
    assert set(report["metrics"]) == {"text", "audio"}
    # among the tiny config's 4 retrieval candidates every text is in the top 5
    assert "top1" in report["metrics"]["text"] and "top5" not in report["metrics"]["text"]


@pytest.mark.parametrize("distractors", [4, 5])
def test_top5_is_reported_only_when_it_can_miss(first_run, tiny_cfg, distractors):
    cfg = replace(tiny_cfg, retrieval_distractors=distractors)
    text = pipeline.evaluate(cfg, first_run[0] / "data", first_run[0] / "ckpt")["metrics"]["text"]
    assert "top1" in text
    assert ("top5" in text) == (distractors >= 5)


def test_same_seed_rerun_is_byte_identical(first_run, config, tmp_path):
    files = first_run[1]
    again = _run_sequence(tmp_path, config)
    assert sorted(again) == sorted(files)
    assert [name for name in files if again[name] != files[name]] == []


def test_the_cli_imports_numpy_and_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", "import sys, ude.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         env=env, check=True, capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


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


def test_a_dmd_checkpoint_left_stale_by_retraining_is_still_caught(first_run, config,
                                                                  tmp_path, capsys):
    # mq, then utt, are retrained; dmd.ckpt still records the old mq hash
    ckpt = _ckpt_copy(first_run, tmp_path)
    for stage in ("mq", "utt"):
        assert _cli("train", "--config", config, "--seed", SEED + 1, "--stage", stage,
                    "--data", first_run[0] / "data", "--out", ckpt, "--epochs", 1) == 0
    assert pipeline.load_generation_stack(ckpt, "vq")["dmd"] is None
    with pytest.raises(StageError, match="stage dmd was trained against a different mq"):
        pipeline.load_generation_stack(ckpt, "dmd")
    capsys.readouterr()
    assert _cli("generate", "--config", config, "--ckpt", ckpt, "--modality", "text",
                "--prompt", "a person walks", "--decoder", "dmd",
                "--out", tmp_path / "m.udem") == 3
    assert "stage dmd was trained against a different mq" in capsys.readouterr().err


def _rewrite_metadata(change):
    """A corruption that passes a checkpoint's metadata object through
    `change` and keeps its header and payload."""
    def rewrite(path):
        header, line, payload = path.read_bytes().split(b"\n", 2)
        meta = json.loads(line)
        change(meta)
        path.write_bytes(header + b"\n" + json.dumps(meta).encode() + b"\n" + payload)
    return rewrite


def _end_one_past_payload(meta):
    params = list(meta["params"].values())
    total = sum(math.prod(p["shape"]) for p in params)
    params[0]["offset"] = total - math.prod(params[0]["shape"]) + 1


def _as_v2(path):
    """The layout before a stage held one model: the MATE and the UTT each a
    named section of parameters over the same payload, under a v2 header."""
    header, line, payload = path.read_bytes().split(b"\n", 2)
    assert header == b"UDECKPT v3 module=utt"
    meta = json.loads(line)
    params = meta.pop("params")
    meta["sections"] = {
        "mate": {"params": {name.removeprefix("mate."): entry for name, entry in params.items()
                            if name.startswith("mate.")}},
        "utt": {"params": {name: entry for name, entry in params.items()
                           if not name.startswith("mate.")}}}
    path.write_bytes(b"UDECKPT v2 module=utt\n" + json.dumps(meta).encode() + b"\n" + payload)


NOT_UTF8 = b"\xff\xfe\x00\x81" * 64

# (file that is corrupted, what it gets: text, bytes or a rewrite)
CORRUPT_INPUTS = {
    "feature-header": ("features", "NOT A FEATURE FILE\n1.0 2.0\n"),
    "feature-value": ("features", "UDEFEAT v1 rate=16.0 dims=2\n1.0 abc\n"),
    "feature-binary": ("features", NOT_UTF8),
    # a full row of feature_dim (16) values, so that the width check passes
    "feature-nan": ("features", "UDEFEAT v1 rate=16.0 dims=16\n" + "0.5 " * 15 + "nan\n"),
    "feature-rate-infinite": ("features", "UDEFEAT v1 rate=1e999 dims=16\n" + "0.5 " * 16 + "\n"),
    # a finite rate that is not the config's fps (16)
    "feature-rate-mismatch": ("features", "UDEFEAT v1 rate=0.0001 dims=16\n" + "0.5 " * 16 + "\n"),
    "feature-rate-garbled": ("features", "UDEFEAT v1 rate=1e- dims=16\n" + "0.5 " * 16 + "\n"),
    "ckpt-binary": ("utt.ckpt", NOT_UTF8),
    "ckpt-v1": ("utt.ckpt", 'UDECKPT v1 module=utt\n{"stage": "utt", "sections": {}}\n'),
    "ckpt-v2": ("utt.ckpt", _as_v2),
    "ckpt-body-a-list": ("utt.ckpt", "UDECKPT v3 module=utt\n[1,2]\n"),
    # the loader finds the two line ends: neither, or only the header's
    "ckpt-header-only": ("utt.ckpt", "UDECKPT v3 module=utt"),
    "ckpt-ends-inside-metadata": ("utt.ckpt", 'UDECKPT v3 module=utt\n{"stage": "utt"}'),
    "ckpt-metadata-not-utf8": ("utt.ckpt", b"UDECKPT v3 module=utt\n" + NOT_UTF8 + b"\n"),
    "ckpt-no-params": ("utt.ckpt", _rewrite_metadata(lambda m: m.pop("params"))),
    "ckpt-params-a-list": ("utt.ckpt", _rewrite_metadata(
        lambda m: m.update(params=list(m["params"].values())))),
    # the payload still fits, but the model has no parameter of that name
    "ckpt-a-parameter-renamed": ("utt.ckpt", _rewrite_metadata(
        lambda m: m["params"].update(renamed=m["params"].pop("out_proj.b")))),
    # the recorded run config describes the models, so it gets a config file's checks
    "ckpt-no-run-config": ("utt.ckpt", _rewrite_metadata(lambda m: m.pop("config"))),
    "ckpt-run-config-a-list": ("utt.ckpt", _rewrite_metadata(
        lambda m: m.update(config=list(m["config"].values())))),
    "ckpt-run-config-count-below-minimum": ("mq.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(code_count=-1))),
    "ckpt-run-config-heads-not-dividing-embed-dim": ("utt.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(utt_heads=3))),
    "ckpt-run-config-unknown-key": ("utt.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(no_such_key=1))),
    "ckpt-run-config-string-for-int": ("mq.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(code_dim="many"))),
    "ckpt-run-config-negative-lr": ("utt.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(lr=-1.0))),
    # every checkpoint written while the utt stage had an adversarial weight
    # records it; nothing reads that key any more
    "ckpt-run-config-beta-adv": ("mq.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(beta_adv=0.0))),
    # a valid run config of another architecture than the parameters'
    "ckpt-run-config-another-codebook": ("mq.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(code_count=9))),
    "ckpt-run-config-another-depth": ("utt.ckpt", _rewrite_metadata(
        lambda m: m["config"].update(mate_layers=2))),
    "ckpt-deps-a-list": ("utt.ckpt", _rewrite_metadata(
        lambda m: m.update(deps=list(m["deps"].values())))),
    "ckpt-buffers-a-list": ("mq.ckpt", _rewrite_metadata(
        lambda m: m.update(buffers=list(m["buffers"].values())))),
    "ckpt-buffer-not-numbers": ("mq.ckpt", _rewrite_metadata(
        lambda m: m["buffers"].update(center="abc"))),
    "ckpt-buffer-wrong-shape": ("mq.ckpt", _rewrite_metadata(
        lambda m: m["buffers"].update(center=[0.0]))),
    "ckpt-parameter-short": ("utt.ckpt", lambda path: path.write_bytes(path.read_bytes()[:-8])),
    "ckpt-trailing-bytes": ("utt.ckpt",
                            lambda path: path.write_bytes(path.read_bytes() + b"\0" * 8)),
    "ckpt-offset-past-end": ("utt.ckpt", _rewrite_metadata(_end_one_past_payload)),
}
# what the error message must say, where it matters
CORRUPT_MESSAGES = {"ckpt-v1": ("old v1 format", "retrain stage utt"),
                    "ckpt-v2": ("utt.ckpt: ", "old v2 format", "retrain stage utt"),
                    "feature-rate-infinite": ("finite",),
                    "ckpt-no-params": ("utt.ckpt: ", "'params' is not an object"),
                    "ckpt-params-a-list": ("utt.ckpt: ", "'params' is not an object"),
                    "ckpt-a-parameter-renamed": (
                        "utt.ckpt: the parameters do not fit", "renamed", "retrain stage utt"),
                    "ckpt-header-only": ("utt.ckpt: checkpoint ends inside its metadata",),
                    "ckpt-ends-inside-metadata": (
                        "utt.ckpt: checkpoint ends inside its metadata",),
                    "feature-rate-mismatch": ("fps 16.0",),
                    "ckpt-no-run-config": ("utt.ckpt: ", "retrain stage utt"),
                    "ckpt-run-config-a-list": ("utt.ckpt: ", "retrain stage utt"),
                    "ckpt-run-config-count-below-minimum": (
                        "mq.ckpt: ", "'code_count' must be at least 1", "retrain stage mq"),
                    "ckpt-run-config-heads-not-dividing-embed-dim": (
                        "utt.ckpt: ", "utt_heads 3", "retrain stage utt"),
                    "ckpt-run-config-unknown-key": (
                        "utt.ckpt: ", "no_such_key", "retrain stage utt"),
                    "ckpt-run-config-string-for-int": (
                        "mq.ckpt: ", "'code_dim' must be int", "retrain stage mq"),
                    "ckpt-run-config-negative-lr": (
                        "utt.ckpt: ", "'lr' must be at least 0", "retrain stage utt"),
                    "ckpt-run-config-beta-adv": (
                        "mq.ckpt: ", "unknown config keys: ['beta_adv']", "retrain stage mq"),
                    "ckpt-run-config-another-codebook": (
                        "mq.ckpt: the parameters do not fit", "codebook.table",
                        "retrain stage mq"),
                    "ckpt-run-config-another-depth": (
                        "utt.ckpt: the parameters do not fit", "mate.encoder.layers.1",
                        "retrain stage utt")}


@pytest.mark.parametrize("case", sorted(CORRUPT_INPUTS))
def test_corrupt_input_file_exits_4(first_run, config, tmp_path, capsys, case):
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
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "config file" not in err
    for part in CORRUPT_MESSAGES.get(case, ()):
        assert part in err


def _first_line_as(replace):
    return lambda line: json.dumps(replace(json.loads(line)))


CORRUPT_MANIFEST_LINES = {
    "not-json": lambda line: line[:-1],
    "a-list": lambda line: "[1, 2]",
    "motion-a-number": _first_line_as(lambda obj: {**obj, "motion": 5}),
    "no-split": _first_line_as(lambda obj: {k: v for k, v in obj.items() if k != "split"}),
    "unknown-modality": _first_line_as(lambda obj: {**obj, "modality": "video"}),
    "misspelled-split": _first_line_as(lambda obj: {**obj, "split": "Train"}),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_MANIFEST_LINES))
def test_corrupt_manifest_line_exits_4(first_run, config, tmp_path, capsys, case):
    data = tmp_path / "data"
    shutil.copytree(first_run[0] / "data", data)
    lines = (data / "manifest.jsonl").read_text().splitlines()
    lines[0] = CORRUPT_MANIFEST_LINES[case](lines[0])
    (data / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    assert _cli("train", "--config", config, "--stage", "mq", "--data", data,
                "--out", tmp_path / "ckpt", "--epochs", 1) == 4
    assert "line 1" in capsys.readouterr().err


def test_an_empty_train_split_exits_4_before_training(first_run, config, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(first_run[0] / "data", data)
    lines = [json.loads(line) for line in (data / "manifest.jsonl").read_text().splitlines()]
    (data / "manifest.jsonl").write_text(
        "".join(json.dumps({**obj, "split": "test"}) + "\n" for obj in lines))
    assert _cli("train", "--config", config, "--stage", "mq", "--data", data,
                "--out", tmp_path / "ckpt", "--epochs", 1) == 4
    assert "no train samples" in capsys.readouterr().err
    assert not (tmp_path / "ckpt" / "mq.ckpt").exists()


def _one_feature_row_per_condition_row(params, cfg):
    # before audio was embedded at the token rate: [feature_dim, embed_dim]
    params["mate.audio_proj.w"] = params["mate.audio_proj.w"][:cfg.feature_dim]
    return "mate.audio_proj.w"


def _a_head_over_the_codes_bos_and_eos(params, cfg):
    # before the head predicted the codebook ids alone: K + 2 table rows and logits
    params["token_table.table"] = np.pad(params["token_table.table"], ((0, 1), (0, 0)))
    params["out_proj.w"] = np.pad(params["out_proj.w"], ((0, 0), (0, 2)))
    params["out_proj.b"] = np.pad(params["out_proj.b"], (0, 2))
    return "token_table.table"


@pytest.mark.parametrize("older", [_one_feature_row_per_condition_row,
                                   _a_head_over_the_codes_bos_and_eos],
                         ids=["audio-projection", "head"])
@pytest.mark.parametrize("command", ["generate", "eval"])
def test_an_utt_checkpoint_of_an_older_format_exits_4(first_run, config, tiny_cfg, tmp_path,
                                                       capsys, command, older):
    root, ckpt = first_run[0], _ckpt_copy(first_run, tmp_path)
    body = checkpoint.load_checkpoint(ckpt / "utt.ckpt")
    params = dict(body["params"])
    changed = older(params, tiny_cfg)
    checkpoint.save_checkpoint(ckpt / "utt.ckpt", "utt", params, body["config"], body["deps"])
    request = {"generate": ["--modality", "audio", "--features",
                            root / "data" / "conds" / "audio_test_00020.udef"],
               "eval": ["--data", root / "data"]}[command]
    out = tmp_path / "out"
    assert _cli(command, "--config", config, "--ckpt", ckpt, *request, "--decoder", "vq",
                "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and changed in err
    assert "retrain stage utt" in err
    assert not out.exists()


def test_generate_pads_feature_rows_to_a_whole_token(first_run, config, tmp_path):
    # 6 feature rows condition like the same 6 rows and 2 zero rows
    root = first_run[0]
    lines = (root / "data" / "conds" / "audio_test_00020.udef").read_text().splitlines()
    header, rows = lines[0], lines[1:7]
    zero = " ".join(["0.0"] * len(rows[0].split()))
    outs = []
    for name, body in (("six", rows), ("eight", rows + [zero, zero])):
        features, out = tmp_path / f"{name}.udef", tmp_path / f"{name}.udem"
        features.write_text("\n".join([header, *body]) + "\n")
        assert _cli("generate", "--config", config, "--ckpt", root / "ckpt", "--modality",
                    "audio", "--features", features, "--decoder", "vq", "--frames", 16,
                    "--out", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_transition_with_features_at_another_rate_exits_4(first_run, config, tmp_path):
    root = first_run[0]
    text = (root / "data" / "conds" / "audio_test_00020.udef").read_text()
    features = tmp_path / "f.udef"
    features.write_text(text.replace("rate=16.0 ", "rate=20.0 ", 1))
    assert _cli("transition", "--config", config, "--ckpt", root / "ckpt", "--prompt",
                "a person waves", "--features", features, "--primitive-len", 2,
                "--text-frames", 16, "--audio-frames", 16, "--out", tmp_path / "t.udem") == 4
    assert not (tmp_path / "t.udem").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("changed", ["config-fps", "feature-rate"])
def test_data_at_another_rate_than_the_config_exits_4(first_run, config, tiny_cfg, tmp_path,
                                                      capsys, command, changed):
    # the tiny data is synthesized at the default 16 fps
    root, data = first_run[0], first_run[0] / "data"
    if changed == "config-fps":
        config = tmp_path / "fast.json"
        config.write_text(json.dumps({**tiny_cfg.to_dict(), "fps": 20.0}))
        message = "motion rate 16.0 is not the config's fps 20.0"
    else:
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        for path in (data / "conds").glob("*.udef"):
            path.write_text(path.read_text().replace("rate=16.0 ", "rate=20.0 ", 1))
        message = "features rate 20.0 is not the config's fps 16.0"
    if command == "train":
        request, out = ["--stage", "mq", "--epochs", 1], tmp_path / "ckpt"
        written = out / "mq.ckpt"
    else:
        request, out = ["--ckpt", root / "ckpt"], tmp_path / "eval.json"
        written = out
    assert _cli(command, "--config", config, "--data", data, *request, "--out", out) == 4
    assert message in capsys.readouterr().err
    assert not written.exists()


# (command, config change, exit code, message) of data or requests beyond MATE's
# limits or the retrieval metric's needs, each found before any model is built or
# sampled; the tiny config synthesizes 16-frame clips, and its grammar can write
# sentences of up to 15 tokens
BEYOND_LIMITS = {
    "clips-longer-than-max-audio-len": ("train", {"max_audio_len": 8}, 2,
                                        "max_audio_len 8 is below frames 16"),
    "data-clips-longer-than-max-audio-len": ("train", {"frames": 8, "max_audio_len": 8}, 4,
                                             "16 feature rows exceed max_audio_len 8"),
    "sentences-longer-than-max-text-len": ("train", {"max_text_len": 14}, 2,
                                           "synth can write sentences of 15 tokens, more "
                                           "than max_text_len 14"),
    # walk phrases alone fit 5 tokens, but the data holds wave and turn sentences
    "data-sentences-longer-than-max-text-len": (
        "train", {"families": "walk:2", "families_test": "walk:4", "compose_fraction": 0.0,
                  "max_text_len": 5}, 4, "tokens exceeds max_text_len 5"),
    "prompt-longer-than-max-text-len": ("generate", {}, 2,
                                        "a prompt of 78 tokens exceeds max_text_len 77"),
    "too-few-texts-for-the-distractors": ("eval", {"retrieval_distractors": 8}, 2,
                                          "families_test gives the test split 8 text "
                                          "samples; eval needs none or more than "
                                          "retrieval_distractors 8"),
}


@pytest.mark.parametrize("case", sorted(BEYOND_LIMITS))
def test_inputs_beyond_the_limits_exit_before_any_work(first_run, tiny_cfg, tmp_path,
                                                       capsys, case):
    command, change, code, message = BEYOND_LIMITS[case]
    root, out = first_run[0], tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), **change}))
    request = {
        "train": ["--stage", "all", "--data", root / "data", "--epochs", 1, "--out", out],
        "generate": ["--ckpt", root / "ckpt", "--modality", "text", "--prompt",
                     " ".join(["walks"] * 78), "--decoder", "vq", "--out", out / "m.udem"],
        # no checkpoints: the split is checked before any model is loaded
        "eval": ["--ckpt", tmp_path / "no-ckpt", "--data", root / "data",
                 "--out", out / "eval.json"],
    }[command]
    assert _cli(command, "--config", config, *request) == code
    assert message in capsys.readouterr().err
    # no checkpoint, motion or report
    assert [path for path in out.rglob("*") if path.is_file()] == []


def test_eval_of_a_split_with_repeated_sentences_exits_4(first_run, config, tmp_path, capsys):
    # the config's 8 test texts pass load_config against 3 distractors, but
    # the sentences themselves repeat: eval's distinct-text check is the backstop
    data, out = tmp_path / "data", tmp_path / "eval.json"
    shutil.copytree(first_run[0] / "data", data)
    texts = sorted((data / "conds").glob("text_test_*.txt"))
    assert len(texts) == 8
    for path in texts:
        path.write_text("a person walks forward\n")
    assert _cli("eval", "--config", config, "--ckpt", first_run[0] / "ckpt", "--data", data,
                "--out", out) == 4
    assert "need at least 4 distinct texts, have 1" in capsys.readouterr().err
    assert not out.exists()


def test_sentences_beyond_max_text_len_exit_before_synth_writes(tiny_cfg, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), "max_text_len": 14}))
    assert _cli("synth", "--config", config, "--out", tmp_path / "data") == 2
    assert "synth can write sentences of 15 tokens" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("error, code, label", [
    (ConfigError("boom"), 2, "config error"),
    (StageError("boom"), 3, "stage error"),
    (DataError("boom"), 4, "data error"),
    (OSError("boom"), 4, "data error"),
    (NumericsError("boom"), 5, "numerical failure"),
], ids=["config", "stage", "data", "os", "numerics"])
def test_each_error_class_exits_with_its_code_and_label(monkeypatch, capsys, tmp_path,
                                                        error, code, label):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert main(["synth", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{label}: boom\n"


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
@pytest.mark.parametrize("stage", ["mq", "utt", "dmd", "retrieval"])
def test_diverging_training_exits_5(first_run, tiny_cfg, tmp_path, capsys, stage):
    config = tmp_path / "hot.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), "lr": 1e300}))
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    if stage in ("utt", "dmd"):  # both train against the first run's quantizer
        shutil.copy(first_run[0] / "ckpt" / "mq.ckpt", ckpt)
    assert _cli("train", "--config", config, "--stage", stage, "--data",
                first_run[0] / "data", "--out", ckpt, "--epochs", 2) == 5
    err = capsys.readouterr().err
    assert "numerical failure" in err and "at epoch" in err


def test_diverging_training_prints_no_numpy_warning(first_run, tiny_cfg, tmp_path):
    config = tmp_path / "hot.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), "lr": 1e300}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _cli("train", "--config", config, "--stage", "mq", "--data",
                    first_run[0] / "data", "--out", tmp_path / "ckpt", "--epochs", 2) == 5
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("decoder, message", [
    # which model's numbers overflow first depends on the trained weights:
    # here the retrieval encoder's engine ops
    ("vq", "the retrieval encoder failed (non-finite values produced by"),
    ("dmd", "the retrieval encoder failed (non-finite values produced by"),
])
def test_eval_of_a_diverged_model_is_a_numerical_failure(tiny_cfg, tmp_path, capsys, decoder,
                                                         message):
    # lr 1e30 trains to huge but finite weights: training passes every finite check
    config = tmp_path / "hot.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), "lr": 1e30}))
    common = ["--config", config, "--seed", 0]
    data, ckpt, out = tmp_path / "data", tmp_path / "ckpt", tmp_path / "eval.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _cli("synth", *common, "--out", data) == 0
        assert _cli("train", *common, "--stage", "all", "--data", data, "--out", ckpt,
                    "--epochs", 1) == 0
        capsys.readouterr()
        assert _cli("eval", *common, "--ckpt", ckpt, "--data", data, "--decoder", decoder,
                    "--out", out) == 5
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and message in err
    assert not out.exists()


def test_eval_of_motions_whose_features_overflow_is_a_numerical_failure(first_run, config,
                                                                        tmp_path, capsys,
                                                                        monkeypatch):
    load = pipeline.load_generation_stack

    def diverged(ckpt_dir, decoder="dmd"):  # finite vq frames of about 1e200 m
        stack = load(ckpt_dir, decoder)
        stack["mq"].dec3.kernel.data[...] *= 1e200
        return stack

    monkeypatch.setattr(pipeline, "load_generation_stack", diverged)
    capsys.readouterr()
    out = tmp_path / "eval.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _cli("eval", "--config", config, "--seed", 0, "--ckpt", first_run[0] / "ckpt",
                    "--data", first_run[0] / "data", "--decoder", "vq", "--out", out) == 5
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "the generated text motions have non-finite kinetic features" in err
    assert not out.exists()


def test_generate_names_the_model_that_failed(first_run, config, tmp_path, capsys, monkeypatch):
    load = pipeline.load_generation_stack

    def diverged(ckpt_dir, decoder="dmd"):  # one UTT weight at 1e308
        stack = load(ckpt_dir, decoder)
        stack["utt"].token_table.table.data[...] = 1e308
        return stack

    monkeypatch.setattr(pipeline, "load_generation_stack", diverged)
    capsys.readouterr()
    out = tmp_path / "g.udem"
    assert _generate_text(config, first_run[0] / "ckpt", out) == 5
    assert capsys.readouterr().err == (
        "numerical failure: the utt model failed (non-finite values produced by "
        "layer_norm); retrain stage utt\n")
    assert not out.exists()


@pytest.mark.parametrize("key, bound, past", [
    ("fps", 1000.0, math.nextafter(1000.0, math.inf)),
    ("beat_sigma_frames", 0.01, math.nextafter(0.01, 0.0)),
])
def test_float_bounds_run_end_to_end_without_a_warning(tiny_cfg, tmp_path, capsys, key, bound,
                                                       past):
    config, beyond = tmp_path / "edge.json", tmp_path / "beyond.json"
    config.write_text(json.dumps({**tiny_cfg.to_dict(), key: bound}))
    beyond.write_text(json.dumps({**tiny_cfg.to_dict(), key: past}))
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _cli("synth", "--config", config, "--out", data) == 0
        assert _cli("train", "--config", config, "--stage", "all", "--data", data,
                    "--out", ckpt, "--epochs", 1) == 0
        assert _cli("eval", "--config", config, "--ckpt", ckpt, "--data", data,
                    "--out", tmp_path / "eval.json") == 0
    capsys.readouterr()
    assert _cli("synth", "--config", beyond, "--out", tmp_path / "beyond") == 2
    assert f"config key {key!r} must be at" in capsys.readouterr().err
    assert not (tmp_path / "beyond").exists()


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


# count strings a mutation may give each split: one sample, none, other families
_SPLITS = {"families": ["walk:1", "", "jump:3,turn:1", "wave:4"],
           "families_test": ["walk:1", "", "turn:3", "walk:2,wave:2"],
           "genres": ["sway:1", "", "pulse:3"],
           "genres_test": ["groove:1", "", "sway:3,pulse:2"]}


def _mutations(tiny: dict):
    """One or two keys of the tiny config set to values around theirs and past
    the edges of their ranges."""
    def values(key):
        v = tiny[key]
        if isinstance(v, str):
            return st.sampled_from(_SPLITS[key])
        if isinstance(v, float):
            return st.sampled_from([-1.0, 0.0, 1e-9, 0.25, 0.5, 1.0, 2.0, v / 4, v * 4, 1e6])
        return st.sampled_from([-1, 0, 1, 2, 3, v // 2, v - 1, v + 1, 2 * v])

    keys = st.lists(st.sampled_from(sorted(set(tiny) - {"seed"})), min_size=1, max_size=2,
                    unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: values(k) for k in ks}))


@settings(max_examples=25)
@given(data=st.data())
def test_a_config_that_loads_runs_end_to_end(tiny_cfg, data):
    """synth, train all and eval with either decoder exit 0, or 5 on divergence,
    under every config that load_config accepts. Eval's exit 4 for a test split
    with too few distinct texts for the retrieval distractors is the one
    exception: load_config rejects too few text samples, but synth draws the
    sentences, so repeats can leave too few distinct ones, and eval exits
    before it samples anything (see
    test_eval_of_a_split_with_repeated_sentences_exits_4)."""
    change = data.draw(_mutations(tiny_cfg.to_dict()), label="change")
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        config = root / "config.json"
        config.write_text(json.dumps({**tiny_cfg.to_dict(), **change}))
        try:
            cfg = load_config(config)
        except ConfigError:
            reject()
        common = ["--config", config, "--seed", SEED]
        data_dir, ckpt = root / "data", root / "ckpt"
        assert _cli("synth", *common, "--out", data_dir) == 0
        code = _cli("train", *common, "--stage", "all", "--data", data_dir, "--out", ckpt,
                    "--epochs", 1)
        assert code in (0, 5)
        for decoder in ("vq", "dmd") if code == 0 else ():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = _cli("eval", *common, "--ckpt", ckpt, "--data", data_dir,
                            "--decoder", decoder, "--out", root / f"{decoder}.json")
            if code == 4 and "distinct texts" in err.getvalue():
                texts = [tuple(s.text_ids) for s in load_samples(data_dir, split="test")
                         if s.modality == "text"]
                assert len(set(texts)) <= cfg.retrieval_distractors < len(texts)
                assert not (root / f"{decoder}.json").exists()
                continue
            assert code in (0, 5), err.getvalue()
