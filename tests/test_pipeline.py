import math
import os
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest

from ude import checkpoint, metrics, pipeline
from ude import numerics as nm
from ude import utt as utt_mod
from ude.config import ARCHITECTURE_KEYS, RunConfig
from ude.dataset import _PHRASES, VOCAB_WORDS, load_samples
from ude.mate import encode
from ude.errors import DataError, NumericsError
from ude.motion import MotionSequence


def test_load_mq_restores_center_and_scale_bit_for_bit(tmp_path, tiny_cfg):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=1)
    # zero epochs: the trainer sets the standardization from the split and stops
    want = pipeline.mq_mod.MQModel(tiny_cfg, np.random.default_rng(0))
    motions = [s.motion.frames for s in load_samples(data, split="train")]
    pipeline.mq_mod.train_mq(want, motions, epochs=0, seed=0)
    assert list(checkpoint.load_stage(ckpt, "mq", {})["params"])[-2:] == ["center", "scale"]
    model = pipeline.load_mq(ckpt)
    for name in ("center", "scale"):
        got, saved = getattr(model, name), getattr(want, name)
        assert not got.requires_grad
        np.testing.assert_array_equal(got.data.view(np.uint64), saved.data.view(np.uint64))
    assert not np.array_equal(model.scale.data, np.ones(tiny_cfg.frame_dim))


def test_mq_loss_log_counts_dead_codes(tmp_path, tiny_cfg):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    history = pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=2)["history"]
    lines = (ckpt / "mq_loss.csv").read_text().splitlines()
    assert lines[1] == "epoch,total,recon,codebook,commit,dead_codes"
    assert [line.split(",")[-1] for line in lines[2:]] == [str(row["dead_codes"])
                                                            for row in history]


def test_every_test_sample_gets_its_own_seed(tmp_path, tiny_cfg):
    pipeline.run_synth(tiny_cfg, 0, tmp_path)
    ids = [s.id for s in load_samples(tmp_path, split="test")]
    assert {s.split("_")[0] for s in ids} == {"text", "audio"}
    for rep in (0, 1):
        assert len({pipeline._sample_seed(0, rep, sid) for sid in ids}) == len(ids)


@pytest.mark.parametrize("part", ["params", "config"])
def test_load_model_rejects_what_no_model_owns(tmp_path, tiny_cfg, part):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=0)
    body = checkpoint.load_stage(ckpt, "mq", {})
    assert isinstance(pipeline.load_model(ckpt, "mq", {}), pipeline.mq_mod.MQModel)
    params = body["params"]
    if part == "config":  # a key no run config has, as beta_start in an old dmd.ckpt
        body["config"]["beta_start"] = 1e-4
    else:
        params["extra"] = params["codebook.table"]
    checkpoint.save_checkpoint(checkpoint.stage_path(ckpt, "mq"), "mq", params,
                               body["config"])
    names = {"config": "mq.ckpt: the recorded run config.*beta_start.*retrain stage mq",
             "params": "mq.ckpt: the parameters do not fit.*extra.*retrain stage mq"}[part]
    with pytest.raises(DataError, match=names):
        pipeline.load_model(ckpt, "mq", {})


@pytest.mark.parametrize("stage", ["all", "utt"])
def test_train_stage_reads_the_train_split_once(tmp_path, tiny_cfg, monkeypatch, stage):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=0)
    splits = []

    def counted(data_dir, split=None):
        splits.append(split)
        return load_samples(data_dir, split=split)

    monkeypatch.setattr(pipeline, "load_samples", counted)
    result = pipeline.train_stage(stage, tiny_cfg, data, ckpt, 0, epochs=0)
    assert splits == ["train"]
    assert set(result) == (set(pipeline.STAGES) if stage == "all" else {"history"})


@pytest.mark.parametrize("stage", ["mq", "all"])
def test_train_stage_on_a_split_it_rejects_creates_no_directory(tmp_path, tiny_cfg, stage):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    blank = sorted((data / "conds").glob("text_train_*"))[-1]
    blank.write_text("\n")
    with pytest.raises(DataError, match=f"sample {blank.stem}: its text has no words"):
        pipeline.train_stage(stage, tiny_cfg, data, ckpt, 0, epochs=0)
    assert not ckpt.exists()


def test_the_utt_loss_log_holds_the_cross_entropy_alone(tmp_path, tiny_cfg):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=1)
    history = pipeline.train_stage("utt", tiny_cfg, data, ckpt, 0, epochs=2)["history"]
    # a benchmark counts a non-finite history row as a failure
    assert [set(row) for row in history] == [{"ce", "epoch"}] * 2
    assert all(math.isfinite(value) for row in history for value in row.values())
    lines = (ckpt / "utt_loss.csv").read_text().splitlines()
    assert lines[1] == "epoch,ce"
    assert [line.split(",") for line in lines[2:]] == [[str(row["epoch"]), repr(row["ce"])]
                                                       for row in history]


def test_the_utt_reads_its_condition(tmp_path, tiny_cfg):
    # held-out teacher-forced CE of the test texts, each with its own condition
    # and then with the next text of another action family: a UTT that ignores
    # its condition scores both alike. At this size (8 training texts per
    # family, 30 utt epochs) the gap read 0.43 to 1.98 nats over seeds 0-7 at
    # beta_adv 0, and -0.12 to 0.21 over seeds 0-3 at beta_adv 1.0, whose
    # adversarial term makes the UTT ignore its condition
    cfg = replace(tiny_cfg, families="walk:8,wave:8,jump:8,turn:8", compose_fraction=0.0,
                  epochs_utt=30)
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(cfg, 0, data)
    for stage in ("mq", "utt"):
        pipeline.train_stage(stage, cfg, data, ckpt, 0)
    mq, utt = pipeline.load_mq(ckpt), pipeline.load_utt_stack(ckpt)
    family_of = {verb: family for family, slots in _PHRASES.items() for verb in slots[0]}
    texts = [s for s in load_samples(data, split="test") if s.modality == "text"]
    families = [next(family_of[w] for w in s.sentence.split() if w in family_of)
                for s in texts]
    assert len(set(families)) == 4
    other = [next(texts[j % len(texts)] for j in range(i + 1, i + len(texts))
                  if families[j % len(texts)] != families[i]) for i in range(len(texts))]

    def held_out_ce(conditions):
        samples = [(pipeline._sample_input(c), s.motion.frames) for c, s in zip(conditions, texts)]
        return utt_mod.mean_cross_entropy(utt, mq, samples)

    assert held_out_ce(other) > held_out_ce(texts) + 0.25


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_cfg):
    root = tmp_path_factory.mktemp("trained")
    pipeline.run_synth(tiny_cfg, 0, root / "data")
    pipeline.train_stage("all", tiny_cfg, root / "data", root / "ckpt", 0, epochs=1)
    return root / "data", root / "ckpt"


def test_loaded_models_hold_no_gradient(trained, tiny_cfg, monkeypatch):
    # generation and eval run forward only, so a loaded model holds each
    # weight once: no gradient array exists until a backward pass writes one
    data, ckpt = trained
    stack = pipeline.load_generation_stack(ckpt, "dmd")
    models = [stack[name] for name in ("mq", "utt", "dmd")]
    models.append(pipeline.load_retrieval(ckpt))
    for decoder in ("vq", "dmd"):
        pipeline.generate_motion(stack, tiny_cfg, "text", 16, 0, prompt="a person walks",
                                 decoder=decoder)
    load_model = pipeline.load_model

    def loaded(ckpt_dir, stage, hashes):  # what evaluate loads for itself
        models.append(load_model(ckpt_dir, stage, hashes))
        return models[-1]

    monkeypatch.setattr(pipeline, "load_model", loaded)
    pipeline.evaluate(tiny_cfg, data, ckpt, decoder="dmd")
    assert len(models) == 8
    for model in models:
        assert [name for name, p in model.named_parameters() if p.grad is not None] == []


class _DrawsNothing(np.random.Generator):
    """A generator whose weight draws raise."""

    def uniform(self, *args, **kwargs):
        raise RuntimeError("a weight was drawn")

    normal = uniform


def test_loading_draws_no_weights(trained, monkeypatch):
    # numpy's Generator type cannot be patched, so every generator made
    # while loading is one whose weight draws raise
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *seed: _DrawsNothing(default_rng(*seed).bit_generator))
    with pytest.raises(RuntimeError, match="a weight was drawn"):
        np.random.default_rng(0).normal()
    assert pipeline.load_generation_stack(trained[1], "dmd")["dmd"] is not None
    pipeline.load_retrieval(trained[1])


def test_a_stack_load_hashes_the_mq_checkpoint_once(trained, monkeypatch):
    # the utt and dmd stages both record the hash of mq.ckpt
    hashed, sha256_file = [], checkpoint.sha256_file

    def counted(path):
        hashed.append(os.path.basename(path))
        return sha256_file(path)

    monkeypatch.setattr(checkpoint, "sha256_file", counted)
    for decoder in ("dmd", "vq"):
        hashed.clear()
        pipeline.load_generation_stack(trained[1], decoder)
        assert hashed == ["mq.ckpt"]


def test_models_of_one_shape_share_one_read_only_position_table(tiny_cfg):
    cfg = RunConfig()
    rng = np.random.default_rng(0)
    utt, dmd = pipeline.STAGES["utt"].model(cfg, rng), pipeline.STAGES["dmd"].model(cfg, rng)
    assert utt.pos.shape == (512, 64) and utt.pos is dmd.frame_pos
    first, second = (pipeline.STAGES["utt"].model(tiny_cfg, rng).mate for _ in range(2))
    assert first.pos is second.pos
    for table in (utt.pos, first.pos):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


# every architecture value away from its default: a model that read a default
# of its own instead of the run config would show a shape of the default
ARCH = RunConfig(feature_dim=7, code_count=10, code_dim=6, mq_hidden=12, embed_dim=24,
                 mate_layers=3, mate_heads=3, max_text_len=20, max_audio_len=40,
                 utt_layers=1, utt_heads=6, z_dim=5, max_context=200, diffusion_steps=7,
                 dmd_layers=3, dmd_cond_layers=1, dmd_heads=2, retrieval_dim=5)
F, V, H = ARCH.frame_dim, len(VOCAB_WORDS), metrics.RETRIEVAL_HIDDEN
# per stage: a parameter's or an array's shape, or an encoder's (layers, heads)
SIZES = {
    "mq": {"enc1.kernel": (4, F, 12), "enc3.kernel": (3, 12, 6), "dec1.kernel": (3, 6, 12),
           "dec3.kernel": (3, 12, F), "codebook.table": (10, 6), "center": (F,), "scale": (F,)},
    "utt": {"mate.word_table.table": (V, 24), "mate.audio_proj.w": (4 * 7, 24),
            "mate.pos": (1 + max(20, 40 // 4), 24), "mate.encoder": (3, 3),
            "token_table.table": (10 + 1, 24), "z1.w": (5, 24), "out_proj.w": (24, 10),
            "pos": (200, 24), "encoder": (1, 6)},
    "dmd": {"token_table.table": (10, 24), "step_table.table": (7 + 1, 24),
            "in_proj.w": (F, 24), "out_proj.w": (24, F), "cond_encoder": (1, 2),
            "denoiser": (3, 2)},
    "retrieval": {"motion_k1": (4, F, H), "motion_out.w": (H, 5), "word_table.table": (V, H),
                  "text_out.w": (H, 5)},
}


@pytest.mark.parametrize("stage", sorted(pipeline.STAGES))
def test_each_model_is_sized_by_its_run_config(stage):
    assert set(SIZES) == set(pipeline.STAGES)
    model = pipeline.STAGES[stage].model(ARCH, np.random.default_rng(0))
    assert model.cfg is ARCH
    params = dict(model.named_parameters())
    for name, want in SIZES[stage].items():
        part = params[name] if name in params else reduce(getattr, name.split("."), model)
        got = ((len(part.layers), part.layers[0].attn.heads) if hasattr(part, "layers")
               else part.shape)
        assert got == want, name
    if stage == "utt":
        assert model.mate.cfg is ARCH
    if stage == "dmd":
        assert model.sched.steps == 7


class _ReadRecorder:
    """A run config that records the name of every key read from it."""

    def __init__(self, cfg):
        self._cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


@pytest.mark.parametrize("stage", sorted(pipeline.STAGES))
def test_the_architecture_keys_are_the_keys_each_constructor_reads(stage):
    # a request config is checked against a checkpoint on these keys alone
    recorder = _ReadRecorder(RunConfig())
    pipeline.STAGES[stage].model(recorder, np.random.default_rng(0))
    keys = {f.name for f in fields(RunConfig)}
    assert recorder.read & keys == set(ARCHITECTURE_KEYS[stage])


def test_sampling_follows_the_request_config_not_the_recorded_one(trained, tiny_cfg):
    # the checkpoint records top_k 16, more than the 8 codes; a request at
    # top_k 1 decodes greedily, so each token is the argmax of its logits
    stack = pipeline.load_generation_stack(trained[1], decoder="vq")
    utt = stack["utt"]
    assert utt.cfg.top_k == tiny_cfg.top_k == 16
    prompts = ["a person walks forward", "someone jumps", "a figure waves both arms high"]
    seeds = [1, 2, 3]
    inputs = [pipeline.condition_from_request(stack, tiny_cfg, "text", p)[0] for p in prompts]

    def tokens(cfg):
        outs = pipeline.generate_motion(stack, cfg, "text", 64, seeds, prompt=prompts)
        return np.stack([out["tokens"] for out in outs])

    def argmax_of_each(rows):
        prefixes = np.pad(rows[:, :-1], ((0, 0), (1, 0)), constant_values=utt.cfg.code_count)
        with nm.no_grad():
            logits = utt_mod.forward_logits(utt, encode(utt.mate, inputs), prefixes)
        return logits.data.argmax(axis=-1)

    greedy = tokens(replace(tiny_cfg, top_k=1))
    np.testing.assert_array_equal(greedy, argmax_of_each(greedy))
    recorded = tokens(tiny_cfg)
    assert (recorded != argmax_of_each(recorded)).any()


def test_utt_checkpoint_holds_only_what_inference_reads(trained):
    body = checkpoint.load_stage(trained[1], "utt", {})
    assert {name.split(".")[0] for name in body["params"]} == {
        "mate", "token_table", "z1", "z2", "encoder", "out_proj"}
    assert isinstance(pipeline.load_utt_stack(trained[1]), utt_mod.UTTModel)


@pytest.mark.parametrize("decoder", ["vq", "dmd"])
def test_a_batch_of_requests_gets_what_each_gets_alone(trained, tiny_cfg, decoder):
    stack = pipeline.load_generation_stack(trained[1], decoder=decoder)
    prompts = ["a person walks", "a person waves both arms high", "jump"]
    seeds = [7, 8, 9]
    batch = pipeline.generate_motion(stack, tiny_cfg, "text", 32, seeds, prompt=prompts,
                                     use_z=True, decoder=decoder)
    assert len(batch) == 3
    for out, seed, prompt in zip(batch, seeds, prompts):
        alone = pipeline.generate_motion(stack, tiny_cfg, "text", 32, seed, prompt=prompt,
                                         use_z=True, decoder=decoder)
        np.testing.assert_array_equal(out["tokens"], alone["tokens"])
        np.testing.assert_array_equal(out["frames"], alone["frames"])
        assert out["unk_only"] == alone["unk_only"]


@pytest.mark.parametrize("modality, condition", [("text", "prompt"), ("audio", "features")])
def test_an_empty_batch_of_requests_is_a_data_error(trained, tiny_cfg, modality, condition):
    stack = pipeline.load_generation_stack(trained[1], decoder="vq")
    with pytest.raises(DataError, match="a batch of requests is empty"):
        pipeline.generate_motion(stack, tiny_cfg, modality, 16, [], **{condition: []})


def test_eval_reports_do_not_depend_on_the_group_size(trained, tiny_cfg):
    data, ckpt = trained
    reports = [pipeline.evaluate(replace(tiny_cfg, batch_size=size, samples_per_input=2),
                                 data, ckpt, seed=3)
               for size in (1, 3)]
    assert reports[0]["metrics"] == reports[1]["metrics"]


def test_non_finite_frames_from_a_decoder_are_a_numerical_failure(trained, tiny_cfg,
                                                                  monkeypatch):
    data, ckpt = trained
    stack = pipeline.load_generation_stack(ckpt, decoder="dmd")
    monkeypatch.setattr(pipeline.dmd_mod, "decode_tokens_dmd",
                        lambda model, tokens, seeds: np.full((len(seeds), 16, 24), np.inf))
    with pytest.raises(NumericsError, match="the dmd decoder produced non-finite text frames"):
        pipeline.generate_motion(stack, tiny_cfg, "text", 16, 0, prompt="a person walks",
                                 decoder="dmd")
    # a transition decodes its tokens through the same check
    features = next(s.features for s in load_samples(data) if s.features is not None)
    with pytest.raises(NumericsError,
                       match="the dmd decoder produced non-finite transition frames"):
        pipeline.transition_motion(stack, tiny_cfg, "a person walks", features, 0,
                                   text_frames=8, audio_frames=8, primitive_len=1,
                                   decoder="dmd")


@pytest.mark.parametrize("decoder, decodes", [("vq", [(1, 8)]), ("dmd", [])])
def test_a_transition_decodes_only_its_joined_tokens(trained, tiny_cfg, monkeypatch, decoder,
                                                     decodes):
    data, ckpt = trained
    stack = pipeline.load_generation_stack(ckpt, decoder=decoder)
    decode, calls = pipeline.mq_mod.MQModel.decode_tokens, []

    def counted(model, tokens):
        calls.append(np.shape(tokens))
        return decode(model, tokens)

    monkeypatch.setattr(pipeline.mq_mod.MQModel, "decode_tokens", counted)
    features = next(s.features for s in load_samples(data) if s.features is not None)
    out = pipeline.transition_motion(stack, tiny_cfg, "a person walks", features, 0,
                                     text_frames=16, audio_frames=16, primitive_len=2,
                                     decoder=decoder)
    assert calls == decodes  # 4 text tokens and 4 continuation tokens, decoded once
    assert out["motion"].length == 32


@pytest.mark.parametrize("model, weight, stage, decoder", [
    ("mate", "mate.word_table.table", "utt", "vq"), ("utt", "token_table.table", "utt", "vq"),
    ("mq", "dec1.kernel", "mq", "vq"), ("dmd", "token_table.table", "dmd", "dmd")])
def test_a_numerics_error_in_generation_names_the_model_and_its_stage(
        trained, tiny_cfg, model, weight, stage, decoder):
    data, ckpt = trained
    stack = pipeline.load_generation_stack(ckpt, decoder=decoder)
    # a weight the model reads first, at 1e308: the first sum over it overflows
    dict(stack[stage].named_parameters())[weight].data[...] = 1e308
    features = next(s.features for s in load_samples(data) if s.features is not None)
    message = (rf"^the {model} model failed \(non-finite values produced by \w+\); "
               rf"retrain stage {stage}$")
    with pytest.raises(NumericsError, match=message):
        pipeline.generate_motion(stack, tiny_cfg, "text", 16, 0, prompt="a person walks",
                                 decoder=decoder)
    with pytest.raises(NumericsError, match=message):
        pipeline.transition_motion(stack, tiny_cfg, "a person walks", features, 0,
                                   text_frames=8, audio_frames=8, primitive_len=1,
                                   decoder=decoder)


def test_non_finite_features_are_a_numerical_failure_only_of_generated_motions():
    # finite frames whose per-second velocities overflow
    huge = [MotionSequence(16.0, np.arange(8.0)[:, None] * np.full((8, 24), 1e307))] * 2
    with pytest.raises(NumericsError, match="generated audio motions have non-finite kinetic"):
        pipeline._generated_feature_set("kinetic", huge, "audio")
    with pytest.raises(DataError, match="non-finite feature rows"), \
            np.errstate(over="ignore", invalid="ignore"):
        metrics.feature_set("kinetic", huge)
