import shutil
from dataclasses import replace

import numpy as np
import pytest

from ude import checkpoint, pipeline
from ude.dataset import load_samples
from ude.errors import DataError


def test_load_mq_restores_every_saved_buffer(tmp_path, tiny_cfg):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=1)
    saved = checkpoint.load_stage(ckpt, "mq")["buffers"]
    model = pipeline.load_mq(ckpt)
    assert np.asarray(saved["usage"]).sum() > 0
    for name in ("center", "scale", "usage"):
        np.testing.assert_array_equal(getattr(model, name), saved[name])
    assert model.usage.dtype == np.int64


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


@pytest.mark.parametrize("part", ["sections", "buffers", "config"])
def test_load_models_rejects_what_no_model_owns(tmp_path, tiny_cfg, part):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=0)
    body = checkpoint.load_stage(ckpt, "mq")
    assert set(pipeline.load_models(ckpt, "mq")) == {"mq"}
    if part == "config":  # a key the model does not take, as beta_start in an old dmd.ckpt
        body["sections"]["mq"]["config"]["beta_start"] = 1e-4
    else:
        body[part]["extra"] = body["sections"]["mq"] if part == "sections" else [1.0]
    checkpoint.save_checkpoint(checkpoint.stage_path(ckpt, "mq"), "mq", body["sections"],
                               body["config"], buffers=body["buffers"])
    names = "mq checkpoint section 'mq'.*beta_start.*retrain stage mq"
    with pytest.raises(DataError, match=names if part == "config" else None):
        pipeline.load_models(ckpt, "mq")


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


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_cfg):
    root = tmp_path_factory.mktemp("trained")
    pipeline.run_synth(tiny_cfg, 0, root / "data")
    pipeline.train_stage("all", tiny_cfg, root / "data", root / "ckpt", 0, epochs=1)
    return root / "data", root / "ckpt"


def test_utt_checkpoint_holds_only_what_inference_reads(trained):
    body = checkpoint.load_stage(trained[1], "utt")
    assert set(body["sections"]) == {"mate", "utt"}
    assert len(pipeline.load_utt_stack(trained[1])) == 2


def test_an_older_utt_checkpoint_that_holds_the_discriminator_still_loads(trained, tiny_cfg,
                                                                          tmp_path):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained[1], ckpt)
    body = checkpoint.load_stage(ckpt, "utt")
    config, disc = pipeline._build("disc", np.random.default_rng(0),
                                   frame_dim=tiny_cfg.frame_dim, dim=tiny_cfg.embed_dim,
                                   heads=tiny_cfg.utt_heads)
    # such checkpoints name the discriminator's conv parameters k1, b1, k2, b2
    older_names = {"conv1.kernel": "k1", "conv1.bias": "b1",
                   "conv2.kernel": "k2", "conv2.bias": "b2"}
    params = {older_names.get(name, name): value
              for name, value in checkpoint.params_blob(disc).items()}
    assert {"k1", "b1", "k2", "b2"} <= set(params)
    body["sections"]["disc"] = {"config": config, "params": params}
    checkpoint.save_checkpoint(checkpoint.stage_path(ckpt, "utt"), "utt", body["sections"],
                               body["config"], deps=body["deps"], buffers=body["buffers"])
    _, utt = pipeline.load_utt_stack(ckpt)
    for name, p in utt.named_parameters():
        np.testing.assert_array_equal(p.data, body["sections"]["utt"]["params"][name])


@pytest.mark.parametrize("decoder", ["vq", "dmd"])
def test_a_batch_of_requests_gets_what_each_gets_alone(trained, tiny_cfg, decoder):
    stack = pipeline.load_generation_stack(trained[1], decoder=decoder)
    prompts = ["a person walks", "a person waves both arms high", "jump"]
    primitives = [[1, 2], [5, 5], [3, 0]]
    seeds = [7, 8, 9]
    batch = pipeline.generate_motion(stack, tiny_cfg, "text", 32, seeds, prompt=prompts,
                                     use_z=True, decoder=decoder, primitive=primitives)
    assert len(batch) == 3
    for out, seed, prompt, primitive in zip(batch, seeds, prompts, primitives):
        alone = pipeline.generate_motion(stack, tiny_cfg, "text", 32, seed, prompt=prompt,
                                         use_z=True, decoder=decoder, primitive=primitive)
        np.testing.assert_array_equal(out["tokens"], alone["tokens"])
        np.testing.assert_array_equal(out["frames"], alone["frames"])
        assert out["unk_only"] == alone["unk_only"]


def test_eval_reports_do_not_depend_on_the_group_size(trained, tiny_cfg):
    data, ckpt = trained
    reports = [pipeline.evaluate(replace(tiny_cfg, batch_size=size), data, ckpt, seed=3,
                                 samples_per_input=2)
               for size in (1, 3)]
    assert reports[0]["metrics"] == reports[1]["metrics"]
