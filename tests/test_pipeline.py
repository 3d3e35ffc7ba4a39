import numpy as np
import pytest

from ude import checkpoint, pipeline
from ude.dataset import load_samples
from ude.errors import FormatError


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


def test_every_test_sample_gets_its_own_seed(tmp_path, tiny_cfg):
    pipeline.run_synth(tiny_cfg, 0, tmp_path)
    ids = [s.id for s in load_samples(tmp_path, split="test")]
    assert {s.split("_")[0] for s in ids} == {"text", "audio"}
    for rep in (0, 1):
        assert len({pipeline._sample_seed(0, rep, sid) for sid in ids}) == len(ids)


@pytest.mark.parametrize("part", ["sections", "buffers"])
def test_load_models_rejects_what_no_model_owns(tmp_path, tiny_cfg, part):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    pipeline.run_synth(tiny_cfg, 0, data)
    pipeline.train_stage("mq", tiny_cfg, data, ckpt, 0, epochs=0)
    body = checkpoint.load_stage(ckpt, "mq")
    assert set(pipeline.load_models(ckpt, "mq")) == {"mq"}
    body[part]["extra"] = body["sections"]["mq"] if part == "sections" else [1.0]
    checkpoint.save_checkpoint(checkpoint.stage_path(ckpt, "mq"), "mq", body["sections"],
                               body["config"], buffers=body["buffers"])
    with pytest.raises(FormatError):
        pipeline.load_models(ckpt, "mq")
