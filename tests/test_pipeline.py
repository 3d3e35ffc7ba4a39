import numpy as np

from ude import checkpoint, pipeline
from ude.dataset import load_samples


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
