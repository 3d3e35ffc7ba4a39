import os
import stat
import tracemalloc

import numpy as np
import pytest

from ude import checkpoint, pipeline
from ude.config import RunConfig
from ude.dataset import save_manifest
from ude.errors import DataError
from ude.nn import Linear

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.pi, -1.0 / 3.0]


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def test_round_trip_is_bit_exact_and_the_payload_is_raw(tmp_path, rng):
    layer = Linear(3, 4, rng)
    layer.w.data.ravel()[:len(EDGE_VALUES)] = EDGE_VALUES
    params = {**checkpoint.params_blob(layer),
              "scalar": np.array(-0.0), "empty": np.zeros((0, 2))}
    path = tmp_path / "mq.ckpt"
    checkpoint.save_checkpoint(path, "mq", params, {"seed": 1}, buffers={"usage": [1, 2]})

    body = checkpoint.load_checkpoint(path)
    # the parameters alone: the run config describes the model
    assert set(body) == {"stage", "config", "deps", "buffers", "params"}
    assert body["config"] == {"seed": 1}
    assert list(body["params"]) == list(params)
    for name, value in params.items():
        np.testing.assert_array_equal(_bits(body["params"][name]), _bits(value))
    assert body["buffers"] == {"usage": [1, 2]} and body["deps"] == {}

    data = path.read_bytes()
    header, line, _ = data.split(b"\n", 2)
    count = sum(np.size(v) for v in params.values())
    assert header == b"UDECKPT v3 module=mq"
    assert len(data) == len(header) + len(line) + 2 + 8 * count

    fresh = Linear(3, 4, np.random.default_rng(0))
    checkpoint.load_params(fresh, {name: body["params"][name] for name in ("w", "b")})
    for (_, saved), (_, loaded) in zip(layer.named_parameters(), fresh.named_parameters()):
        np.testing.assert_array_equal(_bits(loaded.data), _bits(saved.data))
        assert loaded.data.flags.writeable  # a copy, not a view of the payload


def test_loading_holds_the_payload_once(tmp_path):
    # a default-size utt checkpoint: the bytes read are the only copy of its
    # payload, and every parameter is a read-only view of them
    cfg, rng = RunConfig(), np.random.default_rng(0)
    params = checkpoint.params_blob(pipeline.STAGES["utt"].model(cfg, rng))
    path = tmp_path / "utt.ckpt"
    checkpoint.save_checkpoint(path, "utt", params, cfg.to_dict())
    tracemalloc.start()
    try:
        body = checkpoint.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size
    for name, value in params.items():
        loaded = body["params"][name]
        assert not (loaded.flags.owndata or loaded.flags.writeable)
        np.testing.assert_array_equal(loaded, value)


def test_load_params_rejects_a_wrong_shape(tmp_path, rng):
    layer = Linear(3, 4, rng)
    params = checkpoint.params_blob(layer)
    params["w"] = params["w"].T
    with pytest.raises(DataError, match="shape mismatch for w"):
        checkpoint.load_params(Linear(3, 4, rng), params)


def test_written_files_get_the_umask_mode_not_the_temp_files(tmp_path, rng):
    ckpt, manifest = tmp_path / "mq.ckpt", tmp_path / "manifest.jsonl"
    old = os.umask(0o022)
    try:
        params = checkpoint.params_blob(Linear(3, 4, rng))
        checkpoint.save_checkpoint(ckpt, "mq", params, {})
        save_manifest([], manifest)
    finally:
        os.umask(old)
    for path in (ckpt, manifest):
        assert stat.filemode(path.stat().st_mode) == "-rw-r--r--", path
