"""Checkpoint container shared by every model stage.

A checkpoint file holds one stage's model and has three parts:

    UDECKPT v4 module=<stage>
    {"stage": ..., "config": ..., "deps": ..., "params": ...}
    <payload>

The first line is the header. The second is one UTF-8 JSON object: the
stage name, the resolved run config, the content hashes of the stage
checkpoints it was trained against (`deps`), and the layout of the model's
tensors, `{name: {"shape": [...], "offset": n}}`: its trained parameters
and any fixed arrays it keeps as tensors, such as the quantizer's
standardization. The file records no architecture: the run config does,
and the model is rebuilt from it. The rest of the file is the payload:
every tensor as raw little-endian float64, C order, tensor `name` starting
`offset` values in. The payload holds exactly the values the metadata
names, so its length is 8 bytes times their count. Tensors round-trip bit
for bit.

`load_checkpoint` reads a file once and validates the metadata and the
payload against each other; anything that does not fit raises DataError.
Only the two text lines are copied out of the bytes read; the parameters
are read-only views of the payload in place. A file in an older format
(`UDECKPT v1`, JSON only; `v2`, one parameter map per model; or `v3`, with
JSON buffers beside the parameters) is rejected with a message to retrain
its stage.
`load_stage` checks the recorded dependency hashes against the stage files
in the directory, so a stale or missing prerequisite fails loudly; the
stages of one stack load share one dict of hashes, so each dependency file
is hashed once per stack load.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from .errors import DataError, StageError
from .fileio import atomic_write, sha256_file

CKPT_MAGIC = "UDECKPT v4"
PAYLOAD_DTYPE = np.dtype("<f8")


def params_blob(module) -> dict:
    return {name: t.data for name, t in module.named_tensors()}


def load_params(module, params: dict) -> None:
    """Copy each saved array into the module's own tensor of that name."""
    names = dict(module.named_tensors())
    if set(names) != set(params):
        missing = set(names) ^ set(params)
        raise DataError(f"tensor names do not match checkpoint: {sorted(missing)[:4]}")
    for name, arr in params.items():
        if arr.shape != names[name].data.shape:
            raise DataError(f"shape mismatch for {name}: {arr.shape}")
        names[name].data[...] = arr


def save_checkpoint(path, stage: str, params: dict, run_config: dict,
                    deps: dict | None = None) -> None:
    """Write one stage checkpoint of the model tensors `{name: array}`."""
    layout, chunks, offset = {}, [], 0
    for name, value in params.items():
        arr = np.asarray(value, dtype=PAYLOAD_DTYPE)
        layout[name] = {"shape": list(arr.shape), "offset": offset}
        chunks.append(arr.tobytes())
        offset += arr.size
    meta = {
        "stage": stage,
        "config": run_config,
        "deps": deps or {},
        "params": layout,
    }
    head = f"{CKPT_MAGIC} module={stage}\n{json.dumps(meta)}\n".encode("utf-8")
    atomic_write(path, head + b"".join(chunks))


def load_checkpoint(path) -> dict:
    """The checkpoint's metadata, with `params` mapped to read-only arrays
    over the payload."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise StageError(f"checkpoint not found: {path}") from exc
    # slice out only the two text lines: the payload is read where it lies
    head_end = data.find(b"\n")
    if head_end < 0:
        head_end = len(data)
    header = data[:head_end]
    prefix = f"{CKPT_MAGIC} module=".encode()
    if not header.startswith(prefix):
        old = re.fullmatch(rb"UDECKPT (v\d+) module=(.*)", header)
        if old:
            version, stage = (part.decode("utf-8", "replace").strip() for part in old.groups())
            raise DataError(f"{path}: {stage} checkpoint is in the old {version} format, "
                            f"which is no longer read; retrain stage {stage}")
        raise DataError(f"{path}: bad checkpoint header {header[:64]!r}")
    stage = header[len(prefix):].decode("utf-8", "replace").strip()
    meta_end = data.find(b"\n", head_end + 1)
    if meta_end < 0:
        raise DataError(f"{path}: checkpoint ends inside its metadata")
    line = data[head_end + 1:meta_end]
    try:
        meta = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: bad checkpoint metadata: {exc}") from exc
    _check_metadata(path, stage, meta)
    start = meta_end + 1
    params = meta["params"]
    count = sum(math.prod(p["shape"]) for p in params.values())
    if len(data) - start != count * PAYLOAD_DTYPE.itemsize:
        raise DataError(f"{path}: payload is {len(data) - start} bytes, but the "
                        f"metadata names {count} float64 values")
    flat = np.frombuffer(data, PAYLOAD_DTYPE, count=count, offset=start)
    for name, entry in params.items():
        size, offset = math.prod(entry["shape"]), entry["offset"]
        if offset + size > count:
            raise DataError(f"{path}: parameter {name} ends past the payload")
        params[name] = flat[offset:offset + size].reshape(entry["shape"])
    return meta


def _check_metadata(path, stage: str, meta) -> None:
    """Raise DataError unless `meta` has the layout the module docstring
    gives, with the header's stage."""
    def fail(what):
        raise DataError(f"{path}: bad checkpoint metadata: {what}")

    if not isinstance(meta, dict):
        fail("not an object")
    if meta.get("stage") != stage:
        fail("header/body stage mismatch")
    for key in ("params", "deps"):
        if not isinstance(meta.get(key), dict):
            fail(f"{key!r} is not an object")
    for name, entry in meta["params"].items():
        shape = entry.get("shape") if isinstance(entry, dict) else None
        offset = entry.get("offset") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and all(_is_count(n) for n in shape)
                and _is_count(offset)):
            fail(f"parameter {name!r} needs a shape and an offset of counts")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# -- stage files --------------------------------------------------------------------


def stage_path(ckpt_dir, stage: str) -> str:
    return os.path.join(os.fspath(ckpt_dir), f"{stage}.ckpt")


def stage_hash(ckpt_dir, stage: str) -> str:
    path = stage_path(ckpt_dir, stage)
    if not os.path.exists(path):
        raise StageError(f"requires stage {stage}: checkpoint {path} is missing")
    return sha256_file(path)


def load_stage(ckpt_dir, stage: str, hashes: dict) -> dict:
    """Load one stage checkpoint, checking its recorded dependency hashes
    against the files currently in the directory. `hashes` holds the stage
    file hashes computed so far, and gains those this call computes."""
    path = stage_path(ckpt_dir, stage)
    if not os.path.exists(path):
        raise StageError(f"requires stage {stage}: checkpoint {path} is missing")
    body = load_checkpoint(path)
    for dep, recorded in body["deps"].items():
        if dep not in hashes:
            hashes[dep] = stage_hash(ckpt_dir, dep)
        if hashes[dep] != recorded:
            raise StageError(
                f"stage {stage} was trained against a different {dep} "
                f"checkpoint (hash mismatch); retrain or restore it")
    return body
