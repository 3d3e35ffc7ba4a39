"""Checkpoint container shared by every model stage.

A checkpoint file is one header line

    UDECKPT v1 module=<stage>

followed by a JSON blob holding one or more named sections (each with its
model config and parameter tensors), buffers, the resolved run config, and
the content hashes of the stage checkpoints it was trained against. Floats
round-trip exactly through JSON (repr is shortest-round-trip).

`load_stage` checks the recorded dependency hashes against the stage files
in the directory, so a stale or missing prerequisite fails loudly.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import FormatError, StageError
from .fileio import atomic_write_text, sha256_file

CKPT_MAGIC = "UDECKPT v1"


def params_blob(module) -> dict:
    return {name: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
            for name, p in module.named_parameters()}


def load_params(module, blob: dict) -> None:
    names = dict(module.named_parameters())
    if set(names) != set(blob):
        missing = set(names) ^ set(blob)
        raise FormatError(f"parameter names do not match checkpoint: {sorted(missing)[:4]}")
    for name, entry in blob.items():
        arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if arr.shape != names[name].data.shape:
            raise FormatError(f"shape mismatch for {name}: {arr.shape}")
        names[name].data[...] = arr


def save_checkpoint(path, stage: str, sections: dict, run_config: dict,
                    deps: dict | None = None, buffers: dict | None = None) -> None:
    body = {
        "stage": stage,
        "sections": sections,
        "config": run_config,
        "deps": deps or {},
        "buffers": {k: np.asarray(v).tolist() for k, v in (buffers or {}).items()},
    }
    atomic_write_text(path, f"{CKPT_MAGIC} module={stage}\n" + json.dumps(body) + "\n")


def load_checkpoint(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rest = fh.read()
    except FileNotFoundError as exc:
        raise StageError(f"checkpoint not found: {path}") from exc
    if not header.startswith(CKPT_MAGIC + " module="):
        raise FormatError(f"{path}: bad checkpoint header {header!r}")
    stage = header.split("module=", 1)[1].strip()
    try:
        body = json.loads(rest)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad checkpoint body: {exc}") from exc
    if body.get("stage") != stage:
        raise FormatError(f"{path}: header/body stage mismatch")
    return body


# -- stage files --------------------------------------------------------------------


def stage_path(ckpt_dir, stage: str) -> str:
    return os.path.join(os.fspath(ckpt_dir), f"{stage}.ckpt")


def stage_hash(ckpt_dir, stage: str) -> str:
    path = stage_path(ckpt_dir, stage)
    if not os.path.exists(path):
        raise StageError(f"requires stage {stage}: checkpoint {path} is missing")
    return sha256_file(path)


def load_stage(ckpt_dir, stage: str, verify_deps: bool = True) -> dict:
    """Load one stage checkpoint, checking its recorded dependency hashes
    against the files currently in the directory."""
    path = stage_path(ckpt_dir, stage)
    if not os.path.exists(path):
        raise StageError(f"requires stage {stage}: checkpoint {path} is missing")
    body = load_checkpoint(path)
    if verify_deps:
        for dep, recorded in body.get("deps", {}).items():
            current = stage_hash(ckpt_dir, dep)
            if current != recorded:
                raise StageError(
                    f"stage {stage} was trained against a different {dep} "
                    f"checkpoint (hash mismatch); retrain or restore it")
    return body
