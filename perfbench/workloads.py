"""The benchmark's workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. Its inputs come from the workload seed only.
A workload has three phases:

* `prepare()`: untimed fixture work (for generate and eval: a short
  training run in a child process, so the parent's peak RSS is its own);
* `setup()`: the set-up the user pays before the first operation, timed
  by the caller as `setup_s`;
* `run_round()`: one fixed block of operations. It returns one `Op` per
  operation plus the bytes that make up the round's output digest.

An operation is one stage epoch (train_epoch), one generation request
(generate_mix) or one `pipeline.evaluate` call (eval_test). An operation
whose output fails its check is returned with `ok=False`; it is not raised.

Every call into the program goes through a module attribute
(`pipeline.evaluate`, not a local name), so the tracer sees it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from ude import checkpoint, dataset, pipeline
from ude.config import RunConfig
from ude.errors import UdeError

HERE = os.path.dirname(os.path.abspath(__file__))

# generate_mix: requests per target length in frames, half text and half
# audio. Every seed draws the same counts, so the amount of work is fixed.
# The counts put the median (38th/39th of 76) in the middle of the cluster
# of 64-frame dmd and 256-frame vq text requests, and the tail (11th
# slowest) in the middle of the cluster of 512-frame audio and 256-frame dmd
# requests; at a boundary between clusters either one moves with noise.
GENERATE_MIX = {64: 48, 256: 16, 512: 8, 1024: 4}
# requests at or below this many frames are split evenly between the vq and
# dmd decoders; longer ones use vq (dmd costs ~1 s per 256 frames)
DMD_MAX_FRAMES = 256

# Reduced train split for the generate/eval fixture checkpoints. Generation
# forces exactly frames/4 tokens, DMD always runs every diffusion step and
# the test split is the default one, so the timed work does not depend on
# how well the fixture is trained.
FIXTURE_TRAIN = {"families": "walk:4,wave:4,jump:4,turn:4",
                 "genres": "sway:6,groove:5,pulse:5"}


@dataclass
class Op:
    seconds: float
    items: int      # work units completed: samples or tokens
    ok: bool


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def fixture_config(cfg: RunConfig) -> RunConfig:
    return replace(cfg, **FIXTURE_TRAIN)


def prepare_fixture(cfg: RunConfig, seed: int, work_dir: str) -> tuple:
    """Synthesize data and train one epoch of every stage in a child
    process. Returns (data_dir, ckpt_dir, seconds)."""
    data_dir = os.path.join(work_dir, "data")
    ckpt_dir = os.path.join(work_dir, "ckpt")
    config_path = os.path.join(work_dir, "fixture_config.json")
    os.makedirs(work_dir, exist_ok=True)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh)
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "prepare.py"), config_path,
                    str(seed), data_dir, ckpt_dir], check=True, timeout=120)
    return data_dir, ckpt_dir, time.perf_counter() - start


class TrainEpoch:
    """run_synth on the default dataset (set-up), then one epoch of each
    stage through `pipeline.train_stage`, in stage order."""

    name = "train_epoch"
    item = "training sample"
    spans = ("numerics.Tensor.backward", "numerics.Adam.step",
             "numerics.conv1d_temporal", "numerics.matmul", "numerics.softmax",
             "numerics.log_softmax", "numerics.layer_norm", "numerics.add",
             "numerics.transpose", "nn.MultiHeadAttention", "nn.TransformerEncoder",
             "mate.encode", "mq.MQModel.encode_tokens", "utt.forward_logits",
             "utt.utt_loss", "utt.hinge_disc_loss", "utt.train_utt", "mq.vq_loss",
             "mq.train_mq", "dmd.dmd_loss", "dmd.train_dmd", "dmd.predict_noise",
             "metrics.train_retrieval_encoder", "checkpoint.save_checkpoint",
             "checkpoint.load_checkpoint", "dataset.synth_dataset",
             "dataset.load_samples", "pipeline.train_stage")
    # pipeline loaders that rebuild each stage and verify its dependency hashes
    reloaders = {"mq": "load_mq", "utt": "load_utt_stack", "dmd": "load_dmd",
                 "retrieval": "load_retrieval"}

    def __init__(self, cfg: RunConfig, seed: int, work_dir: str):
        self.cfg, self.seed = cfg, seed
        self.data = os.path.join(work_dir, "data")
        self.ckpt = os.path.join(work_dir, "ckpt")
        self.fixture_s = None
        self.stage_items: dict = {}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pipeline.run_synth(self.cfg, self.seed, self.data)
        train = dataset.load_samples(self.data, split="train")
        texts = sum(s.modality == "text" for s in train)
        # samples one epoch of each stage consumes; retrieval trains on text
        self.stage_items = {"mq": len(train), "utt": len(train), "dmd": len(train),
                            "retrieval": texts}

    def run_round(self) -> tuple:
        ops, digest = [], []
        for stage in pipeline.STAGES:
            start = time.perf_counter()
            try:
                result = pipeline.train_stage(stage, self.cfg, self.data, self.ckpt,
                                              self.seed, epochs=1)
            except UdeError as exc:
                print(f"train_epoch: stage {stage} failed: {exc}", file=sys.stderr)
                ops.append(Op(time.perf_counter() - start, 0, False))
                continue
            seconds = time.perf_counter() - start
            ok = all(_finite(v for k, v in row.items()) for row in result["history"])
            try:
                getattr(pipeline, self.reloaders[stage])(self.ckpt)
            except UdeError as exc:
                print(f"train_epoch: {stage} checkpoint does not reload: {exc}",
                      file=sys.stderr)
                ok = False
            ops.append(Op(seconds, self.stage_items[stage], ok))
            digest.append(json.dumps({"stage": stage, "history": result["history"]},
                                     sort_keys=True).encode())
            digest.append(checkpoint.stage_hash(self.ckpt, stage).encode())
        return ops, digest



@dataclass
class Request:
    modality: str
    frames: int
    decoder: str
    seed: int
    sample: dataset.Sample


class GenerateMix:
    """A seeded sequence of `pipeline.generate_motion` requests over the
    test split's text prompts and audio features."""

    name = "generate_mix"
    item = "generated token"
    spans = ("numerics.matmul", "numerics.softmax", "numerics.layer_norm",
             "numerics.add", "numerics.transpose", "numerics.conv1d_temporal",
             "nn.MultiHeadAttention", "nn.TransformerEncoder", "mate.encode",
             "mq.MQModel.decode_tokens", "utt.forward_logits", "utt.generate_tokens",
             "dmd.predict_noise", "dmd.decode_tokens_dmd", "checkpoint.load_checkpoint",
             "pipeline.generate_motion", "pipeline.load_generation_stack")

    def __init__(self, cfg: RunConfig, seed: int, work_dir: str, mix=GENERATE_MIX):
        if any(n % (4 if frames <= DMD_MAX_FRAMES else 2) for frames, n in mix.items()):
            raise ValueError("request counts must split evenly by modality and decoder")
        self.cfg, self.seed, self.work_dir = fixture_config(cfg), seed, work_dir
        self.mix = mix
        self.fixture_s = None
        self.stack = None
        self.requests: list = []

    def prepare(self) -> None:
        data, self.ckpt, self.fixture_s = prepare_fixture(self.cfg, self.seed,
                                                          self.work_dir)
        test = dataset.load_samples(data, split="test")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
        requests = []
        for modality in ("text", "audio"):
            pool = [s for s in test if s.modality == modality]
            picks = iter(rng.choice(len(pool), size=sum(self.mix.values()) // 2,
                                    replace=False))
            for frames, count in self.mix.items():
                for k in range(count // 2):
                    dmd = frames <= DMD_MAX_FRAMES and k % 2 == 1
                    requests.append(Request(modality, frames, "dmd" if dmd else "vq",
                                            int(rng.integers(2 ** 31)), pool[next(picks)]))
        self.requests = [requests[i] for i in rng.permutation(len(requests))]

    def setup(self) -> None:
        self.stack = pipeline.load_generation_stack(self.ckpt, decoder="dmd")

    def run_round(self) -> tuple:
        ops, digest = [], []
        code_count = self.stack["mq"].cfg.code_count
        for req in self.requests:
            start = time.perf_counter()
            try:
                out = pipeline.generate_motion(
                    self.stack, self.cfg, req.modality, req.frames, req.seed,
                    prompt=req.sample.sentence,
                    features=req.sample.features.features if req.sample.features else None,
                    decoder=req.decoder)
            except UdeError as exc:
                print(f"generate_mix: request failed: {exc}", file=sys.stderr)
                ops.append(Op(time.perf_counter() - start, 0, False))
                continue
            seconds = time.perf_counter() - start
            tokens, frames = out["tokens"], out["frames"]
            ok = (tokens.size == req.frames // 4
                  and bool(((tokens >= 0) & (tokens < code_count)).all())
                  and frames.shape == (req.frames, self.cfg.frame_dim)
                  and bool(np.isfinite(frames).all()))
            ops.append(Op(seconds, int(tokens.size), ok))
            digest += [tokens.astype(np.int64).tobytes(),
                       np.ascontiguousarray(frames, dtype=np.float64).tobytes()]
        return ops, digest



class EvalTest:
    """`pipeline.evaluate` with the vq decoder on the default test split."""

    name = "eval_test"
    item = "test sample"
    spans = ("numerics.matmul", "numerics.softmax", "numerics.layer_norm",
             "numerics.add", "numerics.transpose", "nn.MultiHeadAttention",
             "nn.TransformerEncoder", "mate.encode", "mq.MQModel.decode_tokens",
             "utt.forward_logits", "utt.generate_tokens", "metrics.feature_set",
             "metrics.fid", "metrics.retrieval_accuracy", "metrics.detect_motion_beats",
             "metrics.recon_accuracy", "checkpoint.load_checkpoint",
             "dataset.synth_dataset", "dataset.load_samples",
             "pipeline.generate_motion", "pipeline.load_generation_stack",
             "pipeline.evaluate")

    def __init__(self, cfg: RunConfig, seed: int, work_dir: str):
        self.cfg, self.seed, self.work_dir = fixture_config(cfg), seed, work_dir
        self.fixture_s = None
        self.counts: dict = {}

    def prepare(self) -> None:
        self.data, self.ckpt, self.fixture_s = prepare_fixture(self.cfg, self.seed,
                                                               self.work_dir)
        test = dataset.load_samples(self.data, split="test")
        self.counts = {m: sum(s.modality == m for s in test) for m in ("text", "audio")}

    def setup(self) -> None:
        # the same seed rewrites the same files the fixture was trained on
        pipeline.run_synth(self.cfg, self.seed, self.data)

    def run_round(self) -> tuple:
        start = time.perf_counter()
        try:
            report = pipeline.evaluate(self.cfg, self.data, self.ckpt, split="test",
                                       seed=self.seed, decoder="vq")
        except UdeError as exc:
            print(f"eval_test: evaluate failed: {exc}", file=sys.stderr)
            return [Op(time.perf_counter() - start, 0, False)], []
        seconds = time.perf_counter() - start
        ok = (report["counts"] == self.counts
              and all(_finite(block.values()) for block in report["metrics"].values()))
        items = sum(report["counts"].values())
        return [Op(seconds, items, ok)], [json.dumps(report["metrics"],
                                                     sort_keys=True).encode()]



def checkpoint_bytes(ckpt_dir) -> dict:
    """Size of each stage checkpoint present in ckpt_dir."""
    paths = {s: checkpoint.stage_path(ckpt_dir, s) for s in pipeline.STAGES}
    return {s: os.path.getsize(p) for s, p in paths.items() if os.path.exists(p)}


WORKLOADS = {w.name: w for w in (TrainEpoch, GenerateMix, EvalTest)}
