"""Staged pipeline: build/train/save/load the model stack, generate motion
from text or audio conditions, stitch text-to-audio transitions through
token primitives, and run the metric battery.

Stage order is mq -> utt (the UTT with its MATE, on cross-entropy) -> dmd
-> retrieval, one `STAGES` entry each, and each stage trains and saves one
model; the utt and dmd stages record the content hash of the mq checkpoint
they were trained against, and loading verifies those hashes so stale mixes
fail loudly.
A checkpoint holds only the parameters of its stage's `model` class, which
is built from the run config being trained, or from the one the checkpoint
recorded, checked as a config file is; the model keeps that config as
`model.cfg`, and its trainer reads lr, batch_size and z_prob from it.
Sampling reads top_k and temperature from the request's config, never from
`model.cfg`. Loading draws no weights, since every one is overwritten by a
saved parameter, and a stack load hashes the mq file once for all its
dependency checks. The generation stack is a dict of the models "mq", "utt"
(which holds the MATE as `utt.mate`) and "dmd" (None when it is loaded for
the vq decoder).
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import checkpoint as ckpt
from . import dmd as dmd_mod
from . import metrics as metrics_mod
from . import mq as mq_mod
from . import numerics as nm
from . import utt as utt_mod
from .audio import AudioFeatureSequence
from .config import RunConfig, config_from_dict
from .dataset import UNK_ID, load_samples, synth_dataset, tokenize
from .errors import ConfigError, DataError, NumericsError, StageError
from .fileio import atomic_write
from .mate import audio_input, text_input
from .mate import encode as mate_encode
from .motion import MotionSequence
from .mq import DOWNSAMPLE


def run_synth(cfg: RunConfig, seed: int, out_dir) -> dict:
    entries = synth_dataset(cfg, seed, out_dir)
    atomic_write(os.path.join(os.fspath(out_dir), "config.json"),
                 (json.dumps({"config": cfg.to_dict(), "seed": seed}, indent=2) + "\n").encode())
    counts = {}
    for entry in entries:
        key = f"{entry.split}/{entry.modality}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def _write_loss_log(path, cfg: RunConfig, seed: int, history, columns) -> None:
    lines = [f"# config: {json.dumps(cfg.to_dict())} seed: {seed}",
             ",".join(["epoch", *columns])]
    for row in history:
        lines.append(",".join(str(row[c]) if isinstance(row[c], int) else repr(float(row[c]))
                              for c in ("epoch", *columns)))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


# -- training stages -----------------------------------------------------------------
#
# Each trainer trains the stage's freshly drawn model in place on the train
# split for `epochs` epochs and returns (buffers, loss history). `deps` holds
# the loaded model of each stage the trainer depends on.


def _train_mq(model, train, deps, rng, seed, epochs) -> tuple:
    history = mq_mod.train_mq(model, [s.motion.frames for s in train], epochs, seed)
    return {"center": model.center, "scale": model.scale, "usage": model.usage}, history


def _train_utt(model, train, deps, rng, seed, epochs) -> tuple:
    samples = [(_sample_input(s), s.motion.frames) for s in train]
    return None, utt_mod.train_utt(model, deps["mq"], samples, epochs, seed)


def _train_dmd(model, train, deps, rng, seed, epochs) -> tuple:
    return None, dmd_mod.train_dmd(model, deps["mq"], [s.motion.frames for s in train],
                                   epochs, seed)


def _train_retrieval(model, train, deps, rng, seed, epochs) -> tuple:
    pairs = [(s.motion.frames, s.text_ids) for s in train if s.modality == "text"]
    return None, metrics_mod.train_retrieval_encoder(model, pairs, epochs, rng)


@dataclass(frozen=True)
class Stage:
    """One training stage: its model class, built as `model(cfg, rng)`, its
    trainer, the stages whose checkpoint hashes it records, its loss-CSV
    columns and the tag of its rng stream (fixed, so that a seed keeps
    giving the same models; retrieval's 77 is the stream its trainer has
    always drawn the encoder and the minibatch orders from)."""
    model: type
    train: Callable
    deps: tuple
    columns: tuple
    tag: int


# in training order; a stage comes after every stage it depends on
STAGES = {
    "mq": Stage(mq_mod.MQModel, _train_mq, (),
                ("total", "recon", "codebook", "commit", "dead_codes"), 101),
    "utt": Stage(utt_mod.UTTModel, _train_utt, ("mq",), ("ce",), 102),
    "dmd": Stage(dmd_mod.DMDModel, _train_dmd, ("mq",), ("loss",), 103),
    "retrieval": Stage(metrics_mod.RetrievalEncoder, _train_retrieval, (), ("loss",), 77),
}


def train_stage(stage: str, cfg: RunConfig, data_dir, out_dir, seed: int,
                epochs: int | None = None) -> dict:
    """Train one stage, or "all" of them in order, writing checkpoints and
    loss logs. The train split is read and checked once per call, after the
    first stage's dependency checkpoints are found."""
    if stage != "all" and stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    if epochs is not None and epochs < 0:
        raise ConfigError(f"epoch count {epochs} is negative")
    os.makedirs(os.fspath(out_dir), exist_ok=True)
    if stage == "all":
        train = _load_train(cfg, data_dir)
        return {s: _train_one(s, cfg, train, out_dir, seed, epochs, _dep_hashes(out_dir, s))
                for s in STAGES}
    deps = _dep_hashes(out_dir, stage)
    return _train_one(stage, cfg, _load_train(cfg, data_dir), out_dir, seed, epochs, deps)


def _dep_hashes(out_dir, stage: str) -> dict:
    return {dep: ckpt.stage_hash(out_dir, dep) for dep in STAGES[stage].deps}


def _load_train(cfg: RunConfig, data_dir) -> list:
    train = load_samples(data_dir, split="train")
    if not train:
        raise DataError(f"{data_dir}: the manifest lists no train samples")
    _check_samples(train, cfg)
    return train


def _train_one(stage: str, cfg: RunConfig, train, out_dir, seed: int, epochs, deps) -> dict:
    """Train one stage on the loaded train split against its loaded
    dependency models and save its checkpoint, recording the dependency
    hashes `deps`, and its loss log."""
    spec = STAGES[stage]
    loaded = {dep: load_model(out_dir, dep, {}) for dep in spec.deps}
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.tag]))
    model = spec.model(cfg, rng)
    # every op's finite check raises NumericsError on a diverging run, so
    # numpy's own overflow warnings would only come first and say less
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        buffers, history = spec.train(
            model, train, loaded, rng, seed,
            epochs if epochs is not None else getattr(cfg, f"epochs_{stage}"))
    ckpt.save_checkpoint(ckpt.stage_path(out_dir, stage), stage, ckpt.params_blob(model),
                         cfg.to_dict(), deps=deps, buffers=buffers)
    _write_loss_log(os.path.join(os.fspath(out_dir), f"{stage}_loss.csv"), cfg, seed,
                    history, spec.columns)
    return {"history": history}


def _check_samples(samples, cfg: RunConfig) -> None:
    """Before any model is built: every sample's motion and features run at
    the config's fps, the rate that training and the beat metrics read them
    at, and every condition fits MATE's length limits."""
    for s in samples:
        rates = {"motion": s.motion.fps}
        if s.features is not None:
            rates["features"] = s.features.frame_rate
        for kind, rate in rates.items():
            if rate != cfg.fps:
                raise DataError(f"sample {s.id}: {kind} rate {rate} is not the config's "
                                f"fps {cfg.fps}")
    for s in samples:
        if s.text_ids is not None and s.text_ids.size > cfg.max_text_len:
            raise DataError(f"sample {s.id}: text of {s.text_ids.size} tokens exceeds "
                            f"max_text_len {cfg.max_text_len}")
        if s.features is not None and s.features.length > cfg.max_audio_len:
            raise DataError(f"sample {s.id}: {s.features.length} feature rows exceed "
                            f"max_audio_len {cfg.max_audio_len}")


def _sample_input(sample):
    if sample.modality == "text":
        return text_input(sample.text_ids)
    return audio_input(sample.features.features)


# -- loading -----------------------------------------------------------------------


class _NoDraws:
    """The rng of a model built to load saved parameters: every constructor
    draw is a parameter, which `load_params` overwrites (its name-set check
    makes sure of each), so a draw is zeros of the requested shape."""

    def uniform(self, low, high, size):
        return np.zeros(size)

    normal = uniform


def load_model(ckpt_dir, stage: str, hashes: dict):
    """The stage's model rebuilt from its checkpoint's recorded run config,
    its dependency hashes verified, its parameters loaded and its buffers
    restored; no weight is drawn. `hashes` is passed to
    `checkpoint.load_stage`."""
    body = ckpt.load_stage(ckpt_dir, stage, hashes)
    path = ckpt.stage_path(ckpt_dir, stage)
    try:
        cfg = config_from_dict(body.get("config"))
    except ConfigError as exc:
        raise DataError(f"{path}: the recorded run config does not load ({exc}); "
                        f"retrain stage {stage}") from exc
    model = STAGES[stage].model(cfg, _NoDraws())
    try:
        ckpt.load_params(model, body["params"])
    except DataError as exc:
        raise DataError(f"{path}: the parameters do not fit the recorded run config "
                        f"({exc}); retrain stage {stage}") from exc
    for name, value in body["buffers"].items():
        default = getattr(model, name, None)
        if not isinstance(default, np.ndarray):
            raise DataError(f"{stage} checkpoint has an unknown buffer {name!r}")
        try:
            value = np.array(value, dtype=default.dtype)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{stage} checkpoint buffer {name!r}: {exc}") from exc
        if value.shape != default.shape:
            raise DataError(f"{stage} checkpoint buffer {name!r} has shape {value.shape}, "
                            f"not {default.shape}")
        setattr(model, name, value)
    return model


# perfbench's train_epoch reloads each stage through these names
def load_mq(ckpt_dir) -> mq_mod.MQModel:
    return load_model(ckpt_dir, "mq", {})


def load_utt_stack(ckpt_dir) -> utt_mod.UTTModel:
    return load_model(ckpt_dir, "utt", {})


def load_dmd(ckpt_dir) -> dmd_mod.DMDModel:
    return load_model(ckpt_dir, "dmd", {})


def load_retrieval(ckpt_dir) -> metrics_mod.RetrievalEncoder:
    return load_model(ckpt_dir, "retrieval", {})


def load_generation_stack(ckpt_dir, decoder: str = "dmd"):
    """Everything `generate` needs, from the checkpoints alone; decoder is
    "vq" or "dmd". The utt and dmd stages both depend on mq, and its file is
    hashed once for both checks."""
    hashes = {}
    stack = {"mq": load_model(ckpt_dir, "mq", hashes),
             "utt": load_model(ckpt_dir, "utt", hashes), "dmd": None}
    if decoder == "dmd":
        stack["dmd"] = load_model(ckpt_dir, "dmd", hashes)
    elif decoder != "vq":
        raise ConfigError(f"unknown decoder {decoder!r}")
    return stack


# -- generation ----------------------------------------------------------------------


def condition_from_request(stack, cfg: RunConfig, modality: str, prompt=None,
                           features=None):
    if modality == "text":
        ids = tokenize(prompt or "")
        if ids.size == 0:
            raise DataError("empty prompt")
        if ids.size > stack["utt"].cfg.max_text_len:
            raise ConfigError(f"a prompt of {ids.size} tokens exceeds max_text_len "
                              f"{stack['utt'].cfg.max_text_len}")
        return text_input(ids), bool((ids == UNK_ID).all())
    if modality == "audio":
        if isinstance(features, AudioFeatureSequence):
            if features.frame_rate != cfg.fps:
                raise DataError(f"features at {features.frame_rate} rows/s do not match "
                                f"the config's fps {cfg.fps}")
            features = features.features
        feats = np.asarray(features, dtype=np.float64)
        want = stack["utt"].cfg.feature_dim
        if feats.ndim != 2 or feats.shape[1] != want:
            raise DataError(f"feature matrix must be [T, {want}]")
        return audio_input(feats), False
    raise ConfigError(f"unknown modality {modality!r}")


def generate_motion(stack, cfg: RunConfig, modality: str, frames: int, seed,
                    prompt=None, features=None, use_z: bool = False,
                    decoder: str = "vq"):
    """Condition -> tokens -> frames. Returns tokens, frames, and flags.

    Every request gets exactly frames / 4 tokens. A batch of requests of
    one modality and one frame count passes a list of seeds plus a list of
    prompts (text) or feature matrices (audio); it returns one result per
    request, each the one it would get alone (conditions of different
    lengths agree to float reordering; the tests pin their tokens), and
    encodes, samples and decodes them together.
    """
    _check_frames(frames)
    _check_decodable(decoder, frames)
    batch = isinstance(seed, (list, tuple))
    seeds = list(seed) if batch else [seed]
    if not seeds:
        raise DataError("a batch of requests is empty")
    prompts, feats = (utt_mod._per_row(value, len(seeds)) if batch else [value]
                      for value in (prompt, features))
    tokens, unk_only = _sample_tokens(stack, cfg, modality, frames, seeds, prompts, feats, use_z)
    frames_out = _decode(stack, decoder, tokens, seeds, modality)
    results = [{"tokens": t, "frames": f, "unk_only": u}
               for t, f, u in zip(tokens, frames_out, unk_only)]
    return results if batch else results[0]


def _sample_tokens(stack, cfg: RunConfig, modality: str, frames: int, seeds, prompts, feats,
                   use_z: bool = False, primitive=None) -> tuple:
    """(token rows [B, frames / 4], unk-only flags) of B requests of one
    modality, each seeded by its entry of `seeds`; nothing is decoded."""
    utt = stack["utt"]
    n_tokens = frames // DOWNSAMPLE
    inputs, unk_only = zip(*(condition_from_request(stack, cfg, modality, p, f)
                             for p, f in zip(prompts, feats)))
    with nm.no_grad(), _blame("the mate model", "utt"):
        cond = mate_encode(utt.mate, list(inputs))
    if cond.length + n_tokens > utt.cfg.max_context:
        raise ConfigError(f"{frames} frames need a context of {cond.length + n_tokens}, "
                          f"more than max_context {utt.cfg.max_context}")
    zs = [np.random.default_rng(np.random.SeedSequence([s, 41])).standard_normal(utt.cfg.z_dim)
          if use_z else None for s in seeds]
    with _blame("the utt model", "utt"):
        tokens = utt_mod.generate_tokens(utt, cond, n_tokens, cfg,
                                         primitive=primitive, z=zs, seed=seeds)
    return tokens, unk_only


@contextlib.contextmanager
def _blame(what: str, stage: str):
    """Run a model: a NumericsError from the block is raised again naming
    `what` failed and the stage to retrain. A model trained to huge weights
    overflows in an engine op, whose finite check raises that error, so
    numpy's own overflow warnings would only come first."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    except NumericsError as exc:
        raise NumericsError(f"{what} failed ({exc}); retrain stage {stage}") from exc


def _check_frames(frames: int) -> None:
    if frames < DOWNSAMPLE or frames % DOWNSAMPLE != 0:
        raise ConfigError(f"target frames {frames} must be a positive multiple of {DOWNSAMPLE}")


def _check_decodable(decoder: str, frames: int) -> None:
    """Before any sampling: the diffusion decoder takes at most MAX_TOKENS
    tokens (DOWNSAMPLE frames each)."""
    tokens = frames // DOWNSAMPLE
    if decoder == "dmd" and tokens > dmd_mod.MAX_TOKENS:
        raise ConfigError(f"{frames} frames need {tokens} tokens, more than the "
                          f"diffusion decoder's max_tokens {dmd_mod.MAX_TOKENS}")


def _decode(stack, decoder: str, tokens, seeds, what: str) -> np.ndarray:
    """Frames [B, 4N, c] for token rows [B, N], row b seeded by seeds[b]
    (the vq decoder draws nothing); `what` names the frames in the
    NumericsError raised when any of them is not finite."""
    if decoder == "vq":
        with _blame("the mq model", "mq"):
            frames = stack["mq"].decode_tokens(tokens)
    elif decoder == "dmd":
        if stack["dmd"] is None:
            raise StageError("requires stage dmd: no diffusion decoder loaded")
        with _blame("the dmd model", "dmd"):
            frames = dmd_mod.decode_tokens_dmd(stack["dmd"], tokens, seeds)
    else:
        raise ConfigError(f"unknown decoder {decoder!r}")
    if not np.isfinite(frames).all():  # the dmd decoder's last update runs outside the engine
        raise NumericsError(f"the {decoder} decoder produced non-finite {what} frames")
    return frames


def transition_motion(stack, cfg: RunConfig, prompt: str, features, seed: int,
                      text_frames: int, audio_frames: int, primitive_len: int = 8,
                      decoder: str = "vq") -> dict:
    """Text segment, then an audio segment conditioned on the last
    `primitive_len` text tokens; the concatenated tokens are decoded in one
    pass and the junction discontinuity is reported."""
    # the text segment has exactly text_frames / DOWNSAMPLE tokens to take the primitive from
    if (min(text_frames, audio_frames) < DOWNSAMPLE
            or not 0 <= primitive_len <= text_frames // DOWNSAMPLE):
        raise ConfigError(f"a transition needs at least {DOWNSAMPLE} text and {DOWNSAMPLE} "
                          f"audio frames and a primitive of 0 to text_frames/{DOWNSAMPLE} "
                          f"tokens, got {text_frames}, {audio_frames} and {primitive_len}")
    _check_decodable(decoder, text_frames + audio_frames)
    cont_frames = audio_frames + DOWNSAMPLE * primitive_len
    _check_frames(text_frames)
    _check_frames(cont_frames)
    # only the joined tokens are decoded
    (text_tokens,), _ = _sample_tokens(stack, cfg, "text", text_frames, [seed], [prompt], [None])
    primitive = text_tokens[text_tokens.size - primitive_len:]
    (cont_tokens,), _ = _sample_tokens(stack, cfg, "audio", cont_frames, [seed + 1], [None],
                                       [features], primitive=[primitive])
    full = np.concatenate([text_tokens, cont_tokens[primitive_len:]])
    boundary_frame = DOWNSAMPLE * text_tokens.size
    frames = _decode(stack, decoder, full[None], [seed], "transition")[0]
    motion = MotionSequence(cfg.fps, frames)
    report = boundary_report(motion, boundary_frame)
    report.update({
        "text_tokens": text_tokens.tolist(),
        "continuation_tokens": cont_tokens.tolist(),
        "full_tokens": full.tolist(),
        "primitive_len": primitive_len,
        "boundary_frame": boundary_frame,
    })
    return {"motion": motion, "report": report}


def boundary_report(motion: MotionSequence, boundary_frame: int) -> dict:
    """Max per-joint jump across the boundary vs the median frame-to-frame
    displacement of the whole output."""
    pos = motion.positions()
    disp = np.linalg.norm(pos[1:] - pos[:-1], axis=-1)  # [T-1, J]
    i = min(max(boundary_frame - 1, 0), disp.shape[0] - 1)
    return {
        "boundary_max_jump": float(disp[i].max()),
        "median_displacement": float(np.median(disp)),
    }


# -- plotting ------------------------------------------------------------------------


def motion_svg(motion: MotionSequence) -> str:
    """Static SVG: root ground-plane trajectory plus per-joint height strips."""
    pos = motion.positions()
    width, height = 640, 160 + 40 * motion.joint_count

    def polyline(points, color):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    # top: root path in the ground plane
    xz = pos[:, 0, [0, 2]]
    span = max(np.ptp(xz[:, 0]), np.ptp(xz[:, 1]), 1e-6)
    scale = 140.0 / span
    cx, cz = xz.mean(axis=0)
    points = [(320 + (x - cx) * scale, 80 - (z - cz) * scale) for x, z in xz]
    parts.append('<text x="8" y="16" font-size="12">root trajectory (x-z)</text>')
    parts.append(polyline(points, "#1f6f8b"))
    # bottom: joint heights over time
    t_axis = np.linspace(20, width - 20, motion.length)
    for j in range(motion.joint_count):
        y = pos[:, j, 1]
        base = 160 + 40 * j + 20
        span_y = max(np.ptp(y), 1e-6)
        ys = base - (y - y.min()) / span_y * 30
        parts.append(f'<text x="8" y="{base - 18}" font-size="10">joint {j} height</text>')
        parts.append(polyline(list(zip(t_axis, ys)), "#8b1f4f"))
    parts.append("</svg>")
    return "\n".join(parts)


# -- evaluation ----------------------------------------------------------------------


def evaluate(cfg: RunConfig, data_dir, ckpt_dir, split: str = "test",
             seed: int = 0, decoder: str = "vq") -> dict:
    """Full metric battery on one split, with cfg.samples_per_input
    generations per sample. Returns a JSON-ready report."""
    samples = load_samples(data_dir, split=split)
    if not samples:
        raise ConfigError(f"split {split!r} is empty")
    _check_samples(samples, cfg)
    # retrieval draws its distractors from the split's other texts
    texts = {tuple(s.text_ids) for s in samples if s.modality == "text"}
    if texts and len(texts) < cfg.retrieval_distractors + 1:
        raise DataError(f"need at least {cfg.retrieval_distractors + 1} distinct texts, "
                        f"have {len(texts)}")
    stack = load_generation_stack(ckpt_dir, decoder=decoder)
    retrieval = load_retrieval(ckpt_dir)
    sigma = cfg.beat_sigma_seconds()

    text_samples = [s for s in samples if s.modality == "text"]
    audio_samples = [s for s in samples if s.modality == "audio"]

    # requests of one modality and length are sampled in groups of batch_size
    groups = {}
    for sample in samples:
        key = (sample.modality, sample.motion.length)
        groups.setdefault(key, []).extend((sample, rep) for rep in range(cfg.samples_per_input))
    generated = {}
    for (modality, frames), requests in groups.items():
        for start in range(0, len(requests), cfg.batch_size):
            group = requests[start:start + cfg.batch_size]
            outs = generate_motion(
                stack, cfg, modality, frames,
                [_sample_seed(seed, rep, s.id) for s, rep in group],
                prompt=[s.sentence for s, _ in group],
                features=[s.features.features if s.features else None for s, _ in group],
                use_z=False, decoder=decoder)
            for (s, _), out in zip(group, outs):
                generated.setdefault(s.id, []).append(MotionSequence(cfg.fps, out["frames"]))

    report = {"config": cfg.to_dict(), "seed": seed, "split": split,
              "decoder": decoder, "samples_per_input": cfg.samples_per_input,
              "counts": {"text": len(text_samples), "audio": len(audio_samples)},
              "metrics": {}}

    for modality, group in (("text", text_samples), ("audio", audio_samples)):
        if not group:
            continue
        gt_motions = [s.motion for s in group]
        gen_motions = [m for s in group for m in generated[s.id]]
        block = {}
        for kind, tag in (("kinetic", "k"), ("geometric", "m")):
            gt_fs = metrics_mod.feature_set(kind, gt_motions)
            gen_fs = _generated_feature_set(kind, gen_motions, modality)
            block[f"fid_{tag}"] = metrics_mod.fid(gen_fs, gt_fs)
            block[f"div_{tag}"] = metrics_mod.diversity(gen_fs)
            block[f"div_{tag}_gt"] = metrics_mod.diversity(gt_fs)
        recon = [metrics_mod.recon_accuracy(generated[s.id][0], s.motion) for s in group]
        for key in ("ape", "ave", "ape_root", "ave_root"):
            block[key] = float(np.mean([r[key] for r in recon]))
        report["metrics"][modality] = block

    if text_samples:
        pairs = [(generated[s.id][0].frames, s.text_ids) for s in text_samples]
        with _blame("the retrieval encoder", "retrieval"):
            top1, top5 = metrics_mod.retrieval_accuracy(
                retrieval, pairs, distractors=cfg.retrieval_distractors,
                trials=cfg.retrieval_trials, seed=seed)
        report["metrics"]["text"]["top1"] = top1
        if cfg.retrieval_distractors >= 5:  # among 5 or fewer candidates top5 is always 1
            report["metrics"]["text"]["top5"] = top5

    if audio_samples:
        aligns, gt_aligns = [], []
        for s in audio_samples:
            if s.features.beat_times is None or s.features.beat_times.size == 0:
                continue
            beats = metrics_mod.detect_motion_beats(generated[s.id][0])
            aligns.append(metrics_mod.beat_align(beats, s.features.beat_times, sigma))
            gt_beats = metrics_mod.detect_motion_beats(s.motion)
            gt_aligns.append(metrics_mod.beat_align(gt_beats, s.features.beat_times, sigma))
        if aligns:
            report["metrics"]["audio"]["beat_align"] = float(np.mean(aligns))
            report["metrics"]["audio"]["beat_align_gt"] = float(np.mean(gt_aligns))

    return report


def _generated_feature_set(kind: str, motions, modality: str):
    """Features of generated motions. A model trained to huge weights decodes
    huge frames whose features overflow: a numerical failure of the model
    (exit 5), where non-finite features of the data stay a DataError (exit 4)."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = np.stack([metrics_mod.EXTRACTORS[kind](m) for m in motions])
    if not np.isfinite(matrix).all():
        raise NumericsError(f"the generated {modality} motions have non-finite {kind} "
                            f"features: the model diverged")
    return metrics_mod.FeatureSet(kind, matrix)


def _sample_seed(seed: int, rep: int, sample_id: str) -> int:
    """Generation seed of one eval sample and repetition; the whole id is
    hashed, so samples with different ids get different seeds."""
    return int(np.random.SeedSequence([seed, rep, zlib.crc32(sample_id.encode())])
               .generate_state(1)[0])
