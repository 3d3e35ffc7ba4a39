"""Command line entry point: `ude synth|train|generate|transition|eval`.

Exit codes: 0 success, 2 config error, 3 missing/stale stage dependency,
4 data or format error, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import pipeline
from .audio import load_features
from .config import RunConfig, load_config
from .errors import (ConfigError, ContractError, DimensionError, FormatError,
                     MetricError, NumericsError, PreprocessingError, StageError,
                     TokenError, TrainingError)
from .fileio import atomic_write_text
from .motion import MotionSequence, save_motion

DATA_ERRORS = (FormatError, PreprocessingError, DimensionError, ContractError,
               TokenError, MetricError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ude",
                                     description="unified motion generation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--out", required=True, help="output directory or file")

    p_synth = sub.add_parser("synth", help="generate the synthetic dataset")
    common(p_synth)

    p_train = sub.add_parser("train", help="train one stage or all of them")
    common(p_train)
    p_train.add_argument("--stage", required=True,
                         choices=[*pipeline.STAGES, "all"])
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--epochs", type=int, default=None,
                         help="override the per-stage epoch count")

    p_gen = sub.add_parser("generate", help="generate motion from text or audio")
    common(p_gen)
    p_gen.add_argument("--ckpt", required=True, help="checkpoint directory")
    p_gen.add_argument("--modality", required=True, choices=["text", "audio"])
    p_gen.add_argument("--prompt", default=None, help="text prompt")
    p_gen.add_argument("--features", default=None, help="audio feature file")
    p_gen.add_argument("--frames", type=int, default=64)
    p_gen.add_argument("--z", choices=["on", "off"], default="off")
    p_gen.add_argument("--decoder", choices=["vq", "dmd"], default="dmd")
    p_gen.add_argument("--plot", default=None, help="optional SVG plot path")

    p_tr = sub.add_parser("transition", help="text segment then audio continuation")
    common(p_tr)
    p_tr.add_argument("--ckpt", required=True)
    p_tr.add_argument("--prompt", required=True)
    p_tr.add_argument("--features", required=True)
    p_tr.add_argument("--primitive-len", type=int, default=8)
    p_tr.add_argument("--text-frames", type=int, default=64)
    p_tr.add_argument("--audio-frames", type=int, default=64)
    p_tr.add_argument("--decoder", choices=["vq", "dmd"], default="vq")

    p_eval = sub.add_parser("eval", help="run the metric battery on a split")
    common(p_eval)
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default="test")
    p_eval.add_argument("--decoder", choices=["vq", "dmd"], default="vq")
    p_eval.add_argument("--samples-per-input", type=int, default=None)

    return parser


def _resolve(args) -> tuple:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    return cfg, seed


def cmd_synth(args) -> int:
    cfg, seed = _resolve(args)
    counts = pipeline.run_synth(cfg, seed, args.out)
    for key in sorted(counts):
        print(f"{key}: {counts[key]}")
    print(f"manifest: {os.path.join(args.out, 'manifest.jsonl')}")
    return 0


def cmd_train(args) -> int:
    cfg, seed = _resolve(args)
    pipeline.train_stage(args.stage, cfg, args.data, args.out, seed,
                         epochs=args.epochs)
    stages = pipeline.STAGES if args.stage == "all" else [args.stage]
    for stage in stages:
        print(f"wrote {os.path.join(args.out, stage + '.ckpt')}")
    return 0


def _make_parent(path) -> None:
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)


def _write_generation(out_path, cfg: RunConfig, seed: int, result, extra: dict,
                      plot=None) -> None:
    motion = MotionSequence(cfg.fps, result["frames"])
    _make_parent(out_path)
    save_motion(motion, out_path)
    meta = {"config": cfg.to_dict(), "seed": seed,
            "tokens": np.asarray(result["tokens"]).tolist()}
    meta.update(extra)
    atomic_write_text(str(out_path) + ".meta.json", json.dumps(meta, indent=2) + "\n")
    if plot:
        _make_parent(plot)
        atomic_write_text(plot, pipeline.motion_svg(motion) + "\n")


def cmd_generate(args) -> int:
    cfg, seed = _resolve(args)
    if args.modality == "text" and not args.prompt:
        raise ConfigError("--prompt is required for text generation")
    if args.modality == "audio" and not args.features:
        raise ConfigError("--features is required for audio generation")
    stack = pipeline.load_generation_stack(args.ckpt, decoder=args.decoder)
    features = load_features(args.features) if args.features else None
    result = pipeline.generate_motion(
        stack, cfg, args.modality, args.frames, seed,
        prompt=args.prompt, features=features, use_z=args.z == "on",
        decoder=args.decoder)
    if result["unk_only"]:
        print("warning: prompt contains no known words; proceeding with "
              "unknown-word tokens", file=sys.stderr)
    _write_generation(args.out, cfg, seed, result,
                      {"modality": args.modality, "decoder": args.decoder,
                       "z": args.z}, plot=args.plot)
    print(f"wrote {args.out} ({args.frames} frames, "
          f"{len(result['tokens'])} tokens)")
    return 0


def cmd_transition(args) -> int:
    cfg, seed = _resolve(args)
    stack = pipeline.load_generation_stack(args.ckpt, decoder=args.decoder)
    features = load_features(args.features)
    result = pipeline.transition_motion(
        stack, cfg, args.prompt, features, seed,
        text_frames=args.text_frames, audio_frames=args.audio_frames,
        primitive_len=args.primitive_len, decoder=args.decoder)
    _make_parent(args.out)
    save_motion(result["motion"], args.out)
    report = {"config": cfg.to_dict(), "seed": seed}
    report.update(result["report"])
    atomic_write_text(str(args.out) + ".meta.json", json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} (boundary max jump "
          f"{result['report']['boundary_max_jump']:.4f} m, median displacement "
          f"{result['report']['median_displacement']:.4f} m)")
    return 0


def cmd_eval(args) -> int:
    cfg, seed = _resolve(args)
    report = pipeline.evaluate(cfg, args.data, args.ckpt, split=args.split,
                               seed=seed, decoder=args.decoder,
                               samples_per_input=args.samples_per_input)
    _make_parent(args.out)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
    for modality, block in report["metrics"].items():
        keys = ", ".join(f"{k}={v:.4f}" for k, v in sorted(block.items()))
        print(f"{modality}: {keys}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": cmd_synth, "train": cmd_train, "generate": cmd_generate,
                "transition": cmd_transition, "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 3
    except (*DATA_ERRORS, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except (TrainingError, NumericsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
