"""Command line entry point: `ude synth|train|generate|transition|eval`.

Exit codes: 0 success, and one per `ude.errors` class: 2 `ConfigError`
(bad config or request), 3 `StageError` (missing or stale stage checkpoint),
4 `DataError` (bad data, file or format; also any `OSError`) and 5
`NumericsError` (non-finite values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checkpoint, pipeline
from .audio import load_features
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, UdeError
from .fileio import atomic_write
from .motion import MotionSequence, save_motion


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
        print(f"wrote {checkpoint.stage_path(args.out, stage)}")
    return 0


def _make_parent(path) -> None:
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)


def _write_motion(path, motion: MotionSequence, cfg: RunConfig, seed: int, meta: dict) -> None:
    """Save `motion` at `path` and, beside it in `<path>.meta.json`, the
    config and seed followed by `meta`."""
    _make_parent(path)
    save_motion(motion, path)
    meta = {"config": cfg.to_dict(), "seed": seed, **meta}
    atomic_write(str(path) + ".meta.json", (json.dumps(meta, indent=2) + "\n").encode())


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
    motion = MotionSequence(cfg.fps, result["frames"])
    _write_motion(args.out, motion, cfg, seed,
                  {"tokens": result["tokens"].tolist(), "modality": args.modality,
                   "decoder": args.decoder, "z": args.z})
    if args.plot:
        _make_parent(args.plot)
        atomic_write(args.plot, (pipeline.motion_svg(motion) + "\n").encode())
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
    _write_motion(args.out, result["motion"], cfg, seed, result["report"])
    print(f"wrote {args.out} (boundary max jump "
          f"{result['report']['boundary_max_jump']:.4f} m, median displacement "
          f"{result['report']['median_displacement']:.4f} m)")
    return 0


def cmd_eval(args) -> int:
    cfg, seed = _resolve(args)
    report = pipeline.evaluate(cfg, args.data, args.ckpt, split=args.split,
                               seed=seed, decoder=args.decoder)
    _make_parent(args.out)
    atomic_write(args.out, (json.dumps(report, indent=2) + "\n").encode())
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
    except UdeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{DataError.label}: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
