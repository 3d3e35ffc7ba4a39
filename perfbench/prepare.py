"""Fixture for the generate and eval workloads: synthesize the dataset and
train one epoch of every stage.

    python3 perfbench/prepare.py CONFIG_JSON SEED DATA_DIR CKPT_DIR

Run as its own process by `workloads.prepare_fixture`, so that its memory
does not count toward the workload's peak RSS.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    config_path, seed, data_dir, ckpt_dir = argv
    from ude import pipeline
    from ude.config import load_config

    cfg = load_config(config_path)
    pipeline.run_synth(cfg, int(seed), data_dir)
    pipeline.train_stage("all", cfg, data_dir, ckpt_dir, int(seed), epochs=1)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    sys.exit(main(sys.argv[1:]))
