#!/usr/bin/env bash
# Run the whole CLI sequence (synth, train all, generate with both decoders
# and both modalities, transition, eval) into one directory, so that two runs
# can be compared file by file with `diff -r`.
#
#     scripts/cli_sequence.sh OUT_DIR CONFIG SEED EPOCHS
#
# OUT_DIR must not exist yet; it gets data/, ckpt/, gen/, eval_vq.json,
# eval_dmd.json and stdout.txt, the commands' standard output. The package is
# imported from PYTHONPATH, so pointing that at another checkout's src/ runs
# that revision on the same inputs.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 OUT_DIR CONFIG SEED EPOCHS" >&2
  exit 2
fi
out=$1
config=$(realpath "$2")
seed=$3
epochs=$4

# the commands run inside OUT_DIR, so that what they print names no path
# outside it; a relative PYTHONPATH entry is made absolute first
if [ -n "${PYTHONPATH:-}" ]; then
  PYTHONPATH=$(python -c 'import os, sys; print(os.pathsep.join(
    os.path.abspath(p) for p in sys.argv[1].split(os.pathsep)))' "$PYTHONPATH")
  export PYTHONPATH
fi
mkdir "$out"
cd "$out"
(
  ude() { python -m ude.cli "$@" --config "$config" --seed "$seed"; }
  ude synth --out data
  ude train --stage all --data data --out ckpt --epochs "$epochs"
  # the test split's first audio sample (audio_test_00020 at tests/tiny.json)
  features=$(ls data/conds/audio_test_*.udef | head -n 1)
  for decoder in vq dmd; do
    for z in on off; do
      ude generate --ckpt ckpt --modality text --prompt "a person walks forward" \
        --decoder $decoder --z $z --frames 16 --out gen/text_${decoder}_$z.udem
      ude generate --ckpt ckpt --modality audio --features $features \
        --decoder $decoder --z $z --frames 16 --out gen/audio_${decoder}_$z.udem
    done
    ude transition --ckpt ckpt --prompt "a person waves" --features $features \
      --decoder $decoder --primitive-len 2 --text-frames 16 --audio-frames 16 \
      --out gen/trans_$decoder.udem
    ude eval --ckpt ckpt --data data --decoder $decoder --out eval_$decoder.json
  done
) > stdout.txt
