"""Tracer coverage and output-stability tests at a tiny config.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, os.pardir, "src"),
                os.path.join(HERE, os.pardir)]

from ude import mate, pipeline, utt  # noqa: E402
from ude.config import RunConfig  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GenerateMix, Op, WORKLOADS  # noqa: E402

TINY = RunConfig(
    frames=16, families="walk:2,wave:2,jump:2,turn:2",
    families_test="walk:2,wave:2,jump:2,turn:2",
    genres="sway:2,groove:1,pulse:1", genres_test="sway:2,groove:1,pulse:1",
    code_count=8, code_dim=8, mq_hidden=16, embed_dim=16, mate_layers=1,
    mate_heads=2, utt_layers=1, utt_heads=2, z_dim=4, diffusion_steps=2,
    dmd_layers=1, dmd_cond_layers=1, dmd_heads=2, retrieval_distractors=3,
    retrieval_trials=1, retrieval_dim=8)


def make_workload(name, work_dir):
    if name == "generate_mix":
        return GenerateMix(TINY, 3, work_dir, mix={16: 4, 32: 4})
    return WORKLOADS[name](TINY, 3, work_dir)


def test_every_reference_is_patched_and_restored():
    original = mate.encode
    assert pipeline.mate_encode is original and utt.encode is original
    with Tracer().installed():
        assert mate.encode is not original
        assert pipeline.mate_encode is mate.encode and utt.encode is mate.encode
        assert mate.encode.__wrapped__ is original
    assert mate.encode is original
    assert pipeline.mate_encode is original and utt.encode is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_recorded_and_digest_unchanged_by_tracing(name, tmp_path):
    workload = make_workload(name, str(tmp_path))
    workload.prepare()
    workload.setup()
    ops, parts = workload.run_round()
    assert ops and all(op.ok for op in ops)

    tracer = Tracer()
    with tracer.installed():
        workload.setup()
        traced_ops, traced_parts = workload.run_round()
    assert all(op.ok for op in traced_ops)
    assert run._digest(traced_parts) == run._digest(parts)
    missing = [s for s in workload.spans if tracer.calls(s) < 1]
    assert not missing, f"{name}: spans with no calls: {missing}"
    for span, (calls, total, self_s) in tracer.spans.items():
        assert self_s <= total + 1e-9, span


def test_tail_is_highest_percentile_with_ten_beyond():
    ops = [Op(seconds=float(i), items=1, ok=True) for i in range(32)]
    m = run.round_metrics(ops)
    assert m["latency_tail_s"] == 21.0        # values 22..31 lie beyond it
    assert m["tail_percentile"] == 100.0 * 22 / 32
    assert m["latency_p50_s"] == 15.5
    few = run.round_metrics(ops[:4])
    assert few["latency_tail_s"] == 3.0 and few["tail_percentile"] == 100.0
