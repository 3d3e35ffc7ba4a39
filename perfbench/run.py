"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train_epoch,generate_mix,eval_test} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from `src/`; nothing
is built. With `--trace 0` the run measures the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it runs one untraced and one traced round
and reports the per-layer metrics plus the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Everything else a run records (environment, output digest, line and test
counts, checkpoint sizes, fixture time) goes to the `info` line before it
and to `.perfbench/results/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = ".perfbench"
SETUP_REPEATS = 3  # set-up runs per untraced run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile leaves at least this many operations above it


def _pin_threads() -> None:
    """One BLAS thread and the serial eval path; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("UDE_THREADS", None)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _tree_hash(root: str, dirs) -> str:
    digest = hashlib.sha256()
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(root, d, "**", "*.py"), recursive=True)):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _load_json(path: str, default):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def _save_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "UDE_THREADS": os.environ.get("UDE_THREADS")}


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def test_count(root: str):
    """Tests collected from tests/, cached per content of src/ and tests/."""
    cache_path = os.path.join(root, STATE_DIR, "test_count.json")
    key = _tree_hash(root, ("src", "tests"))
    cached = _load_json(cache_path, {})
    if cached.get("key") == key:
        return cached["count"]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    try:
        out = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                              "-p", "no:cacheprovider", "tests"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    count = sum(1 for line in out.stdout.splitlines() if "::" in line)
    _save_json(cache_path, {"key": key, "count": count})
    return count


def round_metrics(ops) -> dict:
    """ms per work item, median and tail operation latency for one round.

    The tail is the highest percentile with at least TAIL_BEYOND operations
    beyond it; a round with fewer operations reports its slowest one."""
    secs = sorted(op.seconds for op in ops)
    items = sum(op.items for op in ops)
    n = len(secs)
    if n > TAIL_BEYOND:
        tail, pct = secs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = secs[-1], 100.0
    return {"ms_per_item": 1000.0 * sum(secs) / max(items, 1),
            "latency_p50_s": statistics.median(secs), "latency_tail_s": tail,
            "tail_percentile": pct, "ops": n, "items": items, "wall_s": sum(secs),
            "op_s": [op.seconds for op in ops]}


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


def check_digests(root: str, workload: str, seed: int, digests) -> tuple:
    """Same inputs must give the same outputs: across the rounds of a run,
    traced or not, and across runs of the same workload, seed and code.
    Returns (key, ok) and records a new key's digest."""
    code = _tree_hash(root, ("src", os.path.relpath(HERE, root)))
    key = f"{workload} seed={seed} code={code[:16]}"
    known_path = os.path.join(root, STATE_DIR, "digests.json")
    known = _load_json(known_path, {})
    ok = len(set(digests)) == 1 and known.get(key, digests[0]) == digests[0]
    if ok and key not in known:
        known[key] = digests[0]
        _save_json(known_path, known)
    return key, ok


def layer_values(tracer, overhead_s: float) -> dict:
    values = dict(tracer.counters)
    for span, (calls, total, self_s) in tracer.spans.items():
        values.update({f"{span}.calls": calls, f"{span}.total_s": total,
                       f"{span}.self_s": self_s})
    steps = tracer.calls("numerics.Adam.step")
    tokens = tracer.counters["utt.generate_tokens.tokens"]
    values["numerics.op_calls"] = tracer.op_calls()
    values["numerics.op_calls_per_step"] = tracer.op_calls() / steps if steps else 0.0
    values["utt.rows_per_token"] = (tracer.counters["utt.forward_logits.rows"] / tokens
                                    if tokens else 0.0)
    values["trace.overhead_s"] = overhead_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_epoch", "generate_mix", "eval_test"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "ude")):
        print("perfbench: src/ude not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = _load_json(os.path.join(root, "BENCHMARK.json"), None)
    if spec is None:
        print("perfbench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    from ude.config import RunConfig
    from tracer import Tracer
    from workloads import WORKLOADS, checkpoint_bytes

    work_dir = os.path.join(root, STATE_DIR, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](RunConfig(), args.seed, work_dir)
    workload.prepare()

    setup_s = [_timed(workload.setup)
               for _ in range(1 if args.trace else SETUP_REPEATS)]
    rounds, digests, tracer, overhead_s = [], [], None, None
    start = time.perf_counter()
    while True:
        ops, parts = workload.run_round()
        rounds.append(ops)
        digests.append(_digest(parts))
        if len(rounds) == 1:
            # ru_maxrss still grows in a second round (eval: 93 MB after one,
            # 114 MB after two or three); taking it after the first round,
            # which every run has, keeps it independent of how many fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        # stop before a further round of average length would overrun
        if args.trace or elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            workload.setup()
            traced_start = time.perf_counter()
            ops, parts = workload.run_round()
            traced_wall = time.perf_counter() - traced_start
        rounds.append(ops)
        digests.append(_digest(parts))
        overhead_s = traced_wall - elapsed

    digest = digests[0]
    key, digest_ok = check_digests(root, args.workload, args.seed, digests)

    all_ops = [op for ops in rounds for op in ops]
    failed = sum(not op.ok for op in all_ops)
    per_round = [round_metrics(ops) for ops in rounds]
    e2e = {name: statistics.median(r[name] for r in per_round)
           for name in ("ms_per_item", "latency_p50_s", "latency_tail_s")}
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = peak_rss_mb

    if args.trace:
        values = layer_values(tracer, overhead_s)
        chosen = spec["per_layer"]
    else:
        values = e2e
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "item": workload.item, "digest": digest, "digest_ok": digest_ok,
            "digest_key": key, "rounds": per_round, "setup_samples_s": setup_s,
            "failed_ratio": failed / len(all_ops), "fixture_s": workload.fixture_s,
            "checkpoint_bytes": checkpoint_bytes(workload.ckpt),
            "src_lines": src_lines(root), "test_count": test_count(root),
            "environment": environment()}
    if tracer is not None:
        info["spans"] = {span: {"calls": c, "total_s": t, "self_s": s}
                         for span, (c, t, s) in tracer.spans.items() if c}
        info["counters"] = tracer.counters
    result = {"correct": failed == 0 and digest_ok, "attempted": len(all_ops),
              "failed": failed, "metrics": metrics}
    _save_json(os.path.join(root, STATE_DIR, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
               {"result": result, "info": info})
    shutil.rmtree(work_dir, ignore_errors=True)

    for m in chosen:
        print(f"{m['name']:<44} {values[m['name']]:>16.6g} {m['unit']:<8} "
              f"({m['better']} is better)")
    if tracer is not None:
        print("top spans by self time:")
        top = sorted(info["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:15]
        for span, st in top:
            print(f"  {span:<42} {st['calls']:>9} calls {st['self_s']:>10.3f} s self "
                  f"{st['total_s']:>10.3f} s total")
        print(f"tracing overhead: {overhead_s:.3f} s on a {elapsed:.3f} s round")
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "spans"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _pin_threads()
    sys.exit(main())
