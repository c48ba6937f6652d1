"""Benchmark driver for rackq: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {census,sweep,check,obstruct} \\
        --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (``worker.py``), because a user
pays rackq's cold caches and lazy tables on every invocation.  Passes are
run one after another, a closed loop with one client, until ``--seconds``
have passed and at least ``MIN_PASSES`` have run.  Each pass makes its
inputs from the seed, times every item, and checks every output against
an independent oracle.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
set-up and timed-phase seconds (medians over passes), the median item
latency over all timed samples, the tail item latency over per-item means,
and peak RSS.  With
``--trace 1`` traced and untraced passes alternate, and it reports the
per-layer metrics: calls and self time per pass of each traced function,
the layer counters, the tracing overhead, and the speed-up of a
two-process ``census(6)`` of quandles.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from oracle import VERDICT_KINDS  # noqa: E402
from tracing import SPAN_NAMES  # noqa: E402

WORKLOAD_NAMES = ("census", "sweep", "check", "obstruct")
MIN_PASSES = 5
MIN_TRACE_PASSES = 2
PASS_TIMEOUT_S = 150
LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)


def _rank(n_samples: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` in ``n_samples``, in exact arithmetic."""
    return max(math.ceil(Fraction(str(pct)) * n_samples / 100), 1)


def nearest_rank(values, pct: float) -> float:
    """The smallest sample with at least ``pct`` percent of samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def tail_percentile(n_items: int, repeats: int = 1) -> float:
    """The highest ladder percentile with at least ten samples beyond it,
    for ``n_items`` values that each stand for ``repeats`` timed samples."""
    best = None
    for pct in LADDER:
        if (n_items - _rank(n_items, pct)) * repeats >= 10:
            best = pct
    if best is None:
        raise ValueError(f"{n_items} x {repeats} samples leave fewer than ten beyond any percentile")
    return best


def per_layer_names() -> list[str]:
    names = [f"{span}.{kind}" for span in SPAN_NAMES for kind in ("calls", "self_s")]
    names += ["enumeration.labelled_tables", "enumeration.representatives",
              "enumeration.workers2_speedup", "inner.cache_hit_ratio"]
    names += [f"obstructions.verdicts.{kind}" for kind in VERDICT_KINDS]
    names.append("trace.overhead_s")
    return names


def _spawn(args: list[str], workdir: str) -> dict:
    spawned_at = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(spawned_at), "--workdir", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, trace: bool, scratch: str, index: int) -> dict:
    """One pass in a fresh worker; only the first pass of a run runs the oracle."""
    workdir = os.path.join(scratch, f"pass{index}")
    try:
        return _spawn(["--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
                       "--check", str(int(index == 0))], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _outcome(passes: list) -> tuple[list[str], int]:
    """Wrong outputs and outputs attempted over all passes of a run.

    Every pass has the same inputs, so outputs of later passes are checked
    by comparing their fingerprints with the oracle-checked first pass.
    """
    first = passes[0]["fingerprints"]
    failures = list(passes[0]["failures"])
    for index, p in enumerate(passes[1:], start=1):
        failures += [f"pass {index}, item {i}: output differs from the first pass"
                     for i, (a, b) in enumerate(zip(first, p["fingerprints"])) if a != b]
    return failures, sum(len(p["fingerprints"]) for p in passes)


def measure(workload: str, seed: int, seconds: float, scratch: str):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, False, scratch, len(passes)))
    # The median is taken over all timed samples.  Every pass runs the same
    # items, so for the tail each item counts with its mean over the passes,
    # which keeps one slow pass from deciding it.  The tail percentile is
    # fixed per workload by the fewest passes a run can have, so that every
    # run of the workload reports the same one.
    samples = [ms for p in passes for ms in p["item_ms"]]
    per_item = [statistics.fmean(ms) for ms in zip(*(p["item_ms"] for p in passes))]
    pct = tail_percentile(len(per_item), MIN_PASSES)
    beyond = (len(per_item) - _rank(len(per_item), pct)) * len(passes)
    print(f"passes: {len(passes)}; items: {len(per_item)} per pass; samples: {len(samples)}")
    print(f"item_tail_ms: p{pct:g} of {len(samples)} samples, {beyond} beyond it")
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_ms": (nearest_rank(samples, 50), "ms"),
        "item_tail_ms": (nearest_rank(per_item, pct), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return (metrics, *_outcome(passes))


def measure_traced(workload: str, seed: int, seconds: float, scratch: str):
    traced, plain = [], []
    start = time.perf_counter()
    while (min(len(traced), len(plain)) < MIN_TRACE_PASSES
           or time.perf_counter() - start < seconds):
        index = len(traced) + len(plain)
        traced.append(run_pass(workload, seed, True, scratch, index))
        plain.append(run_pass(workload, seed, False, scratch, index + 1))
    seq = _spawn(["--mode", "census6-seq"], os.path.join(scratch, "seq"))
    par = _spawn(["--mode", "census6-workers2"], os.path.join(scratch, "par"))
    failures, attempted = _outcome(traced + plain)
    if seq["report_sha256"] != par["report_sha256"]:
        failures.append("census(6) reports differ between 1 and 2 workers")
    attempted += 1

    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (statistics.median(p["calls"].get(span, 0) for p in traced), "count")
        metrics[f"{span}.self_s"] = (statistics.median(p["self_s"].get(span, 0.0) for p in traced), "s")
    counters = [p["counters"] for p in traced]
    for name in ("enumeration.labelled_tables", "enumeration.representatives"):
        metrics[name] = (statistics.median(c.get(name, 0) for c in counters), "count")
    metrics["enumeration.workers2_speedup"] = (seq["seconds"] / par["seconds"], "ratio")
    metrics["inner.cache_hit_ratio"] = (
        statistics.median(c["inner.cache_hit_ratio"] for c in counters), "ratio")
    for kind in VERDICT_KINDS:
        name = f"obstructions.verdicts.{kind}"
        metrics[name] = (statistics.median(c.get(name, 0) for c in counters), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain), "s")
    total_self = sum(metrics[f"{span}.self_s"][0] for span in SPAN_NAMES) or 1.0
    top = sorted(SPAN_NAMES, key=lambda s: -metrics[f"{s}.self_s"][0])[:4]
    print("largest self-time shares: " + ", ".join(
        f"{s} {metrics[f'{s}.self_s'][0] / total_self:.0%}" for s in top))
    print(f"census(6) quandles: {seq['seconds']:.3f} s sequential, "
          f"{par['seconds']:.3f} s with 2 workers")
    return {name: metrics[name] for name in per_layer_names()}, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "rackq", "__init__.py")):
        print(f"no rackq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work_root)
    try:
        if args.trace:
            metrics, failures, attempted = measure_traced(
                args.workload, args.seed, args.seconds, scratch)
        else:
            metrics, failures, attempted = measure(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(work_root)

    for line in failures[:20]:
        print(f"WRONG: {line}")
    print(f"failed_ratio: {len(failures)}/{attempted}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
