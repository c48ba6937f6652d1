"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
A pass imports rackq from the checkout's ``src``, makes the inputs (the
set-up, timed from the moment ``run.py`` spawned this process), runs every
item once in the timed phase, and then fingerprints every output and, with
``--check 1``, checks them against the oracle.  With
``--trace 1`` the rackq layers are wrapped before the inputs are made, so
set-up work such as building tables is traced too.

``--mode census6-seq`` and ``--mode census6-workers2`` time one
``census(6)`` of quandles instead, sequential or with two worker
processes, for the process-pool speed-up.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rackq  # noqa: E402

if os.path.dirname(os.path.abspath(rackq.__file__)) != os.path.join(ROOT, "src", "rackq"):
    sys.exit(f"rackq was imported from {rackq.__file__}, not from this checkout")

import tracing  # noqa: E402
import workloads  # noqa: E402


def _census6(workers) -> dict:
    kwargs = {"workers": workers} if workers else {}
    start = time.perf_counter()
    report = rackq.census(6, rackq.EnumerationFilter(require_quandle=True), **kwargs)
    seconds = time.perf_counter() - start
    text = rackq.emit_report(report)
    return {"seconds": seconds, "report_sha256": hashlib.sha256(text.encode()).hexdigest()}


def _cache_hit_ratio(caches) -> float:
    """Hits over lookups of the inner caches that the program still has."""
    infos = [fn.cache_info() for fn in caches if hasattr(fn, "cache_info")]
    lookups = sum(i.hits + i.misses for i in infos)
    return sum(i.hits for i in infos) / lookups if lookups else 0.0


def one_pass(workload: str, seed: int, trace: bool, check: bool, spawned_at: float,
             workdir: str) -> dict:
    caches = [getattr(rackq.inner, name, None) for name in ("orbit_partition", "rack_profile")]
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    wl = workloads.WORKLOADS[workload]()
    items = wl.make_inputs(seed, workdir)
    ready = time.perf_counter()
    if len(items) != wl.items_per_pass:
        raise RuntimeError(f"{workload} made {len(items)} items, expected {wl.items_per_pass}")

    outputs, item_s = [], []
    clock = time.perf_counter
    start = clock()
    for item in items:
        t0 = clock()
        outputs.append(wl.run(item))
        item_s.append(clock() - t0)
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": ready - spawned_at,
        "wall_s": wall_s,
        "item_ms": [s * 1000 for s in item_s],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        spans = tracer.take()
        tracer.uninstall()
        self_s, calls = tracing.self_times(spans)
        result["self_s"] = self_s
        result["calls"] = calls
        result["counters"] = {
            **wl.counters(items, outputs),
            "inner.cache_hit_ratio": _cache_hit_ratio(caches),
        }
    result["fingerprints"] = [wl.fingerprint(item, out) for item, out in zip(items, outputs)]
    result["failures"] = wl.check(items, outputs) if check else []
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", default="pass", choices=("pass", "census6-seq", "census6-workers2"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--workdir")
    args = parser.parse_args()
    if args.mode == "pass":
        result = one_pass(args.workload, args.seed, bool(args.trace), bool(args.check),
                          args.spawned_at, args.workdir)
    else:
        result = _census6(2 if args.mode == "census6-workers2" else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
