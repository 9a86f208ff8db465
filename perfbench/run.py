#!/usr/bin/env python3
"""Benchmark harness for ``positroids`` (stdlib only).

One run of one workload:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Every workload, untraced then traced, with a summary table; this also
regenerates ``BENCHMARK.json`` from ``perfbench/spec.py``:

    python3 perfbench/run.py --all

A run is a closed loop with one client.  Passes run one after another, each
in a fresh child process (``child.py``), so caches start empty and a pass's
peak RSS is its own; no threads or pools are used.  Every pass of a run does
identical work, item for item.  A run starts passes for ``--seconds`` of wall
time, and starts none that would end past it (but always makes
``MIN_PASSES``).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics.  With ``--trace 1`` traced and untraced passes alternate;
the per-layer metrics come from the fastest traced pass, and the tracing
overhead is its timed seconds minus those of the fastest untraced pass.  The
line before the result is a JSON ``detail`` record with provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
# a run makes at least this many passes, however long they take
MIN_PASSES = 3
# a child still running at RUN_LIMIT_S is killed, so a run ends within 180 s
RUN_LIMIT_S = 170.0

import spec  # noqa: E402  (after HERE, which is on sys.path as the script dir)
from tracer import span_names  # noqa: E402

UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.per_layer()}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, index: int, workdir: str, started: float, **flags) -> dict:
    """Run one child pass to completion; ``flags`` are ``trace`` and ``check``."""
    cfg = {
        "root": ROOT,
        "workload": workload,
        "params": spec.WORKLOADS[workload]["params"],
        "seed": seed,
        "workdir": workdir,
        "trace": flags.get("trace", False),
        "check": flags.get("check", False),
    }
    load_before = os.getloadavg()
    cfg["spawned"] = time.monotonic()
    timeout = max(1.0, started + RUN_LIMIT_S - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(cfg)], capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass {index} of {workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"pass {index} of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["loadavg"] = [load_before, os.getloadavg()]
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    """Rates and latencies from each item's fastest pass; set-up and RSS as
    medians over passes.

    Every pass does the same items in the same order, so item i's latency
    differs between passes only by how fast the shared host ran at that
    moment, which changes from one second to the next.  The minimum over
    passes of each item's latency is its cost least disturbed by other
    tenants.  ``items_per_s`` is the item count over the sum of those
    minima, and the latency quantiles are taken over them.  The detail
    record also carries the best-pass and median-pass figures.
    """
    samples = [p["latencies"] for p in passes]
    best_ms = [min(column) * 1e3 for column in zip(*samples)]
    rates = [p["items"] / p["timed_s"] for p in passes]
    p50 = statistics.median(best_ms)
    p99 = quantile(best_ms, 99)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "items_per_s": len(best_ms) / (sum(best_ms) / 1e3),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {
        "passes": len(passes),
        "timed_s": sum(p["timed_s"] for p in passes),
        "items_per_pass": passes[0]["items"],
        "latency_samples_per_pass": len(best_ms),
        "samples_above_p99": sum(x > p99 for x in best_ms),
        "pass_items_per_s": rates,
        "best_pass": {
            "items_per_s": max(rates),
            "latency_p50_ms": min(statistics.median(s) for s in samples) * 1e3,
            "latency_p99_ms": min(quantile(s, 99) for s in samples) * 1e3,
        },
        "median_pass": {
            "items_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(statistics.median(s) for s in samples) * 1e3,
            "latency_p99_ms": statistics.median(quantile(s, 99) for s in samples) * 1e3,
        },
        "fail_frac": failed / attempted,
        "setups_s": [p["setup_s"] for p in passes],
    }
    return values, detail


def per_layer(untraced: dict, traced: dict) -> dict:
    stats, setup_stats = traced["stats"], traced["setup_stats"]
    values: dict[str, float] = {}
    for name in span_names():
        source = setup_stats if name.startswith("reference.") else stats
        values[f"{name}.calls"] = source[name]["calls"]
        values[f"{name}.self_s"] = source[name]["self_s"]
    bases = stats["matroids.bases_from_necklace"]["counters"]
    values["matroids.bases_from_necklace.yield"] = ratio(bases.get("found", 0), bases.get("tested", 0))
    before, after = traced["cache_before"], traced["cache_after"]
    hits = after["matroids.positroid_of"][0] - before["matroids.positroid_of"][0]
    misses = after["matroids.positroid_of"][1] - before["matroids.positroid_of"][1]
    values["matroids.positroid_of.hit_ratio"] = ratio(hits, hits + misses)
    values["matroids.cache_entries"] = sum(info[2] for info in after.values())
    oracle = stats["quotients.is_quotient_rank"]
    values["quotients.is_quotient_rank.true_ratio"] = ratio(oracle["counters"].get("true", 0), oracle["calls"])
    values["reference.run_reference_examples.total_s"] = setup_stats["reference.run_reference_examples"]["total_s"]
    for module in spec.TIMED_MODULES:
        values[f"{module}.self_s"] = sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == module)
    by_kind = untraced.get("by_kind", {})
    for kind in spec.QUERY_KINDS:
        lat = by_kind.get(kind) or [0.0]
        values[f"query.{kind}.p50_ms"] = statistics.median(lat) * 1e3
        values[f"query.{kind}.p99_ms"] = quantile(lat, 99) * 1e3
    attributed = sum(s["self_s"] for s in stats.values())
    values["trace.untraced_s"] = untraced["timed_s"]
    values["trace.traced_s"] = traced["timed_s"]
    values["trace.overhead_s"] = traced["timed_s"] - untraced["timed_s"]
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced["timed_s"]
    values["trace.unattributed_s"] = traced["timed_s"] - attributed
    values["query.count"] = sum(len(v) for v in by_kind.values())
    return values


def fastest(passes: list[dict]) -> dict:
    return min(passes, key=lambda p: p["timed_s"])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def provenance(seed: int, workload: str) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
        "seed_used": spec.WORKLOADS[workload]["seeded"],
    }


def git_sha() -> str | None:
    """HEAD read from .git without running git; None outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over the library and harness sources, which identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "positroids"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result, detail): result has the keys the last stdout line carries.

    Pass 0 has its outputs checked against the pinned values or the
    independent routes; every later pass must reproduce pass 0's digests.
    """
    started = time.monotonic()
    workdir = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        def go(index: int, **flags) -> dict:
            return spawn(workload, seed, index, workdir, started, **flags)

        passes, traced = [go(0, check=True)], []
        last = time.monotonic() - started
        while True:
            elapsed = time.monotonic() - started
            step = 2 * last if trace else last
            if len(passes) >= MIN_PASSES and elapsed + step > seconds:
                break
            if trace:
                traced.append(go(len(passes) + len(traced), trace=True))
            passes.append(go(len(passes) + len(traced)))
            last = (time.monotonic() - started - elapsed) / (2 if trace else 1)
        first, every = passes[0], passes + traced
        attempted = first["attempted"] * len(every)
        failed = first["failed"] + sum(first["attempted"] for p in every[1:] if p["digests"] != first["digests"])
        detail = {
            "workload": workload,
            "trace": trace,
            "provenance": provenance(seed, workload),
            "sizes": first["sizes"],
            "loadavg": [p["loadavg"] for p in every],
            "failures": first["failures"],
        }
        if trace:
            metrics = per_layer(fastest(passes), fastest(traced))
        else:
            metrics, detail["end_to_end"] = end_to_end(passes, attempted, failed)
        result = {
            "correct": failed == 0 and all(p["reference_ok"] for p in every),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))


def write_benchmark_json() -> str:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")
    return path


def run_all(seed: int, seconds: int) -> int:
    ok = True
    for workload in spec.WORKLOADS:
        for trace in (False, True):
            result, detail = run(workload, seed, seconds, trace)
            ok = ok and result["correct"]
            print(f"== {workload} (trace {int(trace)}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"wrote {write_benchmark_json()}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "positroids")):
        print(f"error: no positroids sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required without --all")
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
