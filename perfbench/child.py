"""One benchmark pass in a fresh interpreter.

Usage (normally spawned by run.py): ``python3 perfbench/child.py '<config JSON>'``.

The pass imports ``positroids`` from the checkout's ``src/``, runs the
known-answer suite as its correctness gate, builds the workload's inputs and
times the workload once.  With ``check`` set it then checks the outputs
outside the timed section; every pass reports a digest of its outputs.
``setup_s`` runs from the parent's spawn time (the same monotonic clock) to
the first timed operation.  It prints one JSON object on stdout.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import positroids

    if not os.path.abspath(positroids.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"positroids imported from {positroids.__file__}, not {src}")
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer().install() if cfg["trace"] else None
    report = positroids.run_reference_examples()
    setup_stats = tracer.snapshot() if tracer else None
    workload = WORKLOADS[cfg["workload"]](cfg["params"], cfg["seed"], cfg["workdir"])
    workload.setup()
    out = {"reference_ok": report.ok, "sizes": workload.sizes()}
    if tracer:
        tracer.reset()
        cache_before = tracer.cache_info()
    out["setup_s"] = time.monotonic() - cfg["spawned"]
    t0 = time.perf_counter()
    items, latencies = workload.run()
    out["timed_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["stats"] = tracer.snapshot()
        out["setup_stats"] = setup_stats
        out["cache_before"] = cache_before
        out["cache_after"] = tracer.cache_info()
        tracer.restore()
    out.update(items=items, latencies=latencies, digests=workload.digests())
    if cfg["check"]:
        out["attempted"], out["failed"] = workload.check()
        out["failures"] = getattr(workload, "failures", [])
    if hasattr(workload, "by_kind"):
        out["by_kind"] = workload.by_kind()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
