"""What the benchmark runs and reports: workloads, their input sizes and
pinned outputs, and the end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/run.py --all``; ``test_bench`` checks the two agree.
"""
from __future__ import annotations

from tracer import TRACED, span_names

RUN_SECONDS = 40

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# Outputs at the seed commit.  Census: per-rank [record count, sha256 of the
# JSONL].  Flag sweep: [pair count, sha256 of the ordered "sigma|pi|A" lines].
CENSUS_6 = {
    "0": [1, "6b50e11e05131cf036ff99e94caa920486cbcd43ff271df41999c66a6bb40d0e"],
    "1": [63, "394190220f80d3584a4c5a689b4506955bfa090548876855f7697f4ea2a56fa3"],
    "2": [473, "48014635bf5a0520baa1f0a0cb3a4b1d6a6d9c268b25697064ae4e12951de49f"],
    "3": [883, "d0d655fe3ee7cda77666758fd98ffe48a6b1c702f00b6f1e313ae004d627402a"],
    "4": [473, "2d19abd2062235632666cf7fdad0f287b380dc9a96aeef3f1391831e2f733b3e"],
    "5": [63, "b99492c427472e01c7ee083ad328ab6cd80f667a98fc1ad2531501449f67eaf2"],
    "6": [1, "cc1733a5bd261cc3ec52f2c2bb166052df0a84a32d4ade95865434066759a198"],
}
FLAG_2_6 = {"pairs": [1739, "51321318df47d207e62b3d878953aa06fdc65c7df6c55cfdb3fca59132f996d2"]}

# Passes are kept to about a second so that a run holds many identical
# passes; see README.md for why the figures come from each item's fastest pass.
WORKLOADS = {
    "census": {
        "why": "exhaustive positroid census on [6], all ranks, through cli.main to JSONL: "
        "basis generation and necklaces dominate, quotient and arrow layers never run",
        "params": {"n": 6, "expected": CENSUS_6},
        "seeded": False,
    },
    "flag-sweep": {
        "why": "elementary_flag_pairs(2, 6): a quadratic rank-oracle sweep over cached "
        "positroids, so rank tables, the quotient oracle and caches dominate",
        "params": {"k": 2, "n": 6, "expected": FLAG_2_6},
        "seeded": False,
    },
    "query-mix": {
        "why": "seeded one-off checks on fresh inputs (quotients, shifts, arrows, LPMs, "
        "conversions), nothing reused: per-object set-up cost and the arrow/LPM layers show",
        "params": {"per_kind": 100},
        "seeded": True,
    },
}

# The timing bounds sit at the 0.25 ceiling because the host's speed drifts
# for minutes at a time: two sets of ten runs each gave interquartile spreads
# of up to 0.15 of the median (see README.md).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]

# query-mix query kinds, each named after the CLI command or API call it mirrors
QUERY_KINDS = (
    "check-quotient",
    "check-circuits",
    "check-uniform",
    "lpm-greedy",
    "lpm-containment",
    "shift",
    "exists-shift",
    "containment",
    "recover-shift",
    "arrows",
    "interval-rank",
    "convert",
    "convert-lpm",
)

# Ratios and gauges read at layer boundaries, on top of calls and self time.
LAYER_EXTRAS = [
    ("matroids.bases_from_necklace.yield", "ratio"),
    ("matroids.positroid_of.hit_ratio", "ratio"),
    ("matroids.cache_entries", "count"),
    ("quotients.is_quotient_rank.true_ratio", "ratio"),
    ("reference.run_reference_examples.total_s", "s"),
    ("query.count", "count"),
]
# modules whose summed self time over the timed section is reported
TIMED_MODULES = [m for m in TRACED if m != "reference"]
TRACE_METRICS = [
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
]


def per_layer() -> list[dict]:
    out = []
    for name in span_names():
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, unit in LAYER_EXTRAS:
        better = "higher" if name.endswith(("yield", "hit_ratio", "true_ratio")) else "lower"
        out.append({"name": name, "unit": unit, "better": better})
    for module in TIMED_MODULES:
        out.append({"name": f"{module}.self_s", "unit": "s", "better": "lower"})
    for kind in QUERY_KINDS:
        out.append({"name": f"query.{kind}.p50_ms", "unit": "ms", "better": "lower"})
        out.append({"name": f"query.{kind}.p99_ms", "unit": "ms", "better": "lower"})
    for name, unit in TRACE_METRICS:
        out.append({"name": name, "unit": unit, "better": "lower"})
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }
