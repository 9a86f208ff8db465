"""Tests for the benchmark harness and its tracer, at small input sizes.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import positroids  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import CACHED, Tracer, span_names  # noqa: E402

# outputs at the seed commit for the small sizes used here
CENSUS_5 = {
    "0": [1, "f67bcfeeaf369f7aaf374374db075c53d6e2320d95715eea58b2f1420a5353be"],
    "1": [31, "a37ce3ee712399a94792c20a5fa32b0b1c51016d30ec5269aac2beb102752617"],
    "2": [131, "ca5809cd97307b41006002fb29edb6610066934ed1d2abf990ff192acb73a2ef"],
    "3": [131, "2186ba3c9553a74afa11b17ec6f17ed6ec90bceac352e3a525ed3c4970bb6812"],
    "4": [31, "6ef2dd1907302b5e373e4fdf73f8393da316231a15d17e70470fa9d69d649abf"],
    "5": [1, "29d6668623ff188d0a87868ebc29c6837de2aa2676ad7ae9b6ca639d1ff684f7"],
}
FLAG_2_4 = {"pairs": [109, "a63413cb541072ce15e13f4dc4e6635831d708ea61c8d947cb7cd3fc941c50d5"]}
SMALL = {
    "census": {"n": 5, "expected": CENSUS_5},
    "flag-sweep": {"k": 2, "n": 4, "expected": FLAG_2_4},
    "query-mix": {"per_kind": 8},
}


def clear_caches() -> None:
    for module_name, attr in CACHED:
        getattr(sys.modules[f"positroids.{module_name}"], attr).cache_clear()


def bindings() -> dict:
    """Identity of every attribute of every positroids module and class."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "positroids" or key.startswith("positroids.")):
            continue
        for name, value in vars(mod).items():
            out[(key, name)] = id(value)
            if isinstance(value, type) and value.__module__ == key:
                for attr, member in vars(value).items():
                    out[(key, name, attr)] = id(member)
    return out


def run_once(name: str, workdir: str, traced: bool, params: dict | None = None):
    """(workload, wall seconds, tracer or None) for one pass with cold caches."""
    clear_caches()
    w = workloads.WORKLOADS[name](params or SMALL[name], 7, workdir)
    w.setup()
    tracer = Tracer().install() if traced else None
    try:
        t0 = time.perf_counter()
        w.run()
        wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    return w, wall, tracer


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def test_every_patched_attribute_is_restored(self):
        before = bindings()
        tracer = Tracer().install()
        during = bindings()
        self.assertGreater(sum(before[k] != during.get(k) for k in before), len(span_names()))
        tracer.restore()
        self.assertEqual(before, bindings())

    def test_rebound_names_share_one_wrapper(self):
        with Tracer() as tracer:
            wrapper = positroids.matroids.positroid_of
            self.assertIsNot(wrapper, tracer.originals["matroids.positroid_of"])
            for mod in (positroids, positroids.enumeration, positroids.quotients, positroids.arrows):
                self.assertIs(mod.positroid_of, wrapper)

    def test_cached_property_timed_once(self):
        with Tracer() as tracer:
            dp = positroids.DecoratedPermutation.from_text("4 5 6 1 2 3")
            dp.necklace
            dp.necklace
            self.assertEqual(tracer.stats["decorated.necklace"].calls, 1)
            self.assertEqual(dp.necklace, positroids.uniform_dp(3, 6).necklace)

    def test_generator_counts_calls_and_times_resumptions(self):
        expected = list(positroids.all_decorated_permutations(3))
        with Tracer() as tracer:
            items = list(positroids.all_decorated_permutations(3))
        stats = tracer.stats["enumeration.all_decorated_permutations"]
        self.assertEqual(items, expected)
        self.assertEqual(stats.calls, 1)
        self.assertGreater(stats.total_s, 0.0)

    def test_traced_and_untraced_digests_agree(self):
        for name in SMALL:
            with self.subTest(workload=name):
                plain, _, _ = run_once(name, self.tmp.name, traced=False)
                traced, _, _ = run_once(name, self.tmp.name, traced=True)
                self.assertEqual(plain.digests(), traced.digests())
                self.assertEqual(plain.check()[1], 0)
                self.assertEqual(traced.check()[1], 0)

    def test_self_time_never_exceeds_total(self):
        for name in SMALL:
            with self.subTest(workload=name):
                _, _, tracer = run_once(name, self.tmp.name, traced=True)
                for span, stats in tracer.stats.items():
                    self.assertGreaterEqual(stats.self_s, 0.0, span)
                    self.assertLessEqual(stats.self_s, stats.total_s + 1e-9, span)

    def test_self_times_sum_to_wall_within_overhead(self):
        # census spends all of its timed section inside cli.main, so what the
        # spans do not cover is the harness loop plus the tracer's own cost
        params = {"n": 6}
        _, untraced, _ = run_once("census", self.tmp.name, traced=False, params=params)
        _, traced, tracer = run_once("census", self.tmp.name, traced=True, params=params)
        attributed = sum(s.self_s for s in tracer.stats.values())
        overhead = traced - untraced
        self.assertLessEqual(attributed, traced)
        self.assertLessEqual(traced - attributed, max(overhead, 0.0) + 0.02 * traced)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.assertEqual(json.load(fh), spec.benchmark_json())

    def test_metric_names_are_unique_and_cover_kinds(self):
        names = [m["name"] for m in spec.END_TO_END + spec.per_layer()]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(tuple(workloads.KINDS), spec.QUERY_KINDS)

    def test_pinned_outputs_at_small_size(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("census", "flag-sweep"):
                w, _, _ = run_once(name, tmp, traced=False)
                self.assertEqual(w.check()[1], 0)
                self.assertEqual(w.digests(), SMALL[name]["expected"])

    def test_wrong_answer_is_counted_as_failed(self):
        w, _, _ = run_once("query-mix", "", traced=False)
        kind = w.queries[0][0]
        w.answers[0] = workloads.Crashed("injected")
        self.assertEqual(w.check()[1], 1, kind)


class EndToEndTest(unittest.TestCase):
    @staticmethod
    def fake_pass(latencies: list[float], setup_s: float) -> dict:
        return {"items": len(latencies), "timed_s": sum(latencies), "latencies": latencies,
                "setup_s": setup_s, "peak_rss_mb": 20.0}

    def test_figures_come_from_each_items_fastest_pass(self):
        import run

        passes = [self.fake_pass([0.001, 0.004], 0.3), self.fake_pass([0.003, 0.002], 0.1),
                  self.fake_pass([0.002, 0.003], 0.2)]
        values, detail = run.end_to_end(passes, attempted=6, failed=0)
        self.assertAlmostEqual(values["items_per_s"], 2 / 0.003)
        self.assertAlmostEqual(values["latency_p50_ms"], 1.5)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertEqual(values["ok_frac"], 1.0)
        self.assertAlmostEqual(detail["best_pass"]["items_per_s"], 2 / 0.005)


if __name__ == "__main__":
    unittest.main()
