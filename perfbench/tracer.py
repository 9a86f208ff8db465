"""Per-layer tracer that wraps the public functions of ``positroids`` from
outside the package.

Nothing under ``src/`` is edited: ``Tracer.install`` rebinds module and class
attributes at run time and ``Tracer.restore`` puts every original object
back.  Each wrapped call is a span; a span's self time is its duration minus
the durations of the wrapped spans it encloses, so a private helper's time
counts toward the public function that called it.

Three shapes of callable are handled:

* plain functions and methods, including ``lru_cache`` wrappers, timed per
  call;
* generator functions, whose every resumption is a span, so the work done
  while producing each item is charged to the generator;
* ``cached_property`` attributes, replaced by a new ``cached_property`` over a
  timed function; the value lands in the instance ``__dict__`` on first use,
  so only the first computation is timed.

A name re-bound by ``from .x import y`` lives in several module namespaces;
``install`` finds every ``positroids`` module attribute that is the original
object and rebinds each of them to the one wrapper.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# (module, attribute path) of every traced callable.  ``Class.attr`` paths
# name methods, classmethods and cached properties.
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "enumeration": ("all_decorated_permutations", "census_records", "elementary_flag_pairs"),
    "decorated": (
        "DecoratedPermutation.from_text",
        "DecoratedPermutation.necklace",
        "DecoratedPermutation.rank",
        "DecoratedPermutation.conecklace",
        "DecoratedPermutation.cyclic_shift",
    ),
    "matroids": ("bases_from_necklace", "positroid_of", "uniform_matroid", "Matroid.rank_table"),
    "quotients": (
        "is_quotient_rank",
        "is_quotient_of_uniform",
        "is_quotient_circuits",
        "exists_shift",
        "recover_shift_set",
        "containment_check",
    ),
    "arrows": ("cw_arrows", "ccw_arrows", "rank_cyclic_interval", "rank_upper_bound"),
    "lpm": ("lpm_bases", "lpm_quotient_greedy", "lpm_quotient_containment"),
    "cyclic": ("gale_min", "gale_max"),
    "reference": ("run_reference_examples",),
}

PACKAGE = "positroids"

# lru_cache'd functions whose summed ``currsize`` is ``matroids.cache_entries``.
CACHED = (("matroids", "positroid_of"), ("matroids", "uniform_matroid"), ("lpm", "lpm_bases"))


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # free-form counters filled by observers, e.g. subsets tested
    counters: dict = field(default_factory=dict)


def _observe_bases(args, result, stats: SpanStats) -> None:
    necklace = args[0]
    c = stats.counters
    c["tested"] = c.get("tested", 0) + math.comb(necklace.n, necklace.k)
    c["found"] = c.get("found", 0) + len(result.bases)


def _observe_verdict(args, result, stats: SpanStats) -> None:
    stats.counters["true"] = stats.counters.get("true", 0) + bool(result)


OBSERVERS: dict[str, Callable] = {
    "matroids.bases_from_necklace": _observe_bases,
    "quotients.is_quotient_rank": _observe_verdict,
}


class Tracer:
    """Installs timed wrappers over ``TRACED`` and accumulates ``SpanStats``."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, stats: SpanStats, t0: float, count: bool = True) -> None:
        dt = perf_counter() - t0
        child = self._stack.pop()
        stats.calls += count
        stats.total_s += dt
        stats.self_s += dt - child
        if self._stack:
            self._stack[-1] += dt

    def _timed(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stats, t0)
            if observe is not None:
                observe(args, result, stats)
            return result

        return wrapper

    def _timed_generator(self, name: str, fn: Callable) -> Callable:
        """Counts one call per generator created and times every resumption."""
        stats = self.stats.setdefault(name, SpanStats())

        def resume(gen):
            while True:
                t0 = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(stats, t0, count=False)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return resume(fn(*args, **kwargs))

        return wrapper

    # -- patching ------------------------------------------------------------

    def _modules(self) -> list:
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for module_name, paths in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for path in paths:
                name = f"{module_name}.{path.split('.')[-1]}"
                if "." in path:
                    self._install_member(module, path, name)
                else:
                    self._install_function(module, path, name, modules)
        return self

    def _install_function(self, module, attr: str, name: str, modules: list) -> None:
        original = module.__dict__[attr]
        self.originals[name] = original
        if inspect.isgeneratorfunction(original):
            wrapper = self._timed_generator(name, original)
        else:
            wrapper = self._timed(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _install_member(self, module, path: str, name: str) -> None:
        cls_name, attr = path.split(".")
        cls = module.__dict__[cls_name]
        original = cls.__dict__[attr]
        self.originals[name] = original
        if isinstance(original, functools.cached_property):
            wrapper = functools.cached_property(self._timed(name, original.func))
            wrapper.__set_name__(cls, attr)
        elif isinstance(original, classmethod):
            wrapper = classmethod(self._timed(name, original.__func__))
        else:
            wrapper = self._timed(name, original)
        self._set(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- readout -------------------------------------------------------------

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.calls = 0
            stats.total_s = 0.0
            stats.self_s = 0.0
            stats.counters.clear()

    def cache_info(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, currsize) of each cached function, read through the
        original ``lru_cache`` objects so the wrappers do not interfere."""
        out = {}
        for module_name, attr in CACHED:
            info = self.originals[f"{module_name}.{attr}"].cache_info()
            out[f"{module_name}.{attr}"] = (info.hits, info.misses, info.currsize)
        return out

    def snapshot(self) -> dict[str, dict]:
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s,
                "counters": dict(s.counters),
            }
            for name, s in self.stats.items()
        }


def span_names() -> list[str]:
    """``module.function`` for every traced callable, in ``TRACED`` order."""
    return [f"{m}.{p.split('.')[-1]}" for m, paths in TRACED.items() for p in paths]

