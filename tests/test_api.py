import ast
import dataclasses
import sys
from pathlib import Path

import positroids
import positroids.cli  # noqa: F401  (perfbench reaches the CLI as P.cli)
from positroids import matroids

REMOVED = (
    "CensusRecord",
    "GrassmannMatrix",
    "all_positroids",
    "ccw_function",
    "cyclic_leq",
    "cyclic_sorted",
    "interval_members",
    "validate",
    "validate_matroid",
    "verify_ccw_rank_partition",
)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_every_exported_name_resolves():
    assert len(set(positroids.__all__)) == len(positroids.__all__)
    for name in positroids.__all__:
        assert getattr(positroids, name) is not None, name


def test_removed_aliases_are_gone():
    for name in REMOVED:
        assert name not in positroids.__all__
        assert not hasattr(positroids, name)
    assert not hasattr(positroids.DecoratedPermutation, "to_necklace")
    assert not hasattr(positroids.CyclicInterval, "is_subset_of")
    assert not hasattr(positroids.Matroid, "independent")
    assert not hasattr(positroids.enumeration, "check_census")
    assert not hasattr(positroids.enumeration, "all_positroids")
    assert not hasattr(positroids.enumeration, "FLAG_PAIR_MAX_N")
    assert not hasattr(positroids.quotients, "_gap_is_monotone")
    assert not hasattr(positroids.quotients, "_check_same_ground")
    assert not hasattr(positroids.matroids, "necklace_rank_table")
    assert not hasattr(positroids.cyclic, "cyclic_leq")
    assert not hasattr(positroids.cyclic, "cyclic_sorted")
    assert not hasattr(positroids.CyclicInterval, "from_json")
    assert not hasattr(positroids.arrows, "ccw_function")
    assert not hasattr(positroids.arrows, "_ccw_count")
    assert not hasattr(positroids.arrows, "CW") and not hasattr(positroids.arrows, "CCW")
    assert not hasattr(positroids.ArrowSet, "arrow")
    assert {f.name for f in dataclasses.fields(positroids.ArrowSet)} == {"arrows"}
    assert "orientation" not in {f.name for f in dataclasses.fields(positroids.GrassmannNecklace)}


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attributes on a bare name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def test_perfbench_names_resolve():
    # perfbench/workloads.py reaches the library as P.<name>, and classes'
    # methods as P.<Class>.<name>; every such chain must resolve
    chains = {_dotted(node) for node in ast.walk(ast.parse(PERFBENCH.read_text()))}
    names = sorted(c[2:] for c in chains if c and c.startswith("P."))
    assert {"positroid_of", "ccw_arrows", "Lpm.from_json", "cli.main"} <= set(names)
    unresolved = []
    for name in names:
        value = positroids
        for part in name.split("."):
            value = getattr(value, part, None)
        if value is None:
            unresolved.append(name)
    assert unresolved == []


def test_no_assert_in_library_source():
    # invariants must raise: python -O strips assert statements
    src = Path(positroids.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_global_caches_are_bounded():
    # every lru_cache wrapper reachable from a positroids.* module, once each
    modules = [m for name, m in sys.modules.items() if name == "positroids" or name.startswith("positroids.")]
    caches = {id(v): v for m in modules for v in vars(m).values() if hasattr(v, "cache_info")}
    assert {positroids.positroid_of, positroids.lpm_bases, matroids._cap_table} <= set(caches.values())
    for cached in caches.values():
        maxsize = cached.cache_info().maxsize
        assert type(maxsize) is int and maxsize > 0, cached
