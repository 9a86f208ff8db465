import ast
from pathlib import Path

import positroids
from positroids import arrows

REMOVED = (
    "CensusRecord",
    "GrassmannMatrix",
    "interval_members",
    "validate",
    "validate_matroid",
    "verify_ccw_rank_partition",
)


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
    for cached in (positroids.lpm_bases, positroids.uniform_matroid, arrows._cw_masks, arrows._ccw_masks):
        maxsize = cached.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0, cached
