"""Exact combinatorics of positroids, flag positroids, and matroid quotients.

The package provides the standard positroid representations (decorated
permutations, Grassmann necklaces and conecklaces, explicit-bases matroids,
lattice path matroids), the CW/CCW-arrow rank machinery, every quotient
criterion implemented here together with its brute-force oracle, and
exhaustive generators for desk-scale cross-validation.
"""
from .arrows import (
    ArrowSet,
    ccw_arrows,
    cw_arrows,
    cw_function,
    rank_cyclic_interval,
    rank_upper_bound,
)
from .cyclic import (
    CyclicInterval,
    cyclic_components,
    gale_leq,
    gale_max,
    gale_min,
)
from .decorated import DecoratedPermutation, GrassmannNecklace, shift_interval, uniform_dp
from .enumeration import (
    all_decorated_permutations,
    all_lpms,
    census_records,
    elementary_flag_pairs,
)
from .lpm import Lpm, lpm_bases, lpm_quotient_containment, lpm_quotient_greedy
from .matroids import Matroid, bases_from_necklace, positroid_of, uniform_matroid
from .quotients import (
    QuotientVerdict,
    containment_check,
    exists_shift,
    is_quotient_circuits,
    is_quotient_of_uniform,
    is_quotient_rank,
    oh_xiang_condition,
    recover_shift_set,
    uniform_elementary_check,
)
from .reference import ReferenceReport, run_reference_examples

__all__ = [
    "ArrowSet",
    "CyclicInterval",
    "DecoratedPermutation",
    "GrassmannNecklace",
    "Lpm",
    "Matroid",
    "QuotientVerdict",
    "ReferenceReport",
    "all_decorated_permutations",
    "all_lpms",
    "bases_from_necklace",
    "ccw_arrows",
    "census_records",
    "containment_check",
    "cw_arrows",
    "cw_function",
    "cyclic_components",
    "elementary_flag_pairs",
    "exists_shift",
    "gale_leq",
    "gale_max",
    "gale_min",
    "is_quotient_circuits",
    "is_quotient_of_uniform",
    "is_quotient_rank",
    "lpm_bases",
    "lpm_quotient_containment",
    "lpm_quotient_greedy",
    "oh_xiang_condition",
    "positroid_of",
    "rank_cyclic_interval",
    "rank_upper_bound",
    "recover_shift_set",
    "run_reference_examples",
    "shift_interval",
    "uniform_dp",
    "uniform_elementary_check",
    "uniform_matroid",
]

__version__ = "0.1.0"
