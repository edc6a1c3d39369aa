"""Chain-condition integer families: exact enumeration and analytic tools.

The package studies sets of integers whose prime factorizations satisfy a
chain condition (each new prime is bounded by a threshold computed from the
part already assembled).  It provides exact membership tests, enumeration
and counting engines, solvers for the associated delay differential
equation and density kernel, closed-form constants, exact partition
identities, and a reproduction harness for desk-scale experiments.

Public names resolve on first access (PEP 562): ``import densediv`` loads
no submodule, and ``densediv.X`` imports only the submodule defining X.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("arith", (
            "FactorStats", "SpfTable", "build_spf_table",
            "divisor_ratio_bound", "factor_stats", "factorize", "is_prime",
            "primes_up_to", "rough_count", "rough_counts",
        )),
        ("constants", (
            "DENSITY_SCALE", "EULER_GAMMA", "ConstantsBundle",
            "constants_bundle", "expected_distinct_factors",
        )),
        ("errors", (
            "ConfigurationError", "DensedivError", "DomainError",
            "ResourceCapError", "SieveRangeError",
        )),
        ("experiments", (
            "ExperimentReport", "ReportRow", "concentration_experiment",
            "count_ratio_experiment", "cq_structure_experiment",
            "margenstern_tables", "mean_omega_experiment", "phi_approx_scan",
            "tau_normal_order_experiment",
        )),
        ("families", (
            "FAMILY_KINDS", "ThetaFamily", "is_dense_by_divisor_scan",
            "is_dense_by_ratio_bound", "is_member",
            "is_practical_by_subset_sums", "parse_t",
        )),
        ("generate", (
            "MemberRecord", "MomentSummary", "collect_moments",
            "count_members_multi", "deviation_bound", "iter_members",
            "member_columns",
        )),
        ("identities", (
            "CheckResult", "SeriesTerm", "check_log_moment_limit",
            "check_log_moment_series", "check_partition_identity",
            "check_shifted_partition_identity", "check_weight_series",
            "check_weight_shift", "log_moment_gap", "series_term",
            "weight_series_partial_sum", "weighted_log_moment_sum",
        )),
        ("specfun", (
            "BUCHSTAB_LIMIT", "SolverConfig", "TabulatedFunction",
            "mertens_product", "rough_count_approx", "tabulate_buchstab",
            "tabulate_density_kernel",
        )),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
