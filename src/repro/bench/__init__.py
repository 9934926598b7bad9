"""Benchmark harnesses reproducing the paper's tables and figures."""

__all__ = [
    "BenchmarkCircuit",
    "CaseStudyResult",
    "DEFAULT_SUITE",
    "Figure11Row",
    "Table2Row",
    "build_circuit",
    "pass_kwargs_for",
    "qasmbench_suite",
    "rule_usage_report",
    "run_case_studies",
    "run_figure11",
    "run_kernel_bench",
    "run_solver_bench",
    "run_table2",
    "small_suite",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # harness (the compile benchmark needs only figure11 and qasmbench) does
    # not load the verification engine behind table2 and solver.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.bench.case_studies import CaseStudyResult, run_case_studies
    from repro.bench.figure11 import Figure11Row, run_figure11
    from repro.bench.kernel import run_kernel_bench
    from repro.bench.qasmbench import (
        DEFAULT_SUITE,
        BenchmarkCircuit,
        build_circuit,
        qasmbench_suite,
        small_suite,
    )
    from repro.bench.solver import run_solver_bench
    from repro.bench.table2 import Table2Row, pass_kwargs_for, rule_usage_report, run_table2

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]
