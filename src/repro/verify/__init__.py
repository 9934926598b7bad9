"""The Giallar verifier: push-button verification for compiler passes.

The re-exports below load on first attribute access (PEP 562), so importing
one submodule — ``repro.verify.facts`` from a utility module, say — does
not pull in the discharge pipeline, the counterexample search or numpy.
``repro.verify.discharge`` is the submodule; its entry point is
``repro.verify.discharge.discharge``.
"""

__all__ = [
    "AncillaAllocationPass",
    "AnalysisPass",
    "BasePass",
    "BoundedTrial",
    "BoundedValidationReport",
    "CounterExample",
    "DischargeResult",
    "Fact",
    "GeneralPass",
    "LayoutApplicationPass",
    "LayoutSelectionPass",
    "PassAnalysis",
    "PathExplorer",
    "PathRecord",
    "PropertySet",
    "RoutingPass",
    "Segment",
    "SubgoalOutcome",
    "Subgoal",
    "SymBool",
    "SymCircuit",
    "SymGate",
    "SymIndex",
    "SymInt",
    "VerificationResult",
    "VerificationSession",
    "analyze_pass",
    "collect_runs",
    "conditional_circuits_equivalent",
    "confirm_counterexample",
    "iterate_all_gates",
    "route_each_gate",
    "search_counterexample",
    "sweep_bounded_validation",
    "validate_pass_bounded",
    "verify_pass",
    "verify_passes",
    "while_gate_remaining",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # submodule does not execute the whole package.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.verify.bounded import (
        BoundedTrial,
        BoundedValidationReport,
        sweep_bounded_validation,
        validate_pass_bounded,
    )
    from repro.verify.counterexample import (
        CounterExample,
        conditional_circuits_equivalent,
        confirm_counterexample,
        search_counterexample,
    )
    from repro.verify.facts import Fact
    from repro.verify.passes import (
        AncillaAllocationPass,
        AnalysisPass,
        BasePass,
        GeneralPass,
        LayoutApplicationPass,
        LayoutSelectionPass,
        PropertySet,
        RoutingPass,
    )
    from repro.verify.preprocessor import PassAnalysis, analyze_pass
    from repro.verify.session import (
        DischargeResult,
        PathExplorer,
        PathRecord,
        Subgoal,
        VerificationSession,
    )
    from repro.verify.symvalues import Segment, SymBool, SymCircuit, SymGate, SymIndex, SymInt
    from repro.verify.templates import (
        collect_runs,
        iterate_all_gates,
        route_each_gate,
        while_gate_remaining,
    )
    from repro.verify.verifier import (
        SubgoalOutcome,
        VerificationResult,
        verify_pass,
        verify_passes,
    )

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]
