"""Symbolic circuit representation, rewrite rules, and equivalence checking."""

__all__ = [
    "CANCELLATION",
    "CANCELLATION_GATES",
    "COMMUTATIVITY",
    "CircuitRule",
    "EquivalenceReport",
    "MERGE",
    "SWAP",
    "SoundnessReport",
    "app1q",
    "app2q",
    "apply_circuit",
    "apply_gate",
    "apply_sequence",
    "apply_term",
    "cancellation_rule_for",
    "cancels_with",
    "check_commutation_table",
    "check_rule",
    "check_rules",
    "circuits_equivalent_symbolically",
    "commutation_is_transitive_on",
    "commutation_rule_for",
    "conforms_to_coupling",
    "default_circuit_rules",
    "equivalent",
    "equivalent_up_to_measurement",
    "equivalent_up_to_swaps",
    "gate_term",
    "gates_commute",
    "initial_register",
    "merge_rotations",
    "normal_form",
    "registers_equal",
    "remove_swaps_by_relabelling",
    "rewrite_qubit_term",
    "segment_commutation_rule",
    "segment_term",
    "strip_diagonal_before_measure",
    "strip_final_measurements",
    "strip_initial_resets",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # submodule does not execute the whole package.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.symbolic.commutation import commutation_is_transitive_on, gates_commute
    from repro.symbolic.equivalence import (
        EquivalenceReport,
        cancels_with,
        conforms_to_coupling,
        equivalent,
        equivalent_up_to_measurement,
        equivalent_up_to_swaps,
        merge_rotations,
        normal_form,
        remove_swaps_by_relabelling,
        strip_diagonal_before_measure,
        strip_final_measurements,
        strip_initial_resets,
    )
    from repro.symbolic.qubit_semantics import (
        app1q,
        app2q,
        apply_circuit,
        apply_gate,
        circuits_equivalent_symbolically,
        initial_register,
        registers_equal,
        rewrite_qubit_term,
    )
    from repro.symbolic.rules import (
        CANCELLATION,
        CANCELLATION_GATES,
        COMMUTATIVITY,
        MERGE,
        SWAP,
        CircuitRule,
        default_circuit_rules,
    )
    from repro.prover.methods.congruence import (
        apply_sequence,
        apply_term,
        cancellation_rule_for,
        commutation_rule_for,
        gate_term,
        segment_commutation_rule,
        segment_term,
    )
    from repro.symbolic.soundness import SoundnessReport, check_commutation_table, check_rule, check_rules

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]
