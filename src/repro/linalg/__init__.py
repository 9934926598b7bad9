"""Dense-matrix denotational semantics and rotation algebra."""

__all__ = [
    "MAX_DENSE_QUBITS",
    "Quaternion",
    "allclose_up_to_global_phase",
    "apply_gate_to_state",
    "circuit_apply",
    "circuit_unitary",
    "circuits_equivalent",
    "circuits_equivalent_under_relabelling",
    "circuits_equivalent_up_to_permutation",
    "compose_zyz",
    "gate_unitary_on_register",
    "global_phase_between",
    "permutation_unitary",
    "statevector",
    "unitary_distance",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # submodule does not execute the whole package.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.linalg.quaternion import Quaternion, compose_zyz
    from repro.linalg.unitary import (
        MAX_DENSE_QUBITS,
        allclose_up_to_global_phase,
        apply_gate_to_state,
        circuit_apply,
        circuit_unitary,
        circuits_equivalent,
        circuits_equivalent_under_relabelling,
        circuits_equivalent_up_to_permutation,
        gate_unitary_on_register,
        global_phase_between,
        permutation_unitary,
        statevector,
        unitary_distance,
    )

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]
