"""Gate-list circuit IR: gates, the standard gate library, and ``QCircuit``."""

__all__ = [
    "Gate",
    "GateSpec",
    "QCircuit",
    "IBM_NATIVE_BASIS",
    "TRANSITIVE_COMMUTATION_GATE_SET",
    "decompose_to_basis",
    "gate_matrix",
    "gate_spec",
    "gates_commute_trivially",
    "ghz_circuit",
    "inverse_gate",
    "is_diagonal_gate",
    "is_known_gate",
    "is_self_inverse",
    "known_gate_names",
    "normalize_angle",
    "random_circuit",
    "random_clifford_circuit",
    "register_gate",
    "total_qubits",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # submodule does not execute the whole package.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.circuit.gate import Gate, gates_commute_trivially, normalize_angle, total_qubits
    from repro.circuit.gates import (
        IBM_NATIVE_BASIS,
        TRANSITIVE_COMMUTATION_GATE_SET,
        GateSpec,
        decompose_to_basis,
        gate_matrix,
        gate_spec,
        inverse_gate,
        is_diagonal_gate,
        is_known_gate,
        is_self_inverse,
        known_gate_names,
        register_gate,
    )
    from repro.circuit.circuit import QCircuit, ghz_circuit
    from repro.circuit.random import random_circuit, random_clifford_circuit

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]
