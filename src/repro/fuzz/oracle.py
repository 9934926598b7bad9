"""The differential oracle: run a pass for real and judge the output.

This is the concrete half of the campaign's differential pair.  The
symbolic half (the verifier's verdict) is computed once per pass by the
campaign driver; this module answers the per-case question *"did the
pass misbehave on this concrete circuit?"* by executing the pass and
comparing against the dense-matrix semantics — the same confirmation
machinery :mod:`repro.verify.counterexample` uses, specialised per pass
type (Table 2's obligation groups):

* ``general`` — semantic equivalence, case-split over classical bits.
* ``analysis`` / ``layout_selection`` — the circuit must come back
  gate-for-gate unchanged (these passes only write the property set).
* ``layout_application`` / ``ancilla`` — with an empty property set
  (no layout chosen) they must behave as the identity on gates.
* ``routing`` — the output must conform to the coupling map and be
  equivalent to the input up to inserted swaps.

Verdict classification matches ``confirm_counterexample``:
``TranspilerError`` → ``non_termination``, any other ``ReproError`` →
``crash``, a semantic divergence → ``semantics``.
"""

from __future__ import annotations

import inspect
from typing import Dict, Optional

from repro.circuit.circuit import QCircuit
from repro.coupling.coupling_map import CouplingMap
from repro.errors import ReproError, TranspilerError
from repro.symbolic.equivalence import (
    conforms_to_coupling,
    equivalent_up_to_swaps,
    strip_final_measurements,
)
from repro.verify.counterexample import CounterExample, conditional_circuits_equivalent

#: Pass types whose concrete runs must leave the gate list untouched
#: (analysis-style passes, plus the layout/ancilla appliers which are the
#: identity when no layout was selected — the fuzz harness always runs
#: passes with a fresh, empty property set).
_IDENTITY_PASS_TYPES = frozenset(
    {"analysis", "layout_selection", "layout_application", "ancilla"}
)


def fuzz_pass_kwargs(pass_class, coupling: Optional[CouplingMap]) -> Dict[str, object]:
    """Constructor kwargs for a fuzzed pass: the case's coupling map, if taken.

    Unlike ``engine.driver.default_pass_kwargs`` this keys off the
    constructor signature rather than a fixed name list, so extension
    passes that accept a ``coupling`` keyword get the case's device too.
    """
    if coupling is None:
        return {}
    try:
        parameters = inspect.signature(pass_class.__init__).parameters
    except (TypeError, ValueError):
        return {}
    if "coupling" in parameters:
        return {"coupling": coupling}
    return {}


def _identity_divergence(pass_name: str, circuit: QCircuit, output: QCircuit,
                         pass_type: str) -> Optional[CounterExample]:
    if output.gates == circuit.gates:
        return None
    return CounterExample(
        kind="semantics",
        description=(
            f"{pass_name} is a {pass_type} pass but modified the gate list"
        ),
        input_circuit=circuit,
        output_circuit=output,
        confirmed=True,
        details={"pass_type": pass_type},
    )


def _routing_divergence(pass_name: str, circuit: QCircuit, output: QCircuit,
                        coupling: Optional[CouplingMap]) -> Optional[CounterExample]:
    if coupling is not None and not conforms_to_coupling(output.gates, coupling):
        return CounterExample(
            kind="semantics",
            description=f"{pass_name} output violates the coupling map",
            input_circuit=circuit,
            output_circuit=output,
            confirmed=True,
            details={"violation": "coupling"},
        )
    num_qubits = max(circuit.num_qubits, output.num_qubits)
    report = equivalent_up_to_swaps(
        strip_final_measurements(circuit.gates),
        strip_final_measurements(output.gates),
        num_qubits,
    )
    if report.equivalent:
        return None
    return CounterExample(
        kind="semantics",
        description=f"{pass_name} output is not the input up to swaps: {report.reason}",
        input_circuit=circuit,
        output_circuit=output,
        confirmed=True,
        details={"violation": "equivalence", "reason": report.reason},
    )


def _measurement_absorbed_equivalent(circuit: QCircuit, output: QCircuit,
                                     atol: float = 1e-8) -> bool:
    """Equivalence for passes that absorb diagonal phases into measurements.

    ``RemoveDiagonalGatesBeforeMeasure`` is sound with respect to
    measurement outcomes but not the stripped unitary: dropping ``z; measure``
    changes the premeasure state by a diagonal phase the computational-basis
    measurement cannot observe.  Accept the pair when ``output = D · input``
    with ``D`` diagonal, unit-modulus, and its phase a function of the
    *measured* qubits' bits only — such a ``D`` changes neither the outcome
    distribution nor the post-measurement state of the unmeasured qubits.
    """
    import itertools

    import numpy as np

    from repro.verify.counterexample import (
        _condition_clbits,
        _unitary_under_assignment,
    )

    measured = sorted(
        {q for g in circuit.gates if g.is_measurement() for q in g.qubits}
        | {q for g in output.gates if g.is_measurement() for q in g.qubits}
    )
    if not measured:
        return False
    num_qubits = max(circuit.num_qubits, output.num_qubits)
    left = QCircuit(num_qubits, circuit.num_clbits, gates=circuit.gates)
    right = QCircuit(num_qubits, output.num_clbits, gates=output.gates)
    bits = sorted(set(_condition_clbits(left)) | set(_condition_clbits(right)))

    def absorbed(factor: np.ndarray) -> bool:
        diagonal = np.diag(factor)
        if np.abs(factor - np.diag(diagonal)).max() > atol:
            return False
        if np.abs(np.abs(diagonal) - 1.0).max() > atol:
            return False
        # Big-endian statevector convention: qubit q is bit (n-1-q) of
        # the basis index.
        groups = {}
        for index, phase in enumerate(diagonal):
            key = tuple((index >> (num_qubits - 1 - q)) & 1 for q in measured)
            reference = groups.setdefault(key, phase)
            if abs(phase - reference) > atol:
                return False
        return True

    # Like conditional_circuits_equivalent, the factor must be absorbable
    # under *every* assignment of the conditioned classical bits (product
    # over zero bits yields the single empty assignment).
    try:
        for values in itertools.product((0, 1), repeat=len(bits)):
            assignment = dict(zip(bits, values))
            u_left = _unitary_under_assignment(left, assignment)
            u_right = _unitary_under_assignment(right, assignment)
            if not absorbed(u_right @ u_left.conj().T):
                return False
    except ReproError:
        return False
    return True


def differential_check(pass_class, circuit: QCircuit,
                       coupling: Optional[CouplingMap] = None) -> Optional[CounterExample]:
    """Run ``pass_class`` on ``circuit`` and compare with the dense oracle.

    Returns a confirmed :class:`CounterExample` describing the divergence,
    or ``None`` when the pass behaved (or when the oracle itself cannot
    judge the pair, e.g. the unitaries are too large to build — the
    harness treats "cannot judge" as "no evidence of a bug").
    """
    kwargs = fuzz_pass_kwargs(pass_class, coupling)
    instance = pass_class(**kwargs)
    pass_name = pass_class.__name__
    try:
        output = instance(circuit.copy())
    except TranspilerError as exc:
        return CounterExample(
            kind="non_termination",
            description=f"{pass_name} aborted: {exc}",
            input_circuit=circuit,
            confirmed=True,
            details={"error": str(exc)},
        )
    except ReproError as exc:
        return CounterExample(
            kind="crash",
            description=f"{pass_name} raised {type(exc).__name__}: {exc}",
            input_circuit=circuit,
            confirmed=True,
            details={"error": str(exc)},
        )
    if not isinstance(output, QCircuit):
        return CounterExample(
            kind="crash",
            description=f"{pass_name} returned {type(output).__name__}, not a circuit",
            input_circuit=circuit,
            confirmed=True,
            details={"error": "non-circuit return value"},
        )
    pass_type = getattr(instance, "pass_type", "general")
    try:
        if pass_type in _IDENTITY_PASS_TYPES:
            return _identity_divergence(pass_name, circuit, output, pass_type)
        if pass_type == "routing":
            return _routing_divergence(pass_name, circuit, output, coupling)
        if conditional_circuits_equivalent(circuit, output):
            return None
        if _measurement_absorbed_equivalent(circuit, output):
            return None
    except ReproError:
        return None
    return CounterExample(
        kind="semantics",
        description=f"{pass_name} changed the semantics of the input circuit",
        input_circuit=circuit,
        output_circuit=output,
        confirmed=True,
    )
