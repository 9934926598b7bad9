"""The differential oracle: classification, per-type checks, cross-check."""

import pytest

from repro.circuit import Gate, QCircuit
from repro.coupling.devices import linear_device
from repro.errors import CircuitError, TranspilerError
from repro.fuzz.campaign import fuzz_registry
from repro.fuzz.generate import generate_case, normalize_config
from repro.fuzz.oracle import (
    _measurement_absorbed_equivalent,
    differential_check,
    fuzz_pass_kwargs,
)
from repro.passes import RemoveDiagonalGatesBeforeMeasure
from repro.passes.buggy import BuggyLookaheadSwap


# --------------------------------------------------------------------------- #
# Constructor kwargs
# --------------------------------------------------------------------------- #
class _TakesCoupling:
    def __init__(self, coupling=None):
        self.coupling = coupling


class _NoKwargs:
    def __init__(self):
        pass


def test_fuzz_pass_kwargs_detects_coupling_parameter():
    device = linear_device(3)
    assert fuzz_pass_kwargs(_TakesCoupling, device) == {"coupling": device}
    assert fuzz_pass_kwargs(_NoKwargs, device) == {}
    assert fuzz_pass_kwargs(_TakesCoupling, None) == {}


def test_fuzz_pass_kwargs_covers_buggy_routing_pass():
    """The signature, not a name list, says the buggy routing pass takes a coupling."""
    device = linear_device(3)
    assert fuzz_pass_kwargs(BuggyLookaheadSwap, device) == {"coupling": device}


# --------------------------------------------------------------------------- #
# Verdict classification via dummy passes
# --------------------------------------------------------------------------- #
class _Aborts:
    def __call__(self, circuit):
        raise TranspilerError("stuck")


class _Crashes:
    def __call__(self, circuit):
        raise CircuitError("boom")


class _ReturnsGarbage:
    def __call__(self, circuit):
        return "not a circuit"


class _Identity:
    def __call__(self, circuit):
        return circuit


class _DropsFirstGate:
    def __call__(self, circuit):
        return QCircuit(circuit.num_qubits, circuit.num_clbits,
                        gates=circuit.gates[1:], name=circuit.name)


class _AnalysisThatEdits:
    pass_type = "analysis"

    def __call__(self, circuit):
        return QCircuit(circuit.num_qubits, circuit.num_clbits,
                        gates=circuit.gates[1:], name=circuit.name)


@pytest.fixture
def bell():
    circuit = QCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


def test_transpiler_error_classifies_as_non_termination(bell):
    failure = differential_check(_Aborts, bell)
    assert failure.kind == "non_termination"
    assert failure.confirmed


def test_repro_error_classifies_as_crash(bell):
    assert differential_check(_Crashes, bell).kind == "crash"


def test_non_circuit_return_classifies_as_crash(bell):
    assert differential_check(_ReturnsGarbage, bell).kind == "crash"


def test_identity_pass_is_clean(bell):
    assert differential_check(_Identity, bell) is None


def test_semantic_divergence_is_flagged(bell):
    failure = differential_check(_DropsFirstGate, bell)
    assert failure.kind == "semantics"
    assert failure.output_circuit is not None


def test_analysis_pass_must_not_touch_the_gate_list(bell):
    failure = differential_check(_AnalysisThatEdits, bell)
    assert failure.kind == "semantics"
    assert "analysis" in failure.description


def test_input_circuit_is_never_mutated(bell):
    gates_before = bell.gates
    differential_check(_DropsFirstGate, bell)
    assert bell.gates == gates_before


# --------------------------------------------------------------------------- #
# Measurement-absorbed diagonal phases
# --------------------------------------------------------------------------- #
def _measured(gates_fn):
    circuit = QCircuit(2, 2)
    gates_fn(circuit)
    circuit.measure(0, 0)
    return circuit


def test_diagonal_before_measure_is_absorbed():
    left = _measured(lambda c: (c.h(0), c.z(0)))
    right = _measured(lambda c: c.h(0))
    assert _measurement_absorbed_equivalent(left, right)


def test_non_diagonal_difference_is_not_absorbed():
    left = _measured(lambda c: (c.h(0), c.x(0)))
    right = _measured(lambda c: c.h(0))
    assert not _measurement_absorbed_equivalent(left, right)


def test_diagonal_on_unmeasured_qubit_is_not_absorbed():
    """A dropped phase on an *unmeasured* qubit changes the residual state."""
    left = _measured(lambda c: (c.h(0), c.h(1), c.z(1)))
    right = _measured(lambda c: (c.h(0), c.h(1)))
    assert not _measurement_absorbed_equivalent(left, right)


def test_unmeasured_circuits_are_never_absorbed():
    left = QCircuit(1).z(0)
    right = QCircuit(1)
    assert not _measurement_absorbed_equivalent(left, right)


def test_remove_diagonal_before_measure_is_clean_end_to_end():
    circuit = QCircuit(2, 2)
    circuit.h(0)
    circuit.z(0)
    circuit.rz(0.7, 0)
    circuit.measure(0, 0)
    output = RemoveDiagonalGatesBeforeMeasure()(circuit.copy())
    assert len(output.gates) < len(circuit.gates)  # the pass really fires
    assert differential_check(RemoveDiagonalGatesBeforeMeasure, circuit) is None


def test_conditioned_diagonal_before_measure_is_judged_per_assignment():
    """The fuzzer's minimal reproducer shape: conditioned gate + rz + measure."""
    circuit = QCircuit(1, 2, gates=[
        Gate("t", (0,), condition=(0, 0)),
        Gate("rz", (0,), (1.1,)),
        Gate("measure", (0,), clbits=(1,)),
    ])
    output = RemoveDiagonalGatesBeforeMeasure()(circuit.copy())
    assert len(output.gates) < len(circuit.gates)
    assert differential_check(RemoveDiagonalGatesBeforeMeasure, circuit) is None


# --------------------------------------------------------------------------- #
# Satellite: symbolic verdict agrees with the dense oracle on honest passes
# --------------------------------------------------------------------------- #
def test_every_honest_pass_survives_the_dense_oracle():
    """For seeded circuits, no registered (non-buggy) pass diverges.

    This is the cross-check half of the differential pair: the verifier
    says these passes are correct, so the concrete oracle must find no
    counterexample on any generated case.
    """
    registry = fuzz_registry(include_buggy=False)
    assert len(registry) >= 40
    config = normalize_config({"device": "linear"})
    disagreements = []
    for index in range(4):
        case = generate_case(11, index, config)
        for name in sorted(registry):
            failure = differential_check(registry[name], case.circuit,
                                         case.coupling)
            if failure is not None:
                disagreements.append((name, index, failure.kind))
    assert disagreements == []
