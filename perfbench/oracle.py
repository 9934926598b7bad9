"""Compile oracle: is a compiled circuit its input, up to the final permutation?

Two checks, both independent of the passes under test:

* **coupling conformance** — every multi-qubit gate of the output acts on
  qubits joined by an edge of the device;
* **dense equivalence** for circuits whose joint active support is at most
  :data:`MAX_ACTIVE` qubits — random states are pushed through the input
  and through the output with the dense :mod:`repro.linalg.unitary`
  semantics, and the output state must equal the input state with each
  logical qubit moved to its final physical position (up to one global
  phase).  Ancilla positions start and end in ``|0>``.  Measurements are
  compared as the multiset of classical bits written, and left out of the
  dense check.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.unitary import allclose_up_to_global_phase, circuit_apply

MAX_ACTIVE = 10
STATES = 2


def _unitary_part(circuit):
    """The gates the dense semantics covers: no barriers, no measurements."""
    return [gate for gate in circuit
            if not gate.is_barrier() and not gate.is_measurement()]


def _active(circuit) -> set:
    active = set()
    for gate in _unitary_part(circuit):
        active.update(gate.all_qubits)
    return active


def _measured_clbits(circuit) -> list:
    return sorted(clbit for gate in circuit if gate.is_measurement()
                  for clbit in gate.clbits)


def coupling_violations(compiled, coupling) -> int:
    bad = 0
    for gate in compiled:
        operands = gate.all_qubits
        if gate.is_barrier() or len(operands) < 2:
            continue
        if len(operands) > 2 or not coupling.connected(*operands):
            bad += 1
    return bad


def _compact(circuit, relabel, width):
    from repro.circuit.circuit import QCircuit

    compact = QCircuit(width, circuit.num_clbits)
    for gate in _unitary_part(circuit):
        compact.append(gate.remap_qubits(lambda q: relabel[q]))
    return compact


def check(source, compiled, coupling, layout, final_layout, seed=0):
    """Return ``(ok, dense_checked, reason)`` for one compiled circuit."""
    if coupling_violations(compiled, coupling):
        return False, False, "gate off the coupling map"
    if _measured_clbits(source) != _measured_clbits(compiled):
        return False, False, "measurements differ"
    if any(gate.is_reset() or gate.condition is not None
           for gate in list(source) + list(compiled)):
        return True, False, "not a unitary circuit"
    n = source.num_qubits
    start = {q: layout.physical(q) if layout is not None else q for q in range(n)}
    end = {q: final_layout.physical(q) if final_layout is not None else start[q]
           for q in range(n)}
    logical = {q for q in range(n) if q in _active(source)}
    support = {start[q] for q in logical} | _active(compiled)
    # Every logical qubit whose position is in the support takes part; a
    # moved qubit is in the support because a swap touched it.
    members = sorted(q for q in range(n) if start[q] in support or end[q] in support)
    support |= {start[q] for q in members} | {end[q] for q in members}
    if len(support) > MAX_ACTIVE:
        return True, False, "too wide for the dense check"
    order = sorted(support)
    slot = {physical: index for index, physical in enumerate(order)}
    width = max(len(order), 1)
    relabel_in = {q: slot[start[q]] for q in members}
    try:
        left = _compact(source, relabel_in, width)
        right = _compact(compiled, slot, width)
    except KeyError:
        return False, False, "output touches a qubit outside its support"
    # Where each input slot's content must end up; ancilla slots (no
    # logical qubit) are |0> and may take any of the remaining places.
    moves = {slot[start[q]]: slot[end[q]] for q in members}
    free = sorted(set(range(width)) - set(moves.values()))
    for source_slot in range(width):
        if source_slot not in moves:
            moves[source_slot] = free.pop(0)
    rng = np.random.default_rng(seed)
    logical_slots = sorted(relabel_in.values())
    expected_parts, actual_parts = [], []
    for _ in range(STATES):
        data = rng.normal(size=2 ** len(logical_slots)) \
            + 1j * rng.normal(size=2 ** len(logical_slots))
        data /= np.linalg.norm(data)
        state = _embed(data, logical_slots, width)
        after_source = circuit_apply(left, state.copy())
        expected_parts.append(_permute(after_source, moves, width))
        actual_parts.append(circuit_apply(right, state.copy()))
    ok = allclose_up_to_global_phase(np.concatenate(actual_parts),
                                     np.concatenate(expected_parts), atol=1e-7)
    return ok, True, "" if ok else "not equivalent to its input"


def _embed(data, slots, width):
    """A state with ``data`` on ``slots`` and ``|0>`` on every other slot."""
    tensor = np.zeros((2,) * width, dtype=complex)
    index = [0] * width
    for slot in slots:
        index[slot] = slice(None)
    tensor[tuple(index)] = data.reshape((2,) * len(slots))
    return tensor.reshape(-1)


def _permute(state, moves, width):
    """Move the content of slot ``i`` to slot ``moves[i]``."""
    tensor = state.reshape((2,) * width)
    axes = [0] * width
    for source_slot, target_slot in moves.items():
        axes[target_slot] = source_slot
    return np.transpose(tensor, axes).reshape(-1)
