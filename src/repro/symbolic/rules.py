"""The rewrite-rule set for quantum circuits (Figure 7 of the paper).

Rules exist at two levels:

* :class:`CircuitRule` — a declarative description of one rewrite
  (``pattern`` circuit is equivalent to ``replacement`` circuit), grouped into
  the paper's three classes (cancellation, commutativity, swap).  These are
  the objects the soundness checker validates against the dense-matrix
  semantics and the usage-accounting benchmark (Section 8, "Reusability")
  counts.
* register-level SMT rules — quantified equations over an abstract register
  term, consumed by the solver when a proof obligation mixes concrete gates
  with abstract circuit segments (exactly the shape of the CXCancellation
  goal in Section 6).  They are built beside the term encoder that uses
  them, in :mod:`repro.prover.methods.congruence`, so that this table (which
  the rule-set fingerprint renders on every run) loads without the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.circuit.gate import Gate

#: Rule classes used for the reusability accounting of Section 8.
CANCELLATION = "cancellation"
COMMUTATIVITY = "commutativity"
SWAP = "swap"
MERGE = "merge"


@dataclass(frozen=True)
class CircuitRule:
    """One equivalence ``lhs == rhs`` between two small concrete circuits."""

    name: str
    kind: str
    lhs: Tuple[Gate, ...]
    rhs: Tuple[Gate, ...]
    num_qubits: int
    description: str = ""


def _g(name: str, *qubits: int, params: Tuple[float, ...] = ()) -> Gate:
    return Gate(name, qubits, params)


def default_circuit_rules() -> List[CircuitRule]:
    """The rule set shipped with the verifier (20 rules, as in the paper)."""
    theta = 0.731  # arbitrary sample angle used by the numeric soundness check
    rules: List[CircuitRule] = [
        # --- cancellation rules -------------------------------------------------
        CircuitRule("cx_cancel", CANCELLATION, (_g("cx", 0, 1), _g("cx", 0, 1)), (), 2,
                    "two adjacent CNOTs on the same pair cancel"),
        CircuitRule("h_cancel", CANCELLATION, (_g("h", 0), _g("h", 0)), (), 1,
                    "H is self-inverse"),
        CircuitRule("x_cancel", CANCELLATION, (_g("x", 0), _g("x", 0)), (), 1,
                    "X is self-inverse"),
        CircuitRule("z_cancel", CANCELLATION, (_g("z", 0), _g("z", 0)), (), 1,
                    "Z is self-inverse"),
        CircuitRule("y_cancel", CANCELLATION, (_g("y", 0), _g("y", 0)), (), 1,
                    "Y is self-inverse"),
        CircuitRule("cz_cancel", CANCELLATION, (_g("cz", 0, 1), _g("cz", 0, 1)), (), 2,
                    "CZ is self-inverse"),
        CircuitRule("swap_cancel", CANCELLATION, (_g("swap", 0, 1), _g("swap", 0, 1)), (), 2,
                    "SWAP is self-inverse"),
        CircuitRule("ccx_cancel", CANCELLATION, (_g("ccx", 0, 1, 2), _g("ccx", 0, 1, 2)), (), 3,
                    "Toffoli is self-inverse"),
        CircuitRule("s_sdg_cancel", CANCELLATION, (_g("s", 0), _g("sdg", 0)), (), 1,
                    "S ; Sdg is the identity"),
        CircuitRule("t_tdg_cancel", CANCELLATION, (_g("t", 0), _g("tdg", 0)), (), 1,
                    "T ; Tdg is the identity"),
        CircuitRule("ecr_cancel", CANCELLATION, (_g("ecr", 0, 1), _g("ecr", 0, 1)), (), 2,
                    "ECR is self-inverse (added for Qiskit 0.32 passes)"),
        # --- commutativity rules ------------------------------------------------
        CircuitRule("z_commutes_cx_control", COMMUTATIVITY,
                    (_g("z", 0), _g("cx", 0, 1)), (_g("cx", 0, 1), _g("z", 0)), 2,
                    "a Z-basis gate commutes through the control of a CNOT"),
        CircuitRule("rz_commutes_cx_control", COMMUTATIVITY,
                    (_g("rz", 0, params=(theta,)), _g("cx", 0, 1)),
                    (_g("cx", 0, 1), _g("rz", 0, params=(theta,))), 2,
                    "Rz commutes through the control of a CNOT"),
        CircuitRule("x_commutes_cx_target", COMMUTATIVITY,
                    (_g("x", 1), _g("cx", 0, 1)), (_g("cx", 0, 1), _g("x", 1)), 2,
                    "an X-basis gate commutes through the target of a CNOT"),
        CircuitRule("cx_same_control_commute", COMMUTATIVITY,
                    (_g("cx", 0, 1), _g("cx", 0, 2)), (_g("cx", 0, 2), _g("cx", 0, 1)), 3,
                    "CNOTs sharing only their control commute"),
        CircuitRule("cx_same_target_commute", COMMUTATIVITY,
                    (_g("cx", 0, 2), _g("cx", 1, 2)), (_g("cx", 1, 2), _g("cx", 0, 2)), 3,
                    "CNOTs sharing only their target commute"),
        CircuitRule("disjoint_commute", COMMUTATIVITY,
                    (_g("h", 0), _g("x", 1)), (_g("x", 1), _g("h", 0)), 2,
                    "gates on disjoint qubits commute"),
        CircuitRule("diagonal_commute", COMMUTATIVITY,
                    (_g("t", 0), _g("cz", 0, 1)), (_g("cz", 0, 1), _g("t", 0)), 2,
                    "diagonal gates commute with each other"),
        # --- swap rules ---------------------------------------------------------
        CircuitRule("swap_relabel_1q", SWAP,
                    (_g("swap", 0, 1), _g("h", 0)), (_g("h", 1), _g("swap", 0, 1)), 2,
                    "a SWAP relabels the qubit a later 1-qubit gate acts on"),
        CircuitRule("swap_relabel_2q", SWAP,
                    (_g("swap", 1, 2), _g("cx", 0, 1)), (_g("cx", 0, 2), _g("swap", 1, 2)), 3,
                    "a SWAP relabels the qubits a later 2-qubit gate acts on"),
        CircuitRule("swap_symmetric", SWAP,
                    (_g("swap", 0, 1),), (_g("swap", 1, 0),), 2,
                    "SWAP is symmetric in its operands"),
        # --- merge rules --------------------------------------------------------
        CircuitRule("u1_merge", MERGE,
                    (_g("u1", 0, params=(0.4,)), _g("u1", 0, params=(0.7,))),
                    (_g("u1", 0, params=(1.1,)),), 1,
                    "adjacent u1 rotations add their angles (Table 1 merge)"),
        CircuitRule("rz_merge", MERGE,
                    (_g("rz", 0, params=(0.4,)), _g("rz", 0, params=(0.7,))),
                    (_g("rz", 0, params=(1.1,)),), 1,
                    "adjacent Rz rotations add their angles"),
    ]
    return rules


#: Gate names with a cancellation rule, used for the reusability accounting.
CANCELLATION_GATES = frozenset(
    {"cx", "h", "x", "y", "z", "cz", "swap", "ccx", "ecr", "s", "sdg", "t", "tdg"}
)

