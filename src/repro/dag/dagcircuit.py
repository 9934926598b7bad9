"""DAG representation of quantum circuits, as used by the baseline transpiler.

The original Qiskit compiler represents circuits as a directed acyclic graph
whose nodes are operations and whose edges follow qubit/clbit wires.  The
verified Giallar passes use the simpler gate-list representation instead; the
paper's Qiskit wrapper converts between the two at pass boundaries
(Section 4, "Utility function calls").  This module provides the DAG side of
that story plus the graph queries the baseline passes need (layers,
successors, longest path, ...).

Nodes live in insertion-ordered dicts keyed by node id, with parallel edges
stored as the list of wires they follow.  Ids are handed out in append order
and every edge runs from a lower id to a higher one (``apply_gate`` links a
wire's tail to the new node, ``remove_node`` reconnects pred -> succ around
the removed node, ``substitute_node`` rebuilds), so id order is the
lexicographic topological order and needs no sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.gate import Gate
from repro.errors import DAGError


@dataclass(eq=False)
class DAGNode:
    """One operation node in the DAG."""

    node_id: int
    gate: Gate

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.gate.qubits

    def __repr__(self) -> str:
        return f"DAGNode({self.node_id}, {self.gate!r})"


Wire = Tuple[str, int]


class DAGCircuit:
    """A quantum circuit as a DAG of operation nodes over qubit/clbit wires."""

    def __init__(self, num_qubits: int = 0, num_clbits: int = 0, name: str = "dag") -> None:
        self.name = name
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self._nodes: Dict[int, DAGNode] = {}
        # Adjacency in edge-insertion order; the wire list of u -> v is shared
        # by ``_succ[u][v]`` and ``_pred[v][u]``.
        self._succ: Dict[int, Dict[int, List[Wire]]] = {}
        self._pred: Dict[int, Dict[int, List[Wire]]] = {}
        self._counter = itertools.count()
        # Wire bookkeeping: the last node writing each wire (None = wire input).
        self._wire_tail: Dict[Wire, Optional[int]] = {}
        for qubit in range(self.num_qubits):
            self._wire_tail[("q", qubit)] = None
        for clbit in range(self.num_clbits):
            self._wire_tail[("c", clbit)] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _gate_wires(self, gate: Gate) -> List[Wire]:
        wires: List[Wire] = [("q", q) for q in gate.all_qubits]
        wires.extend(("c", c) for c in gate.clbits)
        if gate.condition is not None:
            wire = ("c", gate.condition[0])
            if wire not in wires:
                wires.append(wire)
        return wires

    def _link(self, pred: int, succ: int, wire: Wire) -> None:
        wires = self._succ[pred].get(succ)
        if wires is None:
            wires = self._succ[pred][succ] = self._pred[succ][pred] = []
        wires.append(wire)

    def apply_gate(self, gate: Gate) -> DAGNode:
        """Append an operation to the back of the DAG."""
        node = DAGNode(next(self._counter), gate)
        nid = node.node_id
        self._nodes[nid] = node
        self._succ[nid] = {}
        self._pred[nid] = {}
        wire_tail = self._wire_tail
        for wire in self._gate_wires(gate):
            tail = wire_tail.get(wire)
            if tail is not None:
                self._link(tail, nid, wire)
            elif wire not in wire_tail:
                kind, index = wire
                if kind == "q":
                    self.num_qubits = max(self.num_qubits, index + 1)
                else:
                    self.num_clbits = max(self.num_clbits, index + 1)
            wire_tail[wire] = nid
        return node

    def extend(self, gates: Iterable[Gate]) -> None:
        for gate in gates:
            self.apply_gate(gate)

    def remove_node(self, node: DAGNode) -> None:
        """Remove an operation, reconnecting its wires around it."""
        nid = node.node_id
        if nid not in self._nodes:
            raise DAGError(f"node {nid} is not in the DAG")
        del self._nodes[nid]
        preds = self._pred.pop(nid)
        succs = self._succ.pop(nid)
        for pred in preds:
            del self._succ[pred][nid]
        for succ in succs:
            del self._pred[succ][nid]
        in_by_wire = {wire: pred for pred, wires in preds.items() for wire in wires}
        out_by_wire = {wire: succ for succ, wires in succs.items() for wire in wires}
        for wire in self._gate_wires(node.gate):
            pred = in_by_wire.get(wire)
            succ = out_by_wire.get(wire)
            if succ is None:
                self._wire_tail[wire] = pred
            elif pred is not None:
                self._link(pred, succ, wire)

    def substitute_node(self, node: DAGNode, gates: Sequence[Gate]) -> List[DAGNode]:
        """Replace one operation by a sequence of gates on the same wires."""
        for gate in gates:
            extra = set(gate.all_qubits) - set(node.gate.all_qubits)
            if extra:
                raise DAGError(f"replacement gate touches new qubits {sorted(extra)}")
        ordered = self.topological_nodes()
        position = ordered.index(node)
        new_gates = (
            [n.gate for n in ordered[:position]]
            + list(gates)
            + [n.gate for n in ordered[position + 1 :]]
        )
        rebuilt = DAGCircuit(self.num_qubits, self.num_clbits, name=self.name)
        rebuilt.extend(new_gates)
        self._nodes = rebuilt._nodes
        self._succ = rebuilt._succ
        self._pred = rebuilt._pred
        self._counter = rebuilt._counter
        self._wire_tail = rebuilt._wire_tail
        return self.topological_nodes()[position : position + len(gates)]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def size(self) -> int:
        """Number of operation nodes."""
        return len(self._nodes)

    def width(self) -> int:
        return self.num_qubits + self.num_clbits

    def node(self, node_id: int) -> DAGNode:
        return self._nodes[node_id]

    def nodes(self) -> List[DAGNode]:
        return list(self._nodes.values())

    def topological_nodes(self) -> List[DAGNode]:
        """Operation nodes in a deterministic topological order (by id)."""
        return list(self._nodes.values())

    def gates(self) -> List[Gate]:
        """Gate list in topological order."""
        return [node.gate for node in self._nodes.values()]

    def successors(self, node: DAGNode) -> List[DAGNode]:
        return [self._nodes[succ] for succ in self._succ[node.node_id]]

    def predecessors(self, node: DAGNode) -> List[DAGNode]:
        return [self._nodes[pred] for pred in self._pred[node.node_id]]

    def descendants(self, node: DAGNode) -> List[DAGNode]:
        """Every node reachable from ``node`` (excluding it), in id order."""
        seen = set()
        stack = [node.node_id]
        while stack:
            for succ in self._succ[stack.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return [self._nodes[nid] for nid in sorted(seen)]

    def front_layer(self) -> List[DAGNode]:
        """Operations with no predecessors (the executable frontier)."""
        return [self._nodes[nid] for nid, preds in self._pred.items() if not preds]

    def _generations(self) -> Iterator[List[int]]:
        """Kahn's algorithm one generation at a time: generation ``k`` holds
        the nodes whose longest incoming path has ``k`` edges."""
        indegree = {nid: len(preds) for nid, preds in self._pred.items()}
        generation = [nid for nid, degree in indegree.items() if degree == 0]
        while generation:
            yield generation
            following: List[int] = []
            for nid in generation:
                for succ in self._succ[nid]:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        following.append(succ)
            generation = following

    def layers(self) -> Iterator[List[DAGNode]]:
        """Yield lists of operations executable in the same time step."""
        for generation in self._generations():
            yield [self._nodes[nid] for nid in sorted(generation)]

    def depth(self) -> int:
        """Longest path length over operation nodes (barriers excluded)."""
        longest = 0
        level: Dict[int, int] = {}
        for node in self.topological_nodes():
            if node.gate.is_barrier():
                level[node.node_id] = max(
                    (level.get(p.node_id, 0) for p in self.predecessors(node)), default=0
                )
                continue
            best = max((level.get(p.node_id, 0) for p in self.predecessors(node)), default=0)
            level[node.node_id] = best + 1
            longest = max(longest, best + 1)
        return longest

    def longest_path(self) -> List[DAGNode]:
        """One maximal-length path of operation nodes.

        Ties break deterministically, and ``CountOpsLongestPath`` reads the
        result: the path ends at the first node of the last Kahn generation
        and steps back through the first predecessor (in edge-insertion
        order) one generation earlier.
        """
        level: Dict[int, int] = {}
        last: List[int] = []
        for depth, generation in enumerate(self._generations()):
            level.update(dict.fromkeys(generation, depth))
            last = generation
        if not last:
            return []
        path = [last[0]]
        while level[path[-1]]:
            below = level[path[-1]] - 1
            path.append(next(p for p in self._pred[path[-1]] if level[p] == below))
        return [self._nodes[nid] for nid in reversed(path)]

    def count_ops(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes():
            counts[node.name] = counts.get(node.name, 0) + 1
        return counts

    def two_qubit_ops(self) -> List[DAGNode]:
        return [
            node
            for node in self.topological_nodes()
            if not node.gate.is_directive() and len(node.gate.all_qubits) == 2
        ]

    def copy(self) -> "DAGCircuit":
        clone = DAGCircuit(self.num_qubits, self.num_clbits, name=self.name)
        clone.extend(self.gates())
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, DAGCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self.gates() == other.gates()
        )

    def __repr__(self) -> str:
        return f"DAGCircuit(qubits={self.num_qubits}, clbits={self.num_clbits}, ops={self.size()})"
