"""Differential test: ``DAGCircuit`` against a networkx reference DAG.

The reference keeps the DAG as an ``nx.MultiDiGraph`` with one edge per wire
and answers every query with networkx, as the DAG did before it became
id-ordered adjacency dicts.  Seeded random circuits (cx, 1q gates, barriers,
measures, classically conditioned gates) and random ``remove_node`` /
``substitute_node`` sequences must give identical answers on both sides.
The ascending-edge invariant and three hand-built ``longest_path`` tie cases
run without networkx.
"""

import itertools
import random

import pytest

from repro.circuit import Gate
from repro.dag import DAGCircuit

NUM_QUBITS = 4
NUM_CLBITS = 2


class ReferenceDAG:
    """The networkx-backed DAG the id-ordered one replaces."""

    def __init__(self, num_qubits, num_clbits):
        nx = pytest.importorskip("networkx")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.graph = nx.MultiDiGraph()
        self.counter = itertools.count()
        self.wire_tail = {("q", q): None for q in range(num_qubits)}
        self.wire_tail.update({("c", c): None for c in range(num_clbits)})

    @staticmethod
    def wires(gate):
        wires = [("q", q) for q in gate.all_qubits] + [("c", c) for c in gate.clbits]
        if gate.condition is not None and ("c", gate.condition[0]) not in wires:
            wires.append(("c", gate.condition[0]))
        return wires

    def apply_gate(self, gate):
        nid = next(self.counter)
        self.graph.add_node(nid, gate=gate)
        for wire in self.wires(gate):
            tail = self.wire_tail.get(wire)
            if tail is not None:
                self.graph.add_edge(tail, nid, wire=wire)
            self.wire_tail[wire] = nid

    def remove_node(self, nid):
        gate = self.graph.nodes[nid]["gate"]
        in_by_wire = {d["wire"]: u for u, _, d in self.graph.in_edges(nid, data=True)}
        out_by_wire = {d["wire"]: v for _, v, d in self.graph.out_edges(nid, data=True)}
        self.graph.remove_node(nid)
        for wire in self.wires(gate):
            pred, succ = in_by_wire.get(wire), out_by_wire.get(wire)
            if succ is None:
                self.wire_tail[wire] = pred
            elif pred is not None:
                self.graph.add_edge(pred, succ, wire=wire)

    def substitute_node(self, nid, gates):
        ordered = self.order()
        position = ordered.index(nid)
        old = [self.graph.nodes[n]["gate"] for n in ordered]
        self.__init__(self.num_qubits, self.num_clbits)
        for gate in old[:position] + list(gates) + old[position + 1 :]:
            self.apply_gate(gate)

    def order(self):
        import networkx as nx

        return list(nx.lexicographical_topological_sort(self.graph, key=lambda nid: nid))

    def gates(self):
        return [self.graph.nodes[nid]["gate"] for nid in self.order()]

    def layers(self):
        graph = self.graph
        indegree = {nid: graph.in_degree(nid) for nid in graph.nodes}
        frontier = [nid for nid, degree in indegree.items() if degree == 0]
        while frontier:
            yield sorted(frontier)
            following = []
            for nid in frontier:
                for succ in graph.successors(nid):
                    indegree[succ] -= graph.number_of_edges(nid, succ)
                    if indegree[succ] == 0:
                        following.append(succ)
            frontier = following

    def depth(self):
        longest, level = 0, {}
        for nid in self.order():
            best = max((level[p] for p in self.graph.predecessors(nid)), default=0)
            barrier = self.graph.nodes[nid]["gate"].is_barrier()
            level[nid] = best if barrier else best + 1
            longest = longest if barrier else max(longest, best + 1)
        return longest

    def longest_path(self):
        import networkx as nx

        return nx.dag_longest_path(self.graph) if len(self.graph) else []

    def descendants(self, nid):
        import networkx as nx

        return nx.descendants(self.graph, nid)


def _random_gate(rng, qubits):
    """One gate on (a subset of) ``qubits``."""
    kind = rng.random()
    if kind < 0.35 and len(qubits) >= 2:
        return Gate("cx", rng.sample(qubits, 2))
    if kind < 0.45:
        return Gate("barrier", rng.sample(qubits, rng.randint(1, len(qubits))))
    if kind < 0.55:
        return Gate("measure", (rng.choice(qubits),), clbits=(rng.randrange(NUM_CLBITS),))
    condition = (rng.randrange(NUM_CLBITS), 1) if kind < 0.62 else None
    name = rng.choice(["h", "x", "t", "u3"])
    params = (0.1, 0.2, 0.3) if name == "u3" else ()
    return Gate(name, (rng.choice(qubits),), params, condition=condition)


def _pair(seed):
    """A ``DAGCircuit`` and its reference, put through the same random edits."""
    rng = random.Random(seed)
    dag = DAGCircuit(NUM_QUBITS, NUM_CLBITS)
    ref = ReferenceDAG(NUM_QUBITS, NUM_CLBITS)
    for _ in range(rng.randint(0, 30)):
        gate = _random_gate(rng, list(range(NUM_QUBITS)))
        dag.apply_gate(gate)
        ref.apply_gate(gate)
    for _ in range(rng.randint(0, 6)):
        if not dag.size():
            break
        node = rng.choice(dag.nodes())
        if rng.random() < 0.6:
            dag.remove_node(node)
            ref.remove_node(node.node_id)
        else:
            qubits = list(node.gate.all_qubits)
            gates = [_random_gate(rng, qubits) for _ in range(rng.randint(0, 3))]
            dag.substitute_node(node, gates)
            ref.substitute_node(node.node_id, gates)
    return dag, ref


def _ids(nodes):
    return [node.node_id for node in nodes]


@pytest.mark.parametrize("seed", range(200))
def test_every_query_matches_the_networkx_reference(seed):
    dag, ref = _pair(seed)
    graph = ref.graph
    assert dag.gates() == ref.gates()
    assert _ids(dag.nodes()) == list(graph.nodes)
    assert _ids(dag.topological_nodes()) == ref.order()
    assert [_ids(layer) for layer in dag.layers()] == list(ref.layers())
    assert dag.depth() == ref.depth()
    assert _ids(dag.front_layer()) == [n for n in graph.nodes if graph.in_degree(n) == 0]
    assert _ids(dag.longest_path()) == ref.longest_path()
    for node in dag.nodes():
        assert _ids(dag.successors(node)) == list(graph.successors(node.node_id))
        assert _ids(dag.predecessors(node)) == list(graph.predecessors(node.node_id))
        assert set(_ids(dag.descendants(node))) == ref.descendants(node.node_id)
    assert dag._wire_tail == ref.wire_tail


@pytest.mark.parametrize("seed", range(50))
def test_every_edge_ascends_in_id(seed):
    rng = random.Random(seed)
    dag = DAGCircuit(NUM_QUBITS, NUM_CLBITS)
    for _ in range(30):
        dag.apply_gate(_random_gate(rng, list(range(NUM_QUBITS))))
    for _ in range(4):
        node = rng.choice(dag.nodes())
        if rng.random() < 0.5:
            dag.remove_node(node)
        else:
            dag.substitute_node(node, [_random_gate(rng, list(node.gate.all_qubits))])
        for node in dag.nodes():
            assert all(succ.node_id > node.node_id for succ in dag.successors(node))
            assert _ids(dag.descendants(node)) == sorted(_ids(dag.descendants(node)))
        assert _ids(dag.topological_nodes()) == sorted(_ids(dag.nodes()))


def _names_on_path(dag):
    return [(node.name, node.qubits) for node in dag.longest_path()]


def test_longest_path_ends_at_the_first_node_of_the_last_generation():
    # Two equal chains; q1's chain starts first, so its x leads the last
    # generation although q0's x has the lower id.
    dag = DAGCircuit(2)
    dag.extend([Gate("h", (1,)), Gate("h", (0,)), Gate("x", (0,)), Gate("x", (1,))])
    assert _names_on_path(dag) == [("h", (1,)), ("x", (1,))]


def test_longest_path_steps_back_through_the_first_inserted_predecessor():
    # The cx links q0's tail before q1's, so it steps back to h on q0 even
    # though h on q1 has the lower id.
    dag = DAGCircuit(2)
    dag.extend([Gate("h", (1,)), Gate("h", (0,)), Gate("cx", (0, 1))])
    assert _names_on_path(dag) == [("h", (0,)), ("cx", (0, 1))]


def test_longest_path_follows_predecessor_order_after_a_removal():
    # Removing t(1) reconnects x(1) -> cx after h(0) -> cx, so h(0) is the
    # first equally deep predecessor.
    dag = DAGCircuit(2)
    dag.extend([Gate("x", (1,)), Gate("h", (0,)), Gate("t", (1,)), Gate("cx", (0, 1))])
    dag.remove_node(dag.node(2))
    assert _names_on_path(dag) == [("h", (0,)), ("cx", (0, 1))]
