"""Gate dependency DAG.

Each qubit contributes an artificial Entry and Exit node; gates on the same
qubit are chained between them, one edge per qubit. Node ids are dense:
entries first (entry of qubit q has id q), then gates in program order
(gate for op i has id num_qubits + i), then exits.

``wires`` is the one walk along a circuit's qubit wires. ``hisim.partition``
reads the gate-to-gate edges it yields, for any gate subset, and a
``GateDag`` derives its nodes, edges and successor lists from the same walk
over all gates, on first read: a run that only partitions with dagp or nat
never builds them. Of this graph, ``dfs_topo_order`` walks the successor
lists, for ``partition_dfs``, and the exports write the nodes and edges.
"""

from __future__ import annotations

import enum
import json
import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .qasm import Circuit, GateOp


class NodeKind(enum.Enum):
    ENTRY = "entry"
    GATE = "gate"
    EXIT = "exit"


@dataclass(frozen=True)
class DagNode:
    """One DAG node. ``qubit`` is set for entry/exit, ``op_index`` for gates."""

    id: int
    kind: NodeKind
    qubit: int | None = None
    op_index: int | None = None


@dataclass(frozen=True)
class DagEdge:
    """A directed dependency carrying exactly one qubit."""

    src: int
    dst: int
    qubit: int


def wires(
    ops: Sequence[GateOp], gates: Iterable[int], last: dict[int, int] | None = None
) -> Iterator[tuple[int, int, int]]:
    """Edges ``(u, v, q)`` along the qubit wires of an ascending gate
    subset: for each gate ``v``, on each of its qubits ``q`` in operand
    order, the gate ``u`` met last on that wire. ``last`` maps a qubit to
    what its wire comes from before the walk, and the walk leaves each
    wire's last gate there; a qubit not in it yields no edge into its
    first gate. Without ``last``, these are the subset's gate-to-gate
    edges."""
    last = {} if last is None else last
    for v in gates:
        for q in ops[v].qubits:
            if q in last:
                yield last[q], v, q
            last[q] = v


@dataclass(frozen=True)
class GateDag:
    """The full dependency graph of a circuit, its nodes, edges and
    successor lists built from ``wires`` on first read."""

    circuit: Circuit

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def num_gates(self) -> int:
        return self.circuit.num_ops

    def entry_id(self, qubit: int) -> int:
        return qubit

    def gate_id(self, op_index: int) -> int:
        return self.num_qubits + op_index

    def exit_id(self, qubit: int) -> int:
        return self.num_qubits + self.num_gates + qubit

    @cached_property
    def nodes(self) -> tuple[DagNode, ...]:
        n, m = self.num_qubits, self.num_gates
        return (
            *(DagNode(q, NodeKind.ENTRY, qubit=q) for q in range(n)),
            *(DagNode(n + i, NodeKind.GATE, op_index=i) for i in range(m)),
            *(DagNode(n + m + q, NodeKind.EXIT, qubit=q) for q in range(n)),
        )

    @cached_property
    def edges(self) -> tuple[DagEdge, ...]:
        """Gate by gate, the edge into it on each of its qubits, then the
        edge into each exit: qubit q with k gates contributes the chain
        entry -> g1 -> ... -> gk -> exit of k+1 edges. The walk runs in op
        indices, so entry q starts as op index q - n (node id q)."""
        n, m = self.num_qubits, self.num_gates
        last = {q: q - n for q in range(n)}
        edges = [
            DagEdge(n + u, n + v, q)
            for u, v, q in wires(self.circuit.ops, range(m), last)
        ]
        edges += [DagEdge(n + last[q], n + m + q, q) for q in range(n)]
        return tuple(edges)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        succ: list[list[int]] = [[] for _ in self.nodes]
        for e in self.edges:
            succ[e.src].append(e.dst)
        return tuple(tuple(s) for s in succ)


def build_dag(circuit: Circuit) -> GateDag:
    """The per-qubit-chained dependency DAG of a circuit: node count
    num_ops + 2*num_qubits, edge count num_qubits + sum of gate arities.
    Nothing is walked until its nodes, edges or successors are read."""
    return GateDag(circuit)


def dfs_topo_order(dag: GateDag, seed: int = 0) -> list[int]:
    """A topological order of all nodes from a randomized depth-first walk.

    Roots and children are visited in an order shuffled by
    ``random.Random(seed)`` (Mersenne Twister, stable across platforms);
    the reverse postorder of the walk is returned. The same seed always
    yields the same order.
    """
    rng = random.Random(seed)
    roots = list(range(dag.num_qubits))  # the entries: no edge runs into one
    rng.shuffle(roots)
    visited = [False] * len(dag.succ)
    postorder: list[int] = []
    for root in roots:
        if visited[root]:
            continue
        # iterative DFS; a frame is (node, iterator over shuffled children)
        stack = [(root, iter(_shuffled(dag.succ[root], rng)))]
        visited[root] = True
        while stack:
            nid, it = stack[-1]
            child = next(it, None)
            if child is None:
                postorder.append(nid)
                stack.pop()
            elif not visited[child]:
                visited[child] = True
                stack.append((child, iter(_shuffled(dag.succ[child], rng))))
    postorder.reverse()
    return postorder


def _shuffled(items, rng: random.Random) -> list[int]:
    out = list(items)
    rng.shuffle(out)
    return out


# --- exports ----------------------------------------------------------------

def to_json(dag: GateDag) -> str:
    """JSON export: nodes with kind/qubit/op fields, edges with qubits."""
    doc = {
        "num_qubits": dag.num_qubits,
        "num_gates": dag.num_gates,
        "nodes": [
            {
                "id": node.id,
                "kind": node.kind.value,
                **({"qubit": node.qubit} if node.qubit is not None else {}),
                **(
                    {
                        "op_index": node.op_index,
                        "gate": dag.circuit.ops[node.op_index].kind.value,
                    }
                    if node.op_index is not None
                    else {}
                ),
            }
            for node in dag.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "qubit": e.qubit} for e in dag.edges
        ],
    }
    return json.dumps(doc, indent=2)


def to_dot(dag: GateDag) -> str:
    """Graphviz export; edges are labeled with their qubit."""
    lines = ["digraph circuit {", "  rankdir=LR;"]
    for node in dag.nodes:
        if node.kind is NodeKind.GATE:
            op = dag.circuit.ops[node.op_index]
            label = f"{op.kind.value}{list(op.qubits)}"
            shape = "box"
        else:
            label = f"{node.kind.value} q{node.qubit}"
            shape = "plaintext"
        lines.append(f'  n{node.id} [label="{label}", shape={shape}];')
    for e in dag.edges:
        lines.append(f'  n{e.src} -> n{e.dst} [label="q{e.qubit}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
