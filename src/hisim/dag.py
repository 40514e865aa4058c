"""Gate dependency DAG.

Each qubit contributes an artificial Entry and Exit node; gates on the same
qubit are chained between them, one edge per qubit. Node ids are dense:
entries first (entry of qubit q has id q), then gates in program order
(gate for op i has id num_qubits + i), then exits.

Gate edges run forward in program order. ``hisim.partition`` reads the same
gate-to-gate edges (pairs, multiplicity and order) straight from the op list,
for any gate subset, through ``partition._wires``; of this graph it walks
only the nodes, for ``partition_dfs``'s depth-first orders.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field

from .qasm import Circuit


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


@dataclass
class GateDag:
    """The full dependency graph of a circuit."""

    circuit: Circuit
    nodes: tuple[DagNode, ...]
    edges: tuple[DagEdge, ...]
    succ: tuple[tuple[int, ...], ...] = field(repr=False)
    pred: tuple[tuple[int, ...], ...] = field(repr=False)

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


def build_dag(circuit: Circuit) -> GateDag:
    """Build the per-qubit-chained dependency DAG of a circuit.

    Node count is num_ops + 2*num_qubits and edge count is
    num_qubits + sum of gate arities: qubit q with k gates contributes the
    chain entry -> g1 -> ... -> gk -> exit of k+1 edges.
    """
    n = circuit.num_qubits
    num_ops = circuit.num_ops
    nodes = [DagNode(q, NodeKind.ENTRY, qubit=q) for q in range(n)]
    nodes += [
        DagNode(n + i, NodeKind.GATE, op_index=i) for i in range(num_ops)
    ]
    nodes += [
        DagNode(n + num_ops + q, NodeKind.EXIT, qubit=q) for q in range(n)
    ]

    edges: list[DagEdge] = []
    last = list(range(n))  # most recent node on each qubit's chain
    for i, op in enumerate(circuit.ops):
        gid = n + i
        for q in op.qubits:
            edges.append(DagEdge(last[q], gid, q))
            last[q] = gid
    for q in range(n):
        edges.append(DagEdge(last[q], n + num_ops + q, q))

    succ: list[list[int]] = [[] for _ in nodes]
    pred: list[list[int]] = [[] for _ in nodes]
    for e in edges:
        succ[e.src].append(e.dst)
        pred[e.dst].append(e.src)
    return GateDag(
        circuit,
        tuple(nodes),
        tuple(edges),
        tuple(tuple(s) for s in succ),
        tuple(tuple(p) for p in pred),
    )


def dfs_topo_order(dag: GateDag, seed: int = 0) -> list[int]:
    """A topological order of all nodes from a randomized depth-first walk.

    Roots and children are visited in an order shuffled by
    ``random.Random(seed)`` (Mersenne Twister, stable across platforms);
    the reverse postorder of the walk is returned. The same seed always
    yields the same order.
    """
    rng = random.Random(seed)
    roots = [node.id for node in dag.nodes if not dag.pred[node.id]]
    rng.shuffle(roots)
    visited = [False] * len(dag.nodes)
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
