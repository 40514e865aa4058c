"""Node-level DAG oracles, independent of ``hisim.partition``'s validator.

The library checks a partition by one ordering rule over gate indices;
these answer the same questions from the dependency graph itself: how many
qubits a node set needs, and whether contracting a node assignment leaves
a DAG.
"""

from __future__ import annotations

from hisim.dag import GateDag, NodeKind


def working_set(dag: GateDag, node_set) -> int:
    """Number of qubits a node set needs: distinct qubits on edges entering
    the set from outside, plus Entry nodes inside the set.

    ``node_set`` may contain gate and entry ids only.
    """
    members = set(node_set)
    qubits: set[int] = set()
    entries = 0
    for nid in members:
        node = dag.nodes[nid]
        if node.kind is NodeKind.EXIT:
            raise ValueError(f"node {nid} is an exit node")
        if node.kind is NodeKind.ENTRY:
            entries += 1
    for e in dag.edges:
        if e.dst in members and e.src not in members:
            qubits.add(e.qubit)
    return len(qubits) + entries


def quotient_is_acyclic(dag: GateDag, assignment) -> bool:
    """True iff contracting each part of ``assignment`` leaves a DAG.

    ``assignment`` maps every node id to a part id; self-loops produced by
    intra-part edges are ignored.
    """
    part_edges: set[tuple[int, int]] = set()
    for e in dag.edges:
        pu, pv = assignment[e.src], assignment[e.dst]
        if pu != pv:
            part_edges.add((pu, pv))
    parts = sorted({assignment[node.id] for node in dag.nodes})
    adj: dict[int, list[int]] = {p: [] for p in parts}
    indeg = {p: 0 for p in parts}
    for u, v in part_edges:
        adj[u].append(v)
        indeg[v] += 1
    # Kahn: the quotient is acyclic iff every part drains
    queue = [p for p in parts if indeg[p] == 0]
    seen = 0
    while queue:
        p = queue.pop()
        seen += 1
        for q in adj[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                queue.append(q)
    return seen == len(parts)
