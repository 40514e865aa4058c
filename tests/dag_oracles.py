"""Node-level DAG oracles, independent of ``hisim.partition``'s validator.

The library checks a partition by one ordering rule over gate indices;
these answer the same questions from the dependency graph itself: how many
qubits a node set needs, and whether contracting a node assignment leaves
a DAG.
"""

from __future__ import annotations

import heapq

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


def merge_by_closure(qubits_of, succ, limit):
    """dagp's merge phase, done naively: from one part per node
    (``succ[u]`` the successor set of node ``u``, ``qubits_of[u]`` its
    qubits), contract the best mergeable pair of live parts until none is
    left, and return the groups in part-id order, a part's id being its
    lowest node.

    Every pair whose union fits ``limit`` is a candidate, joined by an edge
    or not, ranked by most shared qubits, then widest union, then part
    order. A pair is mergeable iff no path of two or more edges joins it,
    read off the transitive closure of the part graph, which is recomputed
    from the node edges after every contraction. A pair found unmergeable
    is dropped until one of its parts grows: contractions elsewhere only
    add paths.
    """
    parts = {u: {u} for u in range(len(qubits_of))}
    qubits = {u: frozenset(qs) for u, qs in enumerate(qubits_of)}

    def closure():
        part_of = {g: p for p, gs in parts.items() for g in gs}
        out = {p: set() for p in parts}
        for u, vs in enumerate(succ):
            out[part_of[u]] |= {part_of[v] for v in vs} - {part_of[u]}
        reach = {}  # part -> bit mask of every part a path leads to

        def walk(p):
            if p not in reach:
                reach[p] = 0
                for q in out[p]:
                    reach[p] |= 1 << q | walk(q)
            return reach[p]

        for p in parts:
            walk(p)
        return out, reach

    def rank(u, v):
        union = len(qubits[u] | qubits[v])
        if union > limit:
            return None
        return (union - len(qubits[u]) - len(qubits[v]), -union, u, v)

    heap = [k for u in parts for v in parts if u < v and (k := rank(u, v))]
    heapq.heapify(heap)
    out, reach = closure()
    while heap:
        k = heapq.heappop(heap)
        u, v = k[2:]
        if u not in parts or v not in parts or rank(u, v) != k:
            continue  # a part has gone, or grown and queued the pair anew
        if any(reach[m] >> v & 1 for m in out[u] - {v}) or any(
            reach[m] >> u & 1 for m in out[v] - {u}
        ):
            continue
        parts[u] |= parts.pop(v)
        qubits[u] |= qubits.pop(v)
        out, reach = closure()
        for w in parts:
            if w != u and (k := rank(min(u, w), max(u, w))):
                heapq.heappush(heap, k)
    return [sorted(parts[p]) for p in sorted(parts)]
