"""Conflict graphs, cycle removal and serialization (Fabric++ / FabricSharp).

Both Fabric++ and FabricSharp build a conflict graph over the transactions of a
batch: there is an edge ``reader -> writer`` whenever one transaction reads a
key that another transaction writes, meaning the reader must be ordered
*before* the writer for both to remain serializable.  Cycles cannot be
serialized; they are broken by aborting transactions — the minimum feedback
vertex set problem is NP-hard, so (like Fabric++) a greedy approximation is
used that repeatedly removes the most-connected transaction of a strongly
connected component.

The graph is plain data: a list indexed by batch position whose entries are
the successor sets of the transactions, or ``None`` once a transaction has been
removed to break a cycle.  A reader never depends on itself, so there are no
self-loops and every cycle lies in a component of more than one node.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from repro.ledger.block import Transaction

#: Successor sets by batch position; ``None`` marks a removed transaction.
ConflictGraph = List[Optional[Set[int]]]


def build_dependency_graph(transactions: Sequence[Transaction]) -> Tuple[ConflictGraph, int]:
    """Build the conflict graph of a batch of transactions.

    Nodes are transaction indexes into ``transactions``; an edge ``i -> j``
    means transaction ``i`` reads a key that transaction ``j`` writes, so ``i``
    must precede ``j``.  Returns the graph and the number of dependency edges
    (the edge count drives the reordering cost model — range queries over large
    key sets create very dense graphs, which is why Fabric++ struggles with the
    DV and SCM chaincodes in Section 5.2.3).  Several shared keys between the
    same two transactions give one edge.
    """
    graph: ConflictGraph = [set() for _ in transactions]
    writers: Dict[str, List[int]] = {}
    for index, tx in enumerate(transactions):
        if tx.rwset is not None:
            for key in tx.rwset.write_keys():
                writers.setdefault(key, []).append(index)
    for index, tx in enumerate(transactions):
        if tx.rwset is not None:
            successors = graph[index]
            for key in tx.rwset.read_keys():
                successors.update(writers.get(key, ()))
            successors.discard(index)
    return graph, sum(map(len, graph))


def _cyclic_components(graph: ConflictGraph, nodes: Collection[int]) -> List[List[int]]:
    """Strongly connected components of more than one node within ``nodes``.

    Iterative Tarjan over the subgraph induced by ``nodes``: edges leaving
    ``nodes`` are ignored.
    """
    number: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack: Set[int] = set()
    components: List[List[int]] = []
    for root in nodes:
        if root in number:
            continue
        number[root] = low[root] = len(number)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in nodes:
                    continue
                if successor not in number:
                    number[successor] = low[successor] = len(number)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph[successor])))
                    break
                if successor in on_stack and number[successor] < low[node]:
                    low[node] = number[successor]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == number[node]:
                    component = []
                    member = -1
                    while member != node:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                    if len(component) > 1:
                        components.append(component)
    return components


def remove_cycles(graph: ConflictGraph) -> Set[int]:
    """Greedy minimum-feedback-vertex-set approximation.

    Repeatedly takes a strongly connected component of more than one node and
    removes the node with the highest total degree inside it (ties go to the
    lower index), until the graph is acyclic.  Removing a node can only split
    the component that held it, so after the one pass over the whole graph
    the components are re-searched only inside what is left of them.
    Returns the set of removed (aborted) transaction indexes.  The input graph
    is modified in place: removed positions become ``None`` and no edge points
    at them.
    """
    aborted: Set[int] = set()
    pending = _cyclic_components(
        graph, {node for node, successors in enumerate(graph) if successors is not None}
    )
    while pending:
        component = set(pending.pop())
        degree = dict.fromkeys(component, 0)
        for node in component:
            for successor in graph[node]:
                if successor in component:
                    degree[node] += 1
                    degree[successor] += 1
        victim = max(component, key=lambda node: (degree[node], -node))
        aborted.add(victim)
        component.discard(victim)
        pending.extend(_cyclic_components(graph, component))
    if aborted:
        for node, successors in enumerate(graph):
            if node in aborted:
                graph[node] = None
            elif successors is not None:
                successors -= aborted
    return aborted


def serialization_order(graph: ConflictGraph) -> List[int]:
    """A serializable order of the remaining transactions (topological order).

    Ties are broken by the original index (the lexicographically smallest
    topological order) so the reordering is deterministic and stays as close
    to the arrival order as the dependencies allow.  Raises ``ValueError`` if
    the graph still holds a cycle.
    """
    indegree = [0] * len(graph)
    for successors in graph:
        for successor in successors or ():
            indegree[successor] += 1
    ready = [
        node
        for node, successors in enumerate(graph)
        if successors is not None and indegree[node] == 0
    ]
    order: List[int] = []
    while ready:
        node = heappop(ready)
        order.append(node)
        for successor in graph[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heappush(ready, successor)
    if len(order) != len(graph) - graph.count(None):
        raise ValueError("the conflict graph still contains a cycle")
    return order


def reorder_batch(transactions: Sequence[Transaction]) -> Tuple[List[Transaction], List[Transaction], int]:
    """Reorder a batch so readers precede writers; abort cycle members.

    Returns ``(serialized, aborted, edge_count)`` where ``serialized`` is the
    new transaction order and ``aborted`` are the transactions removed to break
    cycles, in batch order.
    """
    graph, edge_count = build_dependency_graph(transactions)
    aborted_indexes = remove_cycles(graph)
    order = serialization_order(graph)
    serialized = [transactions[index] for index in order]
    aborted = [transactions[index] for index in sorted(aborted_indexes)]
    return serialized, aborted, edge_count
