"""Property-based tests for conflict-graph reordering (Fabric++ machinery)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.conflictgraph import (
    build_dependency_graph,
    remove_cycles,
    reorder_batch,
    serialization_order,
)
from repro.ledger.block import Transaction
from repro.ledger.kvstore import GENESIS_VERSION
from repro.ledger.rwset import KeyRead, KeyWrite, ReadWriteSet

keys = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def transaction_batches(draw, max_size=12):
    count = draw(st.integers(min_value=0, max_value=max_size))
    batch = []
    for index in range(count):
        reads = [KeyRead(draw(keys), GENESIS_VERSION) for _ in range(draw(st.integers(0, 3)))]
        writes = [KeyWrite(draw(keys), index) for _ in range(draw(st.integers(0, 3)))]
        tx = Transaction(tx_id=f"tx{index}", client_name="c", chaincode_name="t", function="f")
        tx.rwset = ReadWriteSet(reads=reads, writes=writes)
        batch.append(tx)
    return batch


def edges(graph):
    """Every ``(source, target)`` edge of a conflict graph."""
    return [
        (source, target)
        for source, successors in enumerate(graph)
        if successors is not None
        for target in successors
    ]


def is_acyclic(graph):
    """Independent check: peeling off sinks must empty the live graph."""
    live = {node for node, successors in enumerate(graph) if successors is not None}
    while live:
        sinks = {node for node in live if not graph[node] & live}
        if not sinks:
            return False
        live -= sinks
    return True


@given(transaction_batches())
@settings(max_examples=80, deadline=None)
def test_remove_cycles_always_yields_a_dag(batch):
    graph, _edges = build_dependency_graph(batch)
    remove_cycles(graph)
    assert is_acyclic(graph)


@given(transaction_batches())
@settings(max_examples=80, deadline=None)
def test_serialization_order_respects_every_remaining_edge(batch):
    graph, _edges = build_dependency_graph(batch)
    remove_cycles(graph)
    order = serialization_order(graph)
    position = {node: rank for rank, node in enumerate(order)}
    for source, target in edges(graph):
        assert position[source] < position[target]


@given(transaction_batches())
@settings(max_examples=80, deadline=None)
def test_reorder_batch_partitions_the_batch(batch):
    serialized, aborted, edge_count = reorder_batch(batch)
    assert len(serialized) + len(aborted) == len(batch)
    assert {tx.tx_id for tx in serialized} | {tx.tx_id for tx in aborted} == {
        tx.tx_id for tx in batch
    }
    assert edge_count >= 0


@given(transaction_batches())
@settings(max_examples=60, deadline=None)
def test_reordered_schedule_is_serializable(batch):
    """No surviving transaction reads a key previously written in the schedule.

    This is the exact guarantee Fabric++ needs: executing the serialized order
    against a snapshot can no longer produce intra-block MVCC conflicts.
    """
    serialized, _aborted, _edges = reorder_batch(batch)
    written: set[str] = set()
    for tx in serialized:
        assert not (tx.rwset.read_keys() & written)
        written |= tx.rwset.write_keys()


@given(transaction_batches())
@settings(max_examples=60, deadline=None)
def test_conflict_free_batches_are_never_aborted_or_reordered_arbitrarily(batch):
    graph, edges = build_dependency_graph(batch)
    if edges == 0:
        serialized, aborted, _ = reorder_batch(batch)
        assert aborted == []
        assert [tx.tx_id for tx in serialized] == [tx.tx_id for tx in batch]


def reference_reorder(batch):
    """Brute-force reference for ``reorder_batch``: ``(order, aborted, edges)``.

    Every round recomputes the strongly connected components of the whole
    remaining graph from its transitive closure and removes one victim (most
    in-component in+out edges, ties to the lower index) per cyclic component;
    the order repeatedly takes the lowest-indexed transaction whose remaining
    predecessors are all placed.
    """
    dependencies = {
        (reader, writer)
        for reader, first in enumerate(batch)
        for writer, second in enumerate(batch)
        if reader != writer
        and first.rwset is not None
        and second.rwset is not None
        and first.rwset.read_keys() & second.rwset.write_keys()
    }
    live = set(range(len(batch)))
    aborted = set()
    while True:
        reach = {(a, b) for a, b in dependencies if a in live and b in live}
        for middle in live:  # Warshall's transitive closure
            into = [a for a, b in reach if b == middle]
            out_of = [c for b, c in reach if b == middle]
            reach |= {(a, c) for a in into for c in out_of}
        components = {
            frozenset(
                {node}
                | {other for other in live if (node, other) in reach and (other, node) in reach}
            )
            for node in live
        }
        cyclic = [component for component in components if len(component) > 1]
        if not cyclic:
            break
        for component in cyclic:
            degree = {
                node: sum((node, other) in dependencies for other in component)
                + sum((other, node) in dependencies for other in component)
                for node in component
            }
            victim = max(component, key=lambda node: (degree[node], -node))
            live.discard(victim)
            aborted.add(victim)
    order = []
    while len(order) < len(live):
        placed = set(order)
        order.append(
            min(
                node
                for node in live - placed
                if all(a in placed for a, b in dependencies if b == node and a in live)
            )
        )
    return order, sorted(aborted), len(dependencies)


@given(transaction_batches(max_size=8))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_the_brute_force_reference(batch):
    serialized, aborted, edge_count = reorder_batch(batch)
    order, aborted_indexes, dependencies = reference_reorder(batch)
    assert [tx.tx_id for tx in serialized] == [batch[index].tx_id for index in order]
    assert [tx.tx_id for tx in aborted] == [batch[index].tx_id for index in aborted_indexes]
    assert edge_count == dependencies
