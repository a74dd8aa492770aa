"""Hand-built graphs for the conflict-graph kernel behind Fabric++ and FabricSharp.

A graph is a list of successor sets indexed by batch position; an edge
``i -> j`` means transaction ``i`` reads a key that ``j`` writes, so ``i`` must
come first.  Each test states the result it expects.
"""

from __future__ import annotations

import pytest

from repro.fabric.conflictgraph import (
    _cyclic_components,
    build_dependency_graph,
    remove_cycles,
    reorder_batch,
    serialization_order,
)
from repro.ledger.block import Transaction
from repro.ledger.kvstore import GENESIS_VERSION
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet


def make_tx(tx_id, reads=(), writes=(), range_reads=()):
    tx = Transaction(tx_id=tx_id, client_name="c", chaincode_name="t", function="f")
    tx.rwset = ReadWriteSet(
        reads=[KeyRead(key, GENESIS_VERSION) for key in reads],
        writes=[KeyWrite(key, 1) for key in writes],
        range_reads=list(range_reads),
    )
    return tx


def test_two_disjoint_cycles_are_both_broken():
    """0 <-> 1 and 2 <-> 3 are separate cycles; each loses its lower index."""
    graph = [{1}, {0}, {3}, {2}]

    # The one pass over the whole graph finds both cycles.
    assert sorted(map(sorted, _cyclic_components(graph, range(4)))) == [[0, 1], [2, 3]]

    aborted = remove_cycles(graph)

    assert aborted == {0, 2}
    assert graph == [None, set(), None, set()]
    assert serialization_order(graph) == [1, 3]


def test_degree_tie_goes_to_the_lower_index():
    """A chain of 2-cycles 0 <-> 1 <-> 2 <-> 3: degrees are 2, 4, 4, 2.

    1 and 2 tie for the most edges and 1, the lower index, is removed; that
    leaves the cycle 2 <-> 3, whose tie again goes to the lower index, 2.
    """
    graph = [{1}, {0, 2}, {1, 3}, {2}]

    aborted = remove_cycles(graph)

    assert aborted == {1, 2}
    assert graph == [set(), None, None, set()]
    assert serialization_order(graph) == [0, 3]


def test_component_keeps_a_smaller_cycle_after_its_first_victim():
    """Hub 0 sits on 2-cycles with 1, 2 and 3, and 1 <-> 2 is a cycle too.

    The hub (degree 6) goes first; the rest of its component still holds the
    cycle 1 <-> 2, which the re-run inside the component finds and breaks by
    removing 1.  Node 4 only reads from the hub and is never touched.
    """
    graph = [{1, 2, 3}, {0, 2}, {0, 1}, {0}, {0}]

    aborted = remove_cycles(graph)

    assert aborted == {0, 1}
    assert graph == [None, None, set(), set(), set()]
    assert serialization_order(graph) == [2, 3, 4]


def test_diamond_takes_the_lexicographically_smallest_order():
    """3 precedes 1 and 2, which both precede 0; 4 is unconstrained.

    Among the ready transactions the lowest index always goes first, so 0 is
    placed as soon as it is free and before 4.
    """
    graph = [set(), {0}, {0}, {1, 2}, set()]

    assert remove_cycles(graph) == set()
    assert serialization_order(graph) == [3, 1, 2, 0, 4]


def test_serialization_order_refuses_a_cycle():
    """Ordering a graph that still holds 0 <-> 1 is an error, not a guess."""
    with pytest.raises(ValueError):
        serialization_order([{1}, {0}])


def test_empty_batch():
    """No transactions: no graph, no edges, nothing serialized or aborted."""
    assert build_dependency_graph([]) == ([], 0)
    assert reorder_batch([]) == ([], [], 0)


def test_transactions_without_rwset_have_no_edges():
    """A transaction that never executed (``rwset=None``) keeps its place.

    Only the reader (2) must move before the writer (1) of ``x``.
    """
    silent = Transaction(tx_id="n", client_name="c", chaincode_name="t", function="f")
    writer = make_tx("w", writes=["x"])
    reader = make_tx("r", reads=["x"])

    graph, edge_count = build_dependency_graph([silent, writer, reader])
    serialized, aborted, _ = reorder_batch([silent, writer, reader])

    assert graph == [set(), set(), {1}]
    assert edge_count == 1
    assert serialized == [silent, reader, writer]
    assert aborted == []


def test_several_shared_keys_give_one_edge():
    """0 reads a and b and range-reads c; 1 writes all three: one edge 0 -> 1."""
    reader = make_tx(
        "r",
        reads=["a", "b"],
        range_reads=[RangeRead("c", "d", reads=[KeyRead("c", GENESIS_VERSION)])],
    )
    writer = make_tx("w", writes=["a", "b", "c"])

    graph, edge_count = build_dependency_graph([reader, writer])

    assert graph == [{1}, set()]
    assert edge_count == 1


def test_reading_your_own_write_is_not_a_self_loop():
    """A read-modify-write of one key depends on nobody but the other writer."""
    first = make_tx("a", reads=["k"], writes=["k"])
    second = make_tx("b", writes=["k"])

    graph, edge_count = build_dependency_graph([first, second])

    assert graph == [{1}, set()]
    assert edge_count == 1
