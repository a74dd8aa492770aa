"""Multi-channel sharded Fabric networks (extension beyond the paper).

Channels are Fabric's real-world mechanism for scaling throughput and
isolating workloads.  This package partitions the key space of a workload
across N channels — each with its own ledger, state store and ordering
service — and models transactions spanning channels with a two-phase
prepare/commit that can itself abort (the ``CROSS_CHANNEL_ABORT`` failure
class).

Entry points: :class:`MultiChannelNetwork`, the one deployment cell, which
runs every channel on one shared, deterministic simulation clock (or simply
``ExperimentConfig(network=NetworkConfig(channels=4, ...))`` through the
benchmark harness); :class:`ShardedChannelNetwork`, which runs one cell per
shard of independent channels in worker processes
(``ExecutionConfig(shard_workers=0)``) and aggregates them exactly like the
shared-clock run (:mod:`repro.channels.aggregate`); :class:`ChannelTopology`
for the placement policies and :class:`CrossChannelCoordinator` for the 2PC
model.
"""

from repro.channels.channel import Channel, ChannelGateway
from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.network import MultiChannelNetwork
from repro.channels.sharded import ShardedChannelNetwork, record_fingerprint
from repro.channels.topology import (
    ChannelRouter,
    ChannelTopology,
    ShardedKeyDistribution,
)

__all__ = [
    "Channel",
    "ChannelGateway",
    "ChannelRouter",
    "ChannelTopology",
    "CrossChannelCoordinator",
    "MultiChannelNetwork",
    "ShardedChannelNetwork",
    "ShardedKeyDistribution",
    "record_fingerprint",
]
