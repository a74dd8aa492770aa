"""One channel of a multi-channel deployment.

A :class:`Channel` is a complete Fabric slice — its own ledger, shared-base
state store (one frozen genesis base with per-peer copy-on-write overlays),
ordering service (and therefore block cutter), peers and endorsement policy —
embedded as a :class:`~repro.network.network.FabricNetwork` that shares its
deployment cell's :class:`~repro.sim.engine.Simulator` clock with its sibling
channels.  Sharing the clock is what keeps a multi-channel run deterministic:
events of independent channels interleave in one global virtual-time order.

The :class:`ChannelGateway` sits between a channel's clients and its ordering
service.  Every endorsed transaction passes through it: the gateway stamps the
transaction with its home channel and, with the configured probability, marks
it cross-channel and hands it to the
:class:`~repro.channels.coordinator.CrossChannelCoordinator` instead of the
local orderer.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.channels.topology import ChannelRouter, ShardedKeyDistribution
from repro.ledger.block import Transaction, ValidationCode
from repro.lifecycle.retry import ResubmissionGovernor
from repro.network.network import ChannelRecord, FabricNetwork, RunRecord
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import CrossChannelMix, TransactionMix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.coordinator import CrossChannelCoordinator


class Channel:
    """One channel: a shard of the key space with its own Fabric slice."""

    def __init__(
        self,
        index: int,
        network: FabricNetwork,
        arrival_share: float,
    ) -> None:
        self.index = index
        self.name = f"channel{index}"
        self.network = network
        self.arrival_share = arrival_share
        self.gateway: Optional[ChannelGateway] = None
        self._arrival_rate = 0.0

    @property
    def orderer(self):
        """The channel's own ordering service."""
        return self.network.orderer

    def start(
        self,
        mix: TransactionMix,
        total_arrival_rate: float,
        duration: float,
        key_distribution: Optional[KeyDistribution],
        shard: ShardedKeyDistribution,
        gateway: "ChannelGateway",
        retry_governor: Optional[ResubmissionGovernor] = None,
    ) -> None:
        """Schedule this channel's client arrivals for the run."""
        self.gateway = gateway
        self._arrival_rate = total_arrival_rate * self.arrival_share
        self.network.start_clients(
            mix=mix,
            arrival_rate=self._arrival_rate,
            duration=duration,
            key_distribution=key_distribution,
            primary_distribution=shard,
            orderer=gateway,
            retry_governor=retry_governor,
        )

    def collect(self, duration: float, workload_name: str) -> ChannelRecord:
        """Harvest this channel's slice of the run."""
        record: RunRecord = self.network.collect_record(
            arrival_rate=self._arrival_rate,
            duration=duration,
            workload_name=workload_name,
        )
        gateway = self.gateway
        aborted = sum(
            1
            for tx in record.early_aborted
            if tx.validation_code is ValidationCode.CROSS_CHANNEL_ABORT
        )
        return ChannelRecord(
            index=self.index,
            name=self.name,
            record=record,
            cross_channel_submitted=gateway.cross_channel_submitted if gateway else 0,
            cross_channel_aborted=aborted,
        )


class ChannelGateway:
    """Client-facing front of a channel's ordering service.

    Implements the same :class:`~repro.lifecycle.stages.OrderingStage` seam
    as :class:`~repro.network.orderer.OrderingService` (``submit`` /
    ``abort_early`` / ``early_aborted``), so
    :class:`~repro.network.client_node.ClientNode` needs no channel awareness.
    """

    def __init__(
        self,
        channel: Channel,
        router: ChannelRouter,
        cross_channel: CrossChannelMix,
        rng: random.Random,
        coordinator: Optional["CrossChannelCoordinator"] = None,
    ) -> None:
        self.channel = channel
        self.router = router
        self.cross_channel = cross_channel
        self.rng = rng
        self.coordinator = coordinator
        self.cross_channel_submitted = 0

    @property
    def early_aborted(self) -> List[Transaction]:
        """The channel's never-reached-a-block transactions (shared list)."""
        return self.channel.orderer.early_aborted

    def abort_early(self, tx: Transaction, code: ValidationCode, reason=None) -> None:
        """Terminally fail ``tx`` on this channel (stage-seam delegation)."""
        tx.channel = self.channel.index
        self.channel.orderer.abort_early(tx, code, reason)

    def submit(self, tx: Transaction) -> None:
        """Stamp the channel, maybe mark cross-channel, and route onwards."""
        tx.channel = self.channel.index
        if (
            self.coordinator is not None
            and self.cross_channel.enabled
            and self.router.topology.channels > 1
            and self.rng.random() < self.cross_channel.rate
        ):
            tx.partner_channel = self.router.pick_partner(
                self.channel.index, self.rng, self.cross_channel.partner_strategy
            )
            self.cross_channel_submitted += 1
            partner_faults = self.coordinator.channels[tx.partner_channel].network.faults
            if partner_faults is not None and not partner_faults.orderer_available():
                # The partner channel is partitioned or its orderer is down:
                # the two-phase prepare cannot reach it, so the transaction
                # fails fast as an infrastructure abort (see repro.faults).
                self.channel.orderer.abort_early(tx, ValidationCode.ORDERER_UNAVAILABLE)
                return
            self.coordinator.submit(tx, self.channel)
            return
        self.channel.orderer.submit(tx)
