"""The multi-channel deployment cell.

:class:`MultiChannelNetwork` is the multi-channel counterpart of
:class:`~repro.network.network.FabricNetwork`: it builds one complete Fabric
slice per channel (ledger, state store, ordering service, peers), partitions
the key space across the channels with a
:class:`~repro.channels.topology.ChannelTopology`, and routes the configured
fraction of transactions through the
:class:`~repro.channels.coordinator.CrossChannelCoordinator`.

It is the one deployment cell of every multi-channel run: it builds, starts,
drains and collects a given set of channels on its own
:class:`~repro.sim.engine.Simulator` (:meth:`MultiChannelNetwork.simulate`),
and :func:`~repro.channels.aggregate.aggregate_record` turns the cells'
results into the aggregate :class:`~repro.network.network.RunRecord`.  A
shared-clock run is one cell holding every channel, whose events interleave
in one global virtual-time order; the sharded path
(:mod:`repro.channels.sharded`) runs one cell per shard in worker processes.
Every channel draws from its own spawned
:class:`~repro.sim.rng.RandomStreams` family, so adding a channel never
perturbs the random draws of another.

Modeling notes:

* Each channel gets its own endorsement/validation stations and ordering
  service — the scale-out deployment where channels are used to grow
  aggregate throughput (each channel backed by dedicated resources).
* Every channel carries the full genesis population; partitioning is enforced
  at the workload layer (a channel's clients draw primary entities from its
  shard only), matching how applications route traffic to channels while any
  channel could technically host any key.  Within a channel the population is
  stored once: the channel's slice populates one frozen base and its
  validator state and endorsing peers layer copy-on-write overlays over it
  (see :mod:`repro.ledger.store`), so channel count no longer multiplies by
  peer count in state memory.
* Keys freshly *inserted* by a workload commit on the submitting channel,
  whatever their hash — Fabric itself never re-homes a written key.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, List, Optional, Sequence

from repro.channels.aggregate import CellResult, aggregate_record
from repro.channels.channel import Channel, ChannelGateway
from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.topology import ChannelRouter, ChannelTopology, ShardedKeyDistribution
from repro.chaincode.base import Chaincode
from repro.errors import ConfigurationError
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.retry import ResubmissionGovernor
from repro.network.config import NetworkConfig
from repro.network.network import FabricNetwork, RunRecord
from repro.observability.observer import ObservabilityData, RunObserver
from repro.sim.engine import Simulator
from repro.sim.profile import EngineProfiler
from repro.sim.rng import RandomStreams
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import CrossChannelMix, TransactionMix


class MultiChannelNetwork:
    """Fabric channels sharded over the key space, on one simulator clock.

    ``channel_indices`` (default: every channel) is the part of the
    deployment this cell holds — one shard of :func:`repro.sim.shard.plan_shards`.
    """

    def __init__(
        self,
        config: NetworkConfig,
        chaincode_factory: Callable[[], Chaincode],
        variant_factory: Callable[[], object],
        seed: int = 7,
        hot_share: float = 0.5,
        partner_strategy: str = "uniform",
        channel_indices: Optional[Sequence[int]] = None,
    ) -> None:
        config = config.copy()
        config.validate()
        if config.channels < 2:
            raise ConfigurationError(
                f"MultiChannelNetwork needs at least two channels, got {config.channels}; "
                "use FabricNetwork for single-channel runs"
            )
        self.config = config
        self.seed = seed
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        #: Cell-wide lifecycle event stream: every channel's own bus is piped
        #: into this one, so cross-channel consumers observe a single stream.
        self.bus = LifecycleBus()
        self.topology = ChannelTopology(
            channels=config.channels, placement=config.placement, hot_share=hot_share
        )
        cross_channel = CrossChannelMix(
            rate=config.cross_channel_rate, partner_strategy=partner_strategy
        )

        shares = self.topology.arrival_shares()
        self.channels: List[Channel] = []
        for index in range(config.channels) if channel_indices is None else channel_indices:
            network = FabricNetwork(
                config=config.copy(),
                chaincode=chaincode_factory(),
                variant=variant_factory(),
                seed=seed,
                sim=self.sim,
                streams=self.streams.spawn(f"channel-{index}"),
                channel_index=index,
            )
            network.bus.pipe_to(self.bus)
            self.channels.append(
                Channel(index=index, network=network, arrival_share=shares[index])
            )
        self.coordinator = (
            CrossChannelCoordinator(
                sim=self.sim, channels=self.channels, rng=self.streams.stream("coordinator")
            )
            if cross_channel.enabled
            else None
        )
        router = ChannelRouter(self.topology)
        self.gateways = [
            ChannelGateway(
                channel=channel,
                router=router,
                cross_channel=cross_channel,
                rng=channel.network.streams.stream("cross-channel"),
                coordinator=self.coordinator,
            )
            for channel in self.channels
        ]
        #: One governor for the whole cell: the resubmission rate cap is
        #: global, not per channel slice.
        self.retry_governor = (
            ResubmissionGovernor(config.retry.rate_cap) if config.retry.enabled else None
        )
        #: One observer for the whole cell, on the piped cell bus — the
        #: per-channel slices share the clock, so they skip their own (see
        #: :class:`~repro.network.network.FabricNetwork`).
        self.observer: Optional[RunObserver] = None
        if config.observability.enabled:
            self.observer = RunObserver(self.sim, self.bus, config.observability)
            for channel in self.channels:
                self.observer.add_queue_probe(
                    f"orderer.ch{channel.index}",
                    lambda network=channel.network: network.orderer.pending_count,
                )
                if channel.network.faults is not None:
                    self.observer.watch_faults(channel.network.faults)

    # -------------------------------------------------------------------- run
    def run(
        self,
        mix: TransactionMix,
        arrival_rate: float,
        duration: float,
        key_distribution: Optional[KeyDistribution] = None,
        workload_name: str = "custom",
    ) -> RunRecord:
        """Run one experiment across all channels and return the aggregate record."""
        cell = self.simulate(mix, arrival_rate, duration, key_distribution, workload_name)
        return aggregate_record([cell], arrival_rate, duration, workload_name, cell.observability)

    def simulate(
        self,
        mix: TransactionMix,
        arrival_rate: float,
        duration: float,
        key_distribution: Optional[KeyDistribution] = None,
        workload_name: str = "custom",
        profile_engine: bool = False,
    ) -> CellResult:
        """Start every channel's clients, drain the clock, collect the cell.

        ``profile_engine`` attaches an :class:`EngineProfiler` whatever the
        observability config says (the sharded path always reports one).
        """
        if arrival_rate <= 0:
            raise ConfigurationError(f"the arrival rate must be positive, got {arrival_rate}")
        if duration <= 0:
            raise ConfigurationError(f"the duration must be positive, got {duration}")
        observer = self.observer
        if observer is not None:
            observer.on_run_start(duration)
        for channel, gateway in zip(self.channels, self.gateways):
            shard = ShardedKeyDistribution(
                topology=self.topology, channel=channel.index, base=key_distribution
            )
            channel.start(
                mix=mix,
                total_arrival_rate=arrival_rate,
                duration=duration,
                key_distribution=key_distribution,
                shard=shard,
                gateway=gateway,
                retry_governor=self.retry_governor,
            )
        profiler = EngineProfiler(self.sim) if profile_engine else None
        if profiler is not None and observer is not None:
            observer.adopt_profiler(profiler)
        # An attached profiler makes the observer's own profile() a no-op.
        engine = profiler if profiler is not None else nullcontext()
        observed = observer.profile() if observer is not None else nullcontext()
        with engine, observed:
            self.sim.run_until_empty()
        records = [
            channel.collect(duration=duration, workload_name=workload_name)
            for channel in self.channels
        ]
        observability: Optional[ObservabilityData] = None
        if observer is not None:
            block_times = {
                record.index: {block.number: block.created_at for block in record.ledger.blocks}
                for record in records
            }
            observability = observer.collect(block_times, final_time=self.sim.now)
        return CellResult(
            records=records,
            loads={channel.index: channel.network.station_loads() for channel in self.channels},
            end=self.sim.now,
            engine=profiler.report() if profiler is not None else {},
            observability=observability,
        )
