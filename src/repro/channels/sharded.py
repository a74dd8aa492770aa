"""Sharded multi-channel execution: independent channels across processes.

:class:`ShardedChannelNetwork` is the parallel counterpart of
:class:`~repro.channels.network.MultiChannelNetwork`.  It partitions the
topology into independent shards (:func:`repro.sim.shard.plan_shards` —
connected components of the cross-channel traffic graph), runs one
:class:`~repro.channels.network.MultiChannelNetwork` deployment cell per
shard in its own worker process, on its own calendar-queue simulator with
the channels' own spawned RNG stream families, and aggregates the cells'
results in the parent with the same
:func:`~repro.channels.aggregate.aggregate_record` the shared-clock run uses.

**Determinism contract.**  With ``cross_channel_rate == 0`` a channel's event
sequence is a pure function of its own seed-derived streams and its own
per-channel transaction-id sequence, so the aggregate record is
*bit-identical* to the shared-clock run (asserted by the golden bit-identity
suite) — only the declared execution metadata (``RunRecord.execution`` /
``RunRecord.shard_count``) and wall-clock observability details differ.

**Fallbacks.**  Topologies whose cross traffic couples every channel into one
component (any positive rate), and configurations with a *global*
resubmission rate cap (one token bucket across channels cannot be sharded)
run as one shared-clock cell instead — the runner never changes what a run
computes, only where.
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.channels.aggregate import CellResult, aggregate_record, merge_counts
from repro.channels.network import MultiChannelNetwork
from repro.chaincode.base import Chaincode
from repro.errors import ConfigurationError
from repro.ledger.block import Transaction
from repro.ledger.ledger import Ledger
from repro.lifecycle.events import LifecycleBus
from repro.network.config import NetworkConfig
from repro.network.network import RunRecord
from repro.observability.observer import ObservabilityData
from repro.sim.shard import ShardPlan, plan_shards, resolve_worker_count
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import TransactionMix

#: One shard of a run: the cell's (picklable) constructor and the
#: keyword arguments of :meth:`MultiChannelNetwork.simulate`.
_ShardTask = Tuple[Callable[[], MultiChannelNetwork], dict]


def _run_shard(task: _ShardTask) -> CellResult:
    """Worker entry point: build one shard's cell and simulate it (module
    level, so it pickles across the process pool)."""
    build_cell, arguments = task
    return build_cell().simulate(**arguments, profile_engine=True)


def merge_engine_reports(reports: List[dict], wall_seconds: float) -> dict:
    """One deployment-wide engine summary from per-shard profiler reports.

    Event and batch counts sum; ``wall_seconds`` is the parent-measured
    elapsed time over the whole fan-out (so ``events_per_sec`` reflects real
    parallel throughput, not the sum of per-shard rates); queue-depth
    histograms sum bucket-wise and the maximum depth is the max over shards.
    The untouched per-shard reports ride along under ``"shards"``.
    """
    events = sum(report.get("events", 0) for report in reports)
    batches = sum(report.get("batches", 0) for report in reports)
    histogram: Dict[str, int] = {}
    for report in reports:
        for bucket, count in report.get("depth_histogram", {}).items():
            histogram[bucket] = histogram.get(bucket, 0) + count
    return {
        "events": events,
        "batches": batches,
        "wall_seconds": wall_seconds,
        "events_per_sec": (events / wall_seconds) if wall_seconds > 0 else 0.0,
        "events_per_batch": (events / batches) if batches else 0.0,
        "max_queue_depth": max(
            (report.get("max_queue_depth", 0) for report in reports), default=0
        ),
        "depth_histogram": dict(
            sorted(histogram.items(), key=lambda pair: (len(pair[0]), pair[0]))
        ),
        "shards": reports,
    }


def merge_observability(
    parts: List[ObservabilityData], wall_seconds: float
) -> ObservabilityData:
    """One deployment-wide :class:`ObservabilityData` from per-shard data.

    * **Spans** concatenate in shard (channel-index) order, so the Chrome
      trace exporter's sequential thread ids form one contiguous tid range
      per shard under a single run pid.
    * **Samples** merge by tick time: shards sample on the same sim-time
      grid, and their counter columns (rates, pending events) sum; the
      per-channel queue columns are disjoint and union.
    * **Markers** concatenate and re-sort exactly like a single observer.
    * **Summary** counters sum key-wise; histogram sketches cannot be merged
      exactly, so the merged view reports the exactly mergeable moments
      (count/min/max/mean) and the complete per-shard summaries ride along
      under ``"shards"``.
    """
    spans = [span for data in parts for span in data.spans]
    samples: Dict[float, Dict[str, float]] = {}
    for data in parts:
        for row in data.samples:
            target = samples.setdefault(row["time"], {"time": row["time"]})
            for column, value in row.items():
                if column != "time":
                    target[column] = target.get(column, 0.0) + value
    markers = sorted(
        (marker for data in parts for marker in data.markers),
        key=lambda marker: (marker["time"], marker["kind"], str(marker["target"])),
    )
    counters = merge_counts([data.summary.get("counters", {}) for data in parts])
    histograms: Dict[str, dict] = {}
    for data in parts:
        for name, snapshot in data.summary.get("histograms", {}).items():
            merged = histograms.setdefault(name, {"count": 0})
            count = snapshot.get("count", 0)
            if not count:
                continue
            previous = merged["count"]
            merged["min"] = min(merged.get("min", snapshot["min"]), snapshot["min"])
            merged["max"] = max(merged.get("max", snapshot["max"]), snapshot["max"])
            merged["mean"] = (
                merged.get("mean", 0.0) * previous + snapshot["mean"] * count
            ) / (previous + count)
            merged["count"] = previous + count
    summary: dict = {
        "counters": counters,
        "gauges": merge_counts([data.summary.get("gauges", {}) for data in parts]),
        "histograms": dict(sorted(histograms.items())),
        "shards": [data.summary for data in parts],
    }
    engine_reports = [
        data.summary["engine"] for data in parts if isinstance(data.summary.get("engine"), dict)
    ]
    if engine_reports:
        summary["engine"] = merge_engine_reports(engine_reports, wall_seconds)
    return ObservabilityData(
        spans=spans,
        samples=[samples[tick] for tick in sorted(samples)],
        markers=markers,
        summary=summary,
    )


#: :class:`RunRecord` fields that legitimately differ between execution
#: strategies: declared execution metadata plus observability (wall-clock
#: detail, never part of a cell's identity).
EXECUTION_METADATA_FIELDS = ("execution", "shard_count", "observability")


def record_fingerprint(record: RunRecord) -> dict:
    """A canonical, comparison-friendly digest of everything a run computed.

    Two runs are *bit-identical* in the sense of the sharding determinism
    contract exactly when their fingerprints compare equal: every transaction
    with all timing/validation fields, every block of every ledger, lifecycle
    counts, retry and fault counters, utilizations and the simulated horizon.
    The declared execution metadata (:data:`EXECUTION_METADATA_FIELDS`) is
    excluded — it is the one place the strategies are allowed to differ.
    """

    def tx_digest(tx: Transaction) -> tuple:
        return (
            tx.tx_id,
            tx.client_name,
            tx.function,
            tx.channel,
            tx.partner_channel,
            tx.attempt,
            tx.origin_tx_id,
            tx.submitted_at,
            tx.endorsement_completed_at,
            tx.prepare_started_at,
            tx.prepare_completed_at,
            tx.committed_at,
            tx.validation_code.value if tx.validation_code is not None else None,
            tx.endorsement_mismatch,
            len(tx.endorsements),
        )

    def ledger_digest(ledger: Ledger) -> list:
        return [
            (
                block.number,
                block.created_at,
                block.cut_reason.value if block.cut_reason is not None else None,
                tuple(
                    (tx.tx_id, tx.validation_code.value if tx.validation_code else None)
                    for tx in block.transactions
                ),
            )
            for block in ledger.blocks
        ]

    def run_digest(run: RunRecord) -> dict:
        digest = {
            "variant": run.variant_name,
            "chaincode": run.chaincode_name,
            "workload": run.workload_name,
            "arrival_rate": run.arrival_rate,
            "duration": run.duration,
            "seed": run.seed,
            "simulated_end": run.simulated_end,
            "blocks_cut": run.blocks_cut,
            "orderer_utilization": run.orderer_utilization,
            "mean_validation_utilization": run.mean_validation_utilization,
            "mean_endorsement_utilization": run.mean_endorsement_utilization,
            "lifecycle_counts": dict(run.lifecycle_counts),
            "retry": (
                run.retry_policy,
                run.resubmissions,
                run.retries_exhausted,
                run.retry_budget_denied,
                run.retry_rate_denied,
            ),
            "fault_injections": dict(run.fault_injections),
            "transactions": [tx_digest(tx) for tx in run.transactions],
            "early_aborted": [tx_digest(tx) for tx in run.early_aborted],
            "read_only_skipped": [tx_digest(tx) for tx in run.read_only_skipped],
            "ledger": ledger_digest(run.ledger),
        }
        # Isolation verdicts and witness sets are part of the fingerprint:
        # execution strategies must certify and refute identically, witness
        # for witness.  The key is omitted entirely when checking is off so
        # that enabling the checker never perturbs pre-checker golden digests.
        if run.isolation is not None:
            digest["isolation"] = run.isolation.summary()
        return digest

    digest = run_digest(record)
    digest["channels"] = [
        {
            "index": channel.index,
            "name": channel.name,
            "cross_channel_submitted": channel.cross_channel_submitted,
            "cross_channel_aborted": channel.cross_channel_aborted,
            "record": run_digest(channel.record),
        }
        for channel in record.channel_records
    ]
    return digest


# -------------------------------------------------------------------- network
class ShardedChannelNetwork:
    """N Fabric channels sharded across worker processes.

    Exposes the same ``run(mix, arrival_rate, duration, ...) -> RunRecord``
    surface as :class:`MultiChannelNetwork`; see the module docstring for
    when it shards and when it runs one shared-clock cell.
    """

    def __init__(
        self,
        config: NetworkConfig,
        chaincode_factory: Callable[[], Chaincode],
        variant_factory: Callable[[], object],
        seed: int = 7,
        hot_share: float = 0.5,
        partner_strategy: str = "uniform",
    ) -> None:
        config = config.copy()
        config.validate()
        if config.channels < 2:
            raise ConfigurationError(
                f"ShardedChannelNetwork needs at least two channels, got {config.channels}; "
                "use FabricNetwork for single-channel runs"
            )
        self.config = config
        self.seed = seed
        self.hot_share = hot_share
        self.partner_strategy = partner_strategy
        self.chaincode_factory = chaincode_factory
        self.variant_factory = variant_factory
        self.execution = config.execution
        self.plan: ShardPlan = plan_shards(
            config.channels, config.cross_channel_rate, partner_strategy
        )
        #: Deployment-level lifecycle bus: the shared-clock cell's bus after a
        #: fallback run.  Sharded runs emit their events inside the worker
        #: processes; they surface as the record's ``lifecycle_counts``.
        self.bus = LifecycleBus()
        #: Filled by :meth:`run`: worker processes actually used, merged
        #: engine profile (also embedded in the record's observability
        #: summary when metrics are enabled), and the strategy executed.
        self.shard_workers_used = 0
        self.engine_summary: Optional[dict] = None
        self.execution_mode = "unresolved"

    def _cell(self, channel_indices: Optional[Sequence[int]] = None):
        """The picklable constructor of one deployment cell of this network."""
        return functools.partial(
            MultiChannelNetwork,
            config=self.config,
            chaincode_factory=self.chaincode_factory,
            variant_factory=self.variant_factory,
            seed=self.seed,
            hot_share=self.hot_share,
            partner_strategy=self.partner_strategy,
            channel_indices=channel_indices,
        )

    # ------------------------------------------------------------------- run
    def run(
        self,
        mix: TransactionMix,
        arrival_rate: float,
        duration: float,
        key_distribution: Optional[KeyDistribution] = None,
        workload_name: str = "custom",
    ) -> RunRecord:
        """Run one experiment across all shards and aggregate the record."""
        if arrival_rate <= 0:
            raise ConfigurationError(f"the arrival rate must be positive, got {arrival_rate}")
        if duration <= 0:
            raise ConfigurationError(f"the duration must be positive, got {duration}")
        arguments = dict(
            mix=mix,
            arrival_rate=arrival_rate,
            duration=duration,
            key_distribution=key_distribution,
            workload_name=workload_name,
        )
        if not self.plan.is_partitioned or self._needs_shared_clock():
            self.execution_mode = "shared-clock"
            self.shard_workers_used = 1
            cell = self._cell()()
            self.bus = cell.bus
            return cell.run(**arguments)
        self.execution_mode = "sharded"
        tasks = [(self._cell(shard), arguments) for shard in self.plan.shards]
        workers = resolve_worker_count(self.execution.shard_workers, self.plan.shard_count)
        if workers > 1:
            try:
                pickle.dumps(tasks)
            except Exception:
                # Unpicklable factories (lambdas, closures) run in-process —
                # same results, no process parallelism; mirrors the runner.
                workers = 1
        started = time.perf_counter()
        if workers > 1:
            with multiprocessing.Pool(processes=workers) as pool:
                cells = pool.map(_run_shard, tasks)
        else:
            cells = [_run_shard(task) for task in tasks]
        wall = time.perf_counter() - started
        self.shard_workers_used = workers
        self.engine_summary = merge_engine_reports([cell.engine for cell in cells], wall)
        parts = [cell.observability for cell in cells]
        observability = (
            merge_observability(parts, wall) if all(part is not None for part in parts) else None
        )
        return aggregate_record(
            cells, arrival_rate, duration, workload_name, observability, execution="sharded"
        )

    def _needs_shared_clock(self) -> bool:
        """True when a deployment-global coupling forbids sharding.

        The resubmission rate cap is one token bucket across *all* channels
        (see :class:`MultiChannelNetwork`); slicing it per shard would change
        admission decisions, so such runs keep the shared clock.
        """
        return self.config.retry.enabled and self.config.retry.rate_cap is not None
