"""The one aggregation of a multi-channel run, whatever executed it.

A :class:`~repro.channels.network.MultiChannelNetwork` cell simulates some
channels of a deployment on one clock and hands back a :class:`CellResult`;
:func:`aggregate_record` merges the results of every cell into the
aggregate :class:`~repro.network.network.RunRecord`.  The shared-clock run
aggregates one cell holding every channel, the sharded run one cell per
shard — so both produce the same record, field for field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.checker.checker import merge_isolation_reports
from repro.ledger.ledger import Ledger
from repro.network.network import ChannelRecord, RunRecord
from repro.observability.observer import ObservabilityData
from repro.sim.resources import utilization
from repro.sim.stats import mean


@dataclass
class CellResult:
    """One cell's picklable slice of a run: what :func:`aggregate_record` reads."""

    records: List[ChannelRecord]
    #: ``channel index -> raw station accumulators`` (see
    #: :meth:`FabricNetwork.station_loads`) for the global-horizon fixup.
    loads: Dict[int, dict]
    #: The cell simulator's end time.
    end: float
    #: The cell's :meth:`EngineProfiler.report` (empty when not profiled).
    engine: dict = field(default_factory=dict)
    observability: Optional[ObservabilityData] = None


def merge_counts(dicts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Key-wise sum in sorted key order (lifecycle counts, fault stats)."""
    merged: Dict[str, int] = {}
    for counts in dicts:
        for key, count in counts.items():
            merged[key] = merged.get(key, 0) + count
    return dict(sorted(merged.items()))


def aggregate_record(
    cells: Sequence[CellResult],
    arrival_rate: float,
    duration: float,
    workload_name: str,
    observability: Optional[ObservabilityData],
    execution: str = "shared-clock",
) -> RunRecord:
    """The aggregate record of a multi-channel run, from its cells' results.

    Channel records come back in channel-index order, each with its end time
    and utilizations recomputed over the deployment-wide horizon from its raw
    station loads (the very same numbers when one cell held every channel).
    ``observability`` is the run's observer data, merged by the caller.
    """
    channel_records = sorted(
        (record for cell in cells for record in cell.records), key=lambda record: record.index
    )
    loads = {index: load for cell in cells for index, load in cell.loads.items()}
    end = max(cell.end for cell in cells)
    horizon = max(duration, end)
    runs = [channel_record.record for channel_record in channel_records]
    for channel_record, run in zip(channel_records, runs):
        load = loads[channel_record.index]
        run.simulated_end = end
        run.orderer_utilization = utilization(*load["orderer"], horizon)
        run.mean_validation_utilization = mean(
            utilization(*entry, horizon) for entry in load["validation"]
        )
        run.mean_endorsement_utilization = mean(
            utilization(*entry, horizon) for entry in load["endorsement"]
        )
    reference = runs[0]
    return RunRecord(
        # The reference channel's config went through variant.configure()
        # (e.g. Streamchain forces block_size=1), so the aggregate reports
        # the *effective* parameters, same as a single-channel run.
        config=reference.config,
        variant_name=reference.variant_name,
        chaincode_name=reference.chaincode_name,
        workload_name=workload_name,
        arrival_rate=arrival_rate,
        duration=duration,
        seed=reference.seed,
        ledger=Ledger(),  # per-channel chains live in channel_records
        transactions=sorted(
            (tx for run in runs for tx in run.transactions),
            key=lambda tx: (tx.submitted_at, tx.tx_id),
        ),
        early_aborted=[tx for run in runs for tx in run.early_aborted],
        read_only_skipped=[tx for run in runs for tx in run.read_only_skipped],
        simulated_end=end,
        blocks_cut=sum(run.blocks_cut for run in runs),
        orderer_utilization=mean(run.orderer_utilization for run in runs),
        mean_validation_utilization=mean(run.mean_validation_utilization for run in runs),
        mean_endorsement_utilization=mean(run.mean_endorsement_utilization for run in runs),
        channel_records=channel_records,
        lifecycle_counts=merge_counts(run.lifecycle_counts for run in runs),
        retry_policy=reference.retry_policy,
        resubmissions=sum(run.resubmissions for run in runs),
        retries_exhausted=sum(run.retries_exhausted for run in runs),
        retry_budget_denied=sum(run.retry_budget_denied for run in runs),
        retry_rate_denied=sum(run.retry_rate_denied for run in runs),
        fault_injections=merge_counts(run.fault_injections for run in runs),
        observability=observability,
        isolation=merge_isolation_reports(run.isolation for run in runs),
        execution=execution,
        shard_count=len(cells),
    )
