"""The traced run's layers: which public functions are wrapped, and the metrics.

Each :class:`Layer` names the public functions of one ``src/repro`` module
whose calls are timed from outside.  Methods are wrapped on the class and on
every loaded subclass that overrides them; module functions are replaced in
every loaded ``repro`` module that holds them by name, because a caller that
did ``from x import f`` looks ``f`` up in its own module.

A wrapped call's self time is its duration minus the wrapped calls it made,
so each layer's ``self_s`` counts the time spent in that layer's own code and
in whatever unwrapped helpers it calls.  The simulator's ``run_until_empty``
is the outermost frame of the event loop, so ``sim.self_s`` also holds the
private callbacks (service stations, timers) that no public function covers.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from tracer import PROBE, LayerTimes, Tracer


def _count_events(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("sim.events", args[0].processed_events)


def _count_reorder_aborts(tracer: Tracer, args: tuple, result) -> None:
    block = args[1]
    tracer.count("fabric.reordered_tx", len(block.transactions))
    tracer.count(
        "fabric.reorder_aborted_tx",
        sum(
            1
            for tx in block.transactions
            if getattr(tx.validation_code, "name", None) == "ABORTED_BY_REORDERING"
        ),
    )


def _measure_shard_results(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("shard.result_bytes", len(pickle.dumps(result)))
    workers = getattr(args[0], "_processes", 0) or 0
    tracer.counters["shard.workers"] = max(tracer.counters.get("shard.workers", 0), workers)


#: The tracer of this process, for the tasks that run in forked shard workers
#: (they reach it by import path, as pickled tasks must).
_ACTIVE: Optional[Tracer] = None


def _traced_task(spans_path: str, function: Callable, task):
    """Run one shard task in a worker and write the worker's spans after it."""
    tracer = _ACTIVE
    with tracer.span("shard.task"):
        result = function(task)
    tracer.dump(f"{spans_path}.{os.getpid()}-{time.monotonic_ns()}")
    return result


def _trace_workers(original_map: Callable, spans_path: str) -> Callable:
    """``Pool.map`` that ships every task traced to its worker."""

    @functools.wraps(original_map)
    def map(pool, func, iterable, chunksize=None):
        return original_map(
            pool, functools.partial(_traced_task, spans_path, func), iterable, chunksize
        )

    return map


@dataclass(frozen=True)
class Target:
    """``module.owner.name``; ``owner`` is ``None`` for a module function."""

    module: str
    owner: Optional[str]
    names: Tuple[str, ...]
    after: Optional[Callable] = None
    #: Wrap only subclasses that override the method, not the base hook.
    overrides_only: bool = False
    #: ``adapt(original, spans_path)`` replaces the original before it is
    #: traced (``Pool.map`` ships tracing to the workers).
    adapt: Optional[Callable[[Callable, str], Callable]] = None


@dataclass(frozen=True)
class Layer:
    span: str
    calls_metric: Optional[str]
    self_metric: str
    targets: Tuple[Target, ...]


LAYERS: Tuple[Layer, ...] = (
    Layer("cli", None, "cli.self_s", (Target("repro.cli", None, ("main",)),)),
    Layer(
        "lifecycle.build", None, "lifecycle.build_s",
        (Target("repro.lifecycle.pipeline", None, ("build_network",)),),
    ),
    Layer(
        "sim", None, "sim.self_s",
        (Target("repro.sim.engine", "Simulator", ("run_until_empty",), after=_count_events),),
    ),
    Layer(
        "workload", "workload.calls", "workload.self_s",
        (Target("repro.workload.generator", "WorkloadGenerator", ("next_request",)),),
    ),
    Layer(
        "network.client", "network.client.calls", "network.client.self_s",
        (Target("repro.network.client_node", "ClientNode", ("submit_transaction",)),),
    ),
    Layer(
        "network.peer.endorse", "network.peer.endorse_calls", "network.peer.endorse_self_s",
        (Target("repro.network.peer", "Peer", ("receive_proposal",)),),
    ),
    Layer(
        "network.peer.commit", "network.peer.commit_calls", "network.peer.commit_self_s",
        (Target("repro.network.peer", "Peer", ("deliver_block",)),),
    ),
    Layer(
        "chaincode", "chaincode.calls", "chaincode.self_s",
        (Target("repro.chaincode.base", "Chaincode", ("execute",)),),
    ),
    Layer(
        "network.orderer", "network.orderer.calls", "network.orderer.self_s",
        (Target("repro.network.orderer", "OrderingService", ("submit",)),),
    ),
    Layer(
        "fabric.reorder", "fabric.reorder_calls", "fabric.reorder_self_s",
        (
            Target(
                "repro.fabric.variant", "FabricVariantBehavior", ("prepare_block",),
                after=_count_reorder_aborts, overrides_only=True,
            ),
        ),
    ),
    Layer(
        "network.validator", "network.validator.calls", "network.validator.self_s",
        (Target("repro.network.validator", "BlockValidator", ("validate_block",)),),
    ),
    Layer(
        "ledger.apply", "ledger.apply_calls", "ledger.apply_self_s",
        (
            Target("repro.ledger.kvstore", "VersionedKVStore", ("apply_batch",)),
            Target("repro.ledger.store", "OverlayStateStore", ("apply_batch",)),
        ),
    ),
    Layer(
        "ledger.query", "ledger.query_calls", "ledger.query_self_s",
        (
            Target("repro.ledger.kvstore", "VersionedKVStore", ("range", "rich_query")),
            Target("repro.ledger.store", "OverlayStateStore", ("range", "rich_query")),
            Target("repro.ledger.store", "EpochSnapshot", ("range", "rich_query")),
            Target("repro.ledger.store", "LaggedStateView", ("range", "rich_query")),
        ),
    ),
    Layer(
        "lifecycle.bus", "lifecycle.bus_calls", "lifecycle.bus_self_s",
        (Target("repro.lifecycle.events", "LifecycleBus", ("emit_tx", "emit_failure")),),
    ),
    Layer(
        "checker", "checker.calls", "checker.self_s",
        (
            Target(
                "repro.checker.checker", "ChannelChecker",
                ("observe_commit", "observe_abort", "finalize"),
            ),
        ),
    ),
    Layer(
        "observability.collect", None, "observability.collect_s",
        (Target("repro.observability.observer", "RunObserver", ("collect",)),),
    ),
    Layer(
        "observability.export", None, "observability.export_s",
        (Target("repro.observability.export", None, ("write_chrome_trace", "write_metrics")),),
    ),
    Layer(
        "channels", None, "channels.self_s",
        (
            Target("repro.channels.network", "MultiChannelNetwork", ("run",)),
            Target("repro.channels.sharded", "ShardedChannelNetwork", ("run",)),
        ),
    ),
    Layer(
        "shard.pool_map", None, "shard.pool_map_s",
        (
            Target(
                "multiprocessing.pool", "Pool", ("map",),
                after=_measure_shard_results, adapt=_trace_workers,
            ),
        ),
    ),
    Layer(
        "core.analyze", None, "core.analyze_s",
        (Target("repro.core.analyzer", "LedgerAnalyzer", ("analyze",)),),
    ),
)


def _subclasses(cls: type) -> List[type]:
    """``cls`` and its loaded subclasses, each once."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


def _holders(target: Target, name: str) -> Optional[List[object]]:
    """Where ``name`` of ``target`` is looked up, or ``None`` when it is gone.

    A holder is a class that defines the method, or a loaded ``repro``
    module that holds the function by name.
    """
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    if target.owner is None:
        original = getattr(module, name, None)
        if original is None:
            return None
        return [
            loaded
            for loaded_name, loaded in list(sys.modules.items())
            if loaded_name.split(".")[0] == "repro" and getattr(loaded, name, None) is original
        ]
    owner = getattr(module, target.owner, None)
    if owner is None:
        return None
    classes = [
        cls
        for cls in _subclasses(owner)
        if name in vars(cls) and not (target.overrides_only and cls is owner)
    ]
    # Variants without an override of a hook are fine; a missing method is not.
    return classes if classes or target.overrides_only else None


def resolve() -> Tuple[List[Tuple[Layer, Target, object, str]], List[str]]:
    """Every (layer, target, holder, name) to patch, and the targets not found."""
    places: List[Tuple[Layer, Target, object, str]] = []
    missing: List[str] = []
    for layer in LAYERS:
        for target in layer.targets:
            for name in target.names:
                holders = _holders(target, name)
                if holders is None:
                    missing.append(".".join(filter(None, (target.module, target.owner, name))))
                    continue
                places.extend((layer, target, holder, name) for holder in holders)
    return places, missing


def install(tracer: Tracer, spans_path: str) -> List[str]:
    """Wrap every layer's targets; returns the targets that were not found.

    Call after ``import repro.cli`` and before the run, so the classes and
    the by-name imports to patch are loaded and nothing has bound a method
    yet.  Forked shard workers keep the wrappers, record their own spans and
    write them to files named ``spans_path`` plus a suffix after each task.
    """
    global _ACTIVE
    _ACTIVE = tracer
    os.register_at_fork(after_in_child=tracer.restart_in_child)
    places, missing = resolve()
    wrapped: Dict[int, Callable] = {}
    for layer, target, holder, name in places:
        original = vars(holder)[name] if isinstance(holder, type) else getattr(holder, name)
        if id(original) not in wrapped:
            function = target.adapt(original, spans_path) if target.adapt else original
            wrapped[id(original)] = tracer.wrap(layer.span, function, target.after)
        setattr(holder, name, wrapped[id(original)])
    return missing


def _percentile_ms(durations: List[float], fraction: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))] * 1000.0


def merge(processes: List[Dict[str, LayerTimes]]) -> Dict[str, LayerTimes]:
    """Per span name, the calls, self times and durations of all processes."""
    merged: Dict[str, LayerTimes] = {}
    for layers in processes:
        for name, times in layers.items():
            total = merged.setdefault(name, LayerTimes())
            total.calls += times.calls
            total.self_s += times.self_s
            total.durations.extend(times.durations)
    return merged


def layer_metrics(
    processes: List[Dict[str, LayerTimes]], counters: Dict[str, float], wall_s: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``processes[0]`` is the traced CLI process, whose wall without the
    tracer's probes was ``wall_s``; the others are its shard workers' tasks.
    Layer counts and self times add up over all processes.  The workers run
    while the CLI process waits in ``shard.pool_map``, so
    ``trace.attributed_share`` counts the CLI process alone: the part of its
    wall that falls in the self time of some layer.
    """
    empty = LayerTimes()
    layers = merge(processes)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        times = layers.get(layer.span, empty)
        if layer.calls_metric is not None:
            metrics[layer.calls_metric] = times.calls
        metrics[layer.self_metric] = times.self_s
    metrics["shard.worker_self_s"] = layers.get("shard.task", empty).self_s
    metrics["cli.import_s"] = layers.get("cli.import", empty).self_s
    metrics["sim.events"] = counters.get("sim.events", 0)
    reordered = counters.get("fabric.reordered_tx", 0)
    metrics["fabric.reorder_abort_ratio"] = (
        counters.get("fabric.reorder_aborted_tx", 0) / reordered if reordered else 0.0
    )
    validations = layers.get("network.validator", empty).durations
    metrics["network.validator.p50_ms"] = _percentile_ms(validations, 0.5)
    metrics["network.validator.p90_ms"] = _percentile_ms(validations, 0.9)
    metrics["shard.result_bytes"] = counters.get("shard.result_bytes", 0)
    metrics["shard.workers"] = counters.get("shard.workers", 0)
    attributed = sum(times.self_s for name, times in processes[0].items() if name != PROBE)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.attributed_share"] = attributed / wall_s if wall_s > 0 else 0.0
    return metrics


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Per metric, the median over several traced runs."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
