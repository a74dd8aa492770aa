"""Child process of the benchmark: one fresh interpreter per measurement.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/probe.py setup            -- <repro run arguments>
    python3 perfbench/probe.py warm             -- <repro run arguments>
    python3 perfbench/probe.py cli  SPANS|-     -- <repro run arguments>

``setup`` imports ``repro.cli`` and builds the deployment the arguments
describe; it prints both durations and the stamp at which the build
returned, so the parent can time launch -> build returned.

``warm`` repeats build -> run -> analyze in this one process: once at start to
warm up, then once per line read from standard input, printing one JSON line
per repetition.

``cli`` runs ``repro.cli.main`` in-process, wrapped by the layer tracer when
``SPANS`` names the file its spans go to (``-`` runs it untraced; shard
workers write theirs to ``SPANS.<suffix>``).  It prints the CLI's exit code
and output and the stamp at which ``main`` returned.

Every stamp is ``time.monotonic()``, which is one clock for all processes of
the machine.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time


def _config(cli_args):
    """The experiment the CLI would run for ``cli_args``."""
    import repro.cli

    args = repro.cli.build_parser().parse_args(cli_args)
    config = repro.cli._experiment_config(args)
    config.validate()
    return config


def _build(config):
    """Build repetition 0 of ``config`` exactly as the experiment harness does."""
    from repro.bench.harness import repetition_seed
    from repro.ledger.block import reset_transaction_ids
    from repro.lifecycle.pipeline import build_network

    reset_transaction_ids()
    return build_network(
        config=config.network,
        chaincode_factory=config.build_chaincode,
        variant_factory=config.variant,
        seed=repetition_seed(config, 0),
    )


def setup(cli_args) -> dict:
    import_start = time.monotonic()
    import repro.cli  # noqa: F401

    import_end = time.monotonic()
    config = _config(cli_args)
    build_start = time.monotonic()
    _build(config)
    build_end = time.monotonic()
    return {
        "import_s": import_end - import_start,
        "build_s": build_end - build_start,
        "build_end": build_end,
    }


def warm(cli_args) -> None:
    from repro.core.analyzer import LedgerAnalyzer
    from repro.workload.distributions import make_distribution

    config = _config(cli_args)
    repetition = 0
    # Repetition 0 warms up; each later one runs when a line arrives on stdin.
    while repetition == 0 or sys.stdin.readline():
        gc.collect()
        network = _build(config)
        started = time.perf_counter()
        record = network.run(
            mix=config.workload.mix,
            arrival_rate=config.arrival_rate,
            duration=config.duration,
            key_distribution=make_distribution(config.zipf_skew),
            workload_name=config.workload.name,
        )
        analysis = LedgerAnalyzer().analyze(record)
        seconds = time.perf_counter() - started
        metrics = analysis.metrics
        outcome = {
            "repetition": repetition,
            "seconds": seconds,
            "submitted_transactions": metrics.submitted_transactions,
            "committed_transactions": metrics.committed_transactions,
            "failures": analysis.failure_report.as_dict(),
        }
        print(json.dumps(outcome), flush=True)
        del network, record, analysis
        repetition += 1


def cli(cli_args, spans_path: str) -> dict:
    from tracer import PROBE, Tracer

    tracer = Tracer(run_id=os.getpid(), clock=time.monotonic)
    with tracer.span("cli.import"):
        import repro.cli
    missing = []
    if spans_path != "-":
        with tracer.span(PROBE):
            from layers import install

            missing = install(tracer, spans_path)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exit_code = repro.cli.main(cli_args)
    main_end = time.monotonic()
    tracer.enabled = False
    if spans_path != "-":
        tracer.dump(spans_path)
    return {
        "exit_code": exit_code,
        "stdout": output.getvalue(),
        "main_end": main_end,
        "missing": missing,
    }


def main(argv) -> int:
    separator = argv.index("--")
    mode, options, cli_args = argv[0], argv[1:separator], argv[separator + 1:]
    if mode == "setup":
        print(json.dumps(setup(cli_args)))
    elif mode == "warm":
        warm(cli_args)
    elif mode == "cli":
        print(json.dumps(cli(cli_args, options[0])))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
