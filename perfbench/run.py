"""The simulator's benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fabric-ehr --seed 7 --seconds 44 --trace 0

Host load is closed loop: one measured process at a time, each started after
the previous one ended.  Inside each run the simulated clients are an
open-loop Poisson stream at the workload's ``--rate``.

``--trace 0`` measures the end-to-end metrics with tracing off:

``setup_s``      fresh interpreter: launch -> ``import repro.cli`` ->
                 ``build_network`` returned; median of several set-ups.
``wall_s``       process wall of the workload's ``python -m repro run ... --json``
                 from launch to exit; median over the runs made.
``tx_per_s``     simulated transactions submitted per second of a warm
                 in-process repetition (run + analyze, build excluded); median.
``peak_rss_mb``  largest resident set of the CLI process or any of its shard
                 workers; median over the runs made.

The three times are in reference seconds (see ``reference.py``): the host
medians scaled by ``NOMINAL_S`` over the mean time of the reference
workload, which is timed before every measurement.  The host
medians and the reference go to standard error.

``--trace 1`` runs the CLI in-process with the layers of ``layers.py``
wrapped, alternating with untraced in-process runs, and reports the median
per-layer metrics, the traced wall, its attributed share and the tracing
overhead (traced minus untraced wall).

Every CLI run, warm repetition and traced run is an operation whose output is
checked (see ``workloads.py``); a wrong output counts as a failed operation.
The last line of standard output is the JSON result.  The samples, their
count and the set-up split go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from layers import layer_metrics, median_metrics
from reference import NOMINAL_S, time_reference
from tracer import PROBE, load, reduce_spans
from workloads import WORK_DIR, WORKLOADS, OutputCheck

ROOT = Path(__file__).resolve().parent.parent
PROBE_SCRIPT = Path(__file__).resolve().parent / "probe.py"
#: Least number of measurement rounds in one run.
MIN_SAMPLES = 3
#: Children still running this long after the benchmark started are killed,
#: so a hung program fails the run instead of outliving its time limit.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "tx_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    exit_code: int
    launched: float
    ended: float
    peak_rss_mb: float
    stdout: bytes

    @property
    def wall_s(self) -> float:
        return self.ended - self.launched


def child_env() -> Dict[str, str]:
    """The environment of every measured process.

    The program under test comes from this checkout's ``src``.  A process
    budget inherited from an outer runner would cap the shard workers, and
    disabled bytecode caching would put compilation into every import; both
    would make the numbers depend on the caller instead of the commit.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_PROCESS_BUDGET", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _kill_at(deadline: float, process: subprocess.Popen) -> threading.Timer:
    """Kill ``process`` and its session when ``deadline`` (monotonic) passes."""
    watchdog = threading.Timer(
        max(0.0, deadline - time.monotonic()), os.killpg, (process.pid, signal.SIGKILL)
    )
    watchdog.start()
    return watchdog


def run_child(argv: Sequence[str], stdout_path: Path, deadline: float) -> Child:
    """Run ``argv`` to completion; wall from launch to exit, peak RSS.

    ``os.wait4`` returns the child's resource usage, whose peak resident set
    covers the child and every descendant it waited for (its shard workers).
    The child runs in its own session so that a child still running at
    ``deadline`` is killed with its workers.
    """
    with open(stdout_path, "wb") as stdout:
        launched = time.monotonic()
        process = subprocess.Popen(
            list(argv), cwd=ROOT, env=child_env(), stdout=stdout, start_new_session=True
        )
        watchdog = _kill_at(deadline, process)
        try:
            _pid, status, usage = os.wait4(process.pid, 0)
            ended = time.monotonic()
        finally:
            watchdog.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        exit_code=process.returncode,
        launched=launched,
        ended=ended,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout_path.read_bytes(),
    )


def _probe(mode: str, options: Sequence[str], cli_args: Sequence[str]) -> List[str]:
    return [sys.executable, str(PROBE_SCRIPT), mode, *options, "--", *cli_args]


def _last_json(stdout: bytes) -> dict:
    return json.loads(stdout.decode().strip().splitlines()[-1])


def _describe(name: str, values: List[float]) -> str:
    """Median and sample count; the samples themselves stand in for a tail."""
    samples = ", ".join(f"{value:.6g}" for value in values)
    return (
        f"{name}: median {statistics.median(values):.6g} over n={len(values)} "
        f"(too few for a tail percentile; samples {samples})"
    )


def _another_round(rounds: int, round_started: float, end: float) -> bool:
    """Whether to start another round: the minimum is not reached yet, or
    one more round, assumed as long as the last, ends nearer to ``end`` than
    stopping now would, so that runs end at ``end`` on average."""
    now = time.monotonic()
    return rounds < MIN_SAMPLES or now + (now - round_started) / 2 <= end


def measure_end_to_end(
    workload, seed: int, seconds: float, check: OutputCheck, deadline: float
) -> Dict[str, float]:
    """Rounds of (set-up, CLI run, warm repetition) within ``seconds``.

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell of the host weighs on all of them alike.  The reference is
    timed before each of the three, measuring that spell; the times are
    scaled by it.
    """
    cli_args = workload.cli_args(seed)
    stdout_path = WORK_DIR / f"{workload.name}.stdout"
    started = time.monotonic()
    warm = subprocess.Popen(
        _probe("warm", (), cli_args), cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    watchdog = _kill_at(deadline, warm)
    setups, imports, builds, walls, peaks, rates, references = [], [], [], [], [], [], []
    try:
        warm_up = json.loads(warm.stdout.readline())
        time_reference()
        rounds = 0
        round_started = time.monotonic()
        while _another_round(rounds, round_started, started + seconds):
            rounds += 1
            round_started = time.monotonic()
            references.append(time_reference())
            child = run_child(_probe("setup", (), cli_args), stdout_path, deadline)
            if child.exit_code != 0:
                raise RuntimeError(f"set-up probe exited with {child.exit_code}")
            stamps = _last_json(child.stdout)
            setups.append(stamps["build_end"] - child.launched)
            imports.append(stamps["import_s"])
            builds.append(stamps["build_s"])

            references.append(time_reference())
            child = run_child([sys.executable, "-m", "repro", *cli_args], stdout_path, deadline)
            check.cli_run(f"cli run {rounds}", child.exit_code, child.stdout)
            if child.exit_code == 0:
                walls.append(child.wall_s)
                peaks.append(child.peak_rss_mb)

            references.append(time_reference())
            warm.stdin.write("run\n")
            warm.stdin.flush()
            outcome = json.loads(warm.stdout.readline())
            check.repetition(f"warm repetition {rounds}", outcome)
            rates.append(outcome["submitted_transactions"] / outcome["seconds"])
        check.repetition("warm-up repetition", warm_up)
    finally:
        # End of input ends the warm probe; the watchdog bounds the wait.
        warm.stdin.close()
        warm.stdout.close()
        warm.wait()
        watchdog.cancel()
    if warm.returncode != 0:
        raise RuntimeError(f"warm probe exited with {warm.returncode}")

    if not walls:
        raise RuntimeError("no CLI run completed")
    for name, values in (
        ("setup_s", setups), ("cli.import_s", imports), ("lifecycle.build_s", builds),
        ("wall_s", walls), ("peak_rss_mb", peaks), ("tx_per_s", rates),
        ("reference_s", references),
    ):
        print(_describe(f"host {name}", values), file=sys.stderr)
    # Host seconds -> reference seconds.  The reference's mean, not its
    # median: its short samples fall into a fast and a slow mode about 1.5x
    # apart, and a median jumps between them while the mean follows the
    # host's average speed over the run.
    scale = NOMINAL_S / statistics.mean(references)
    return {
        "wall_s": statistics.median(walls) * scale,
        "tx_per_s": statistics.median(rates) / scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(peaks),
    }


def _in_process_run(
    workload, seed: int, check: OutputCheck, traced: bool, label: str, deadline: float
):
    """One in-process CLI run; returns (wall without probes, layer metrics)."""
    spans_path = WORK_DIR / f"{workload.name}.spans"
    for stale in WORK_DIR.glob(f"{spans_path.name}*"):
        stale.unlink()
    child = run_child(
        _probe("cli", (str(spans_path) if traced else "-",), workload.cli_args(seed)),
        WORK_DIR / f"{workload.name}.stdout",
        deadline,
    )
    if child.exit_code != 0:
        raise RuntimeError(f"{label} probe exited with {child.exit_code}")
    report = _last_json(child.stdout)
    if report["missing"]:
        print(f"{label}: layer targets not found: {report['missing']}", file=sys.stderr)
    check.cli_run(label, report["exit_code"], report["stdout"].encode())
    if report["exit_code"] != 0:
        return None
    wall = report["main_end"] - child.launched
    if not traced:
        return wall, None
    processes, counters = [], {}
    for path in [spans_path, *sorted(WORK_DIR.glob(f"{spans_path.name}.*"))]:
        spans, process_counters = load(str(path))
        processes.append(reduce_spans(spans))
        for name, value in process_counters.items():
            counters[name] = counters.get(name, 0) + value
    probe_s = sum(processes[0][PROBE].durations) if PROBE in processes[0] else 0.0
    return wall - probe_s, layer_metrics(processes, counters, wall - probe_s)


def measure_layers(
    workload, seed: int, seconds: float, check: OutputCheck, deadline: float
) -> Dict[str, float]:
    started = time.monotonic()
    untraced_walls: List[float] = []
    traced_runs: List[Dict[str, float]] = []
    pairs = 0
    round_started = started
    while _another_round(pairs, round_started, started + seconds):
        pairs += 1
        round_started = time.monotonic()
        outcome = _in_process_run(workload, seed, check, False, f"untraced run {pairs}", deadline)
        if outcome is not None:
            untraced_walls.append(outcome[0])
        outcome = _in_process_run(workload, seed, check, True, f"traced run {pairs}", deadline)
        if outcome is not None:
            traced_runs.append(outcome[1])
    if not traced_runs or not untraced_walls:
        raise RuntimeError("no traced run completed")
    metrics = median_metrics(traced_runs)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
    print(_describe("trace.wall_s", [run["trace.wall_s"] for run in traced_runs]), file=sys.stderr)
    print(_describe("untraced in-process wall_s", untraced_walls), file=sys.stderr)
    return metrics


def _units(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    check = OutputCheck(ROOT, workload, args.seed)
    if check.expected is None:
        print(
            f"no recorded expectation for {workload.name} at seed {args.seed}: "
            "checking repeat agreement and invariants only",
            file=sys.stderr,
        )
    if args.trace:
        metrics = measure_layers(workload, args.seed, args.seconds, check, deadline)
    else:
        metrics = measure_end_to_end(workload, args.seed, args.seconds, check, deadline)
    for problem in check.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": check.failed == 0,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": {
                    name: {"value": value, "unit": _units(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
