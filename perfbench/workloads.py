"""The benchmark's workloads and the check of each run's simulated output.

Every workload is one ``python -m repro run`` command line.  The flags are
fixed; only ``--seed`` comes from the benchmark's own ``--seed`` argument.
Why each workload was chosen is recorded in ``README.md`` next to this file.

A run's output is correct when the CLI exits 0 and its ``--json`` document,
without the execution metadata (``execution``, ``shard_count``), hashes to the
digest recorded in ``expected.json`` for that workload and seed.  Repeats of
one seed inside one benchmark invocation must also agree byte for byte, and
``fabricpp-observed`` must certify serializable and write trace and metrics
exports that parse with the recorded span count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
#: Files the CLI writes (trace/metrics exports) and the traced runs' spans.
WORK_DIR = HERE / ".work"
EXPECTED_FILE = HERE / "expected.json"
#: Seed the CLI uses when none is given.
DEFAULT_SEED = 7
#: Seed kept out of every tuning run; checked only when the benchmark is proven.
HELD_OUT_SEED = 4242
#: Execution metadata: it names the strategy that ran, not what it computed
#: (sharded and shared-clock runs are bit-identical by contract).
EXECUTION_KEYS = ("execution", "shard_count")


@dataclass(frozen=True)
class Workload:
    name: str
    flags: Tuple[str, ...]
    #: Export files the CLI is asked to write, relative to the checkout root.
    trace_out: Optional[str] = None
    metrics_out: Optional[str] = None

    def cli_args(self, seed: int) -> List[str]:
        """The ``repro`` argument list (after ``python -m repro``)."""
        args = ["run", *self.flags]
        if self.trace_out is not None:
            args += ["--trace-out", self.trace_out]
        if self.metrics_out is not None:
            args += ["--metrics-out", self.metrics_out]
        return args + ["--seed", str(seed), "--json"]


#: ``WORK_DIR`` as the CLI sees it from the checkout root.
_WORK = f"{HERE.name}/.work"

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's default pipeline with no optional layer: the bypass
        # workload for reordering, observability, the checker and sharding.
        Workload(
            "fabric-ehr",
            (
                "--variant", "fabric-1.4", "--chaincode", "EHR", "--database", "leveldb",
                "--block-size", "100", "--rate", "200", "--duration", "60",
            ),
        ),
        # Fabric++ reordering, the isolation checker, the observer and the
        # tracer with both exports, under write-heavy contention.
        Workload(
            "fabricpp-observed",
            (
                "--variant", "fabric++", "--chaincode", "EHR", "--database", "leveldb",
                "--block-size", "100", "--rate", "200", "--duration", "30",
                "--check-isolation",
            ),
            trace_out=f"{_WORK}/fabricpp-observed.trace.json",
            metrics_out=f"{_WORK}/fabricpp-observed.metrics.json",
        ),
        # Shard IPC and merge, per-channel builds inside the workers, CouchDB
        # range and rich-query reads, and serial analysis of four ledgers.
        Workload(
            "channels4-sharded",
            (
                "--variant", "fabric-1.4", "--chaincode", "genChain", "--database", "couchdb",
                "--block-size", "50", "--channels", "4", "--shard-workers", "2",
                "--rate", "600", "--duration", "20",
            ),
        ),
    )
}


def result_digest(document: dict) -> str:
    """SHA-256 of the CLI document without its execution metadata."""
    document = json.loads(json.dumps(document))
    for key in EXECUTION_KEYS:
        document["result"].pop(key, None)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(document: dict, root: Path, workload: Workload) -> dict:
    """The recorded facts of one run: digest, counts and export span count."""
    result = document["result"]
    summary = {
        "digest": result_digest(document),
        "submitted": result["submitted_transactions"],
        "committed": result["committed_transactions"],
    }
    if workload.trace_out is not None:
        trace = json.loads((root / workload.trace_out).read_text())
        summary["trace_spans"] = sum(1 for event in trace["traceEvents"] if event["ph"] == "X")
    if workload.metrics_out is not None:
        metrics = json.loads((root / workload.metrics_out).read_text())
        summary["metrics_sections"] = sorted(metrics)
    if "isolation" in result:
        summary["verdict"] = result["isolation"]["verdict"]
    return summary


def load_expected(workload: str, seed: int) -> Optional[dict]:
    """The recorded summary for ``workload`` at ``seed``, if one exists."""
    recorded = json.loads(EXPECTED_FILE.read_text())
    return recorded["workloads"].get(workload, {}).get(str(seed))


class OutputCheck:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self, root: Path, workload: Workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.expected = load_expected(workload.name, seed)
        self.first_stdout: Optional[bytes] = None
        self.first_summary: Optional[dict] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {problem}")

    def cli_run(self, label: str, exit_code: int, stdout: bytes) -> None:
        """Check one CLI invocation."""
        self.attempted += 1
        if exit_code != 0:
            self._fail(label, f"exit code {exit_code}")
            return
        if self.first_stdout is None:
            self.first_stdout = stdout
        elif stdout != self.first_stdout:
            self._fail(label, "output differs from the first run of this seed")
            return
        try:
            summary = summarize(json.loads(stdout), self.root, self.workload)
        except (ValueError, KeyError, OSError) as error:
            self._fail(label, f"unreadable output or export: {error!r}")
            return
        reference = self.expected if self.expected is not None else self.first_summary
        if self.first_summary is None:
            self.first_summary = summary
        if "verdict" in summary and summary["verdict"] != "CERTIFIED-SERIALIZABLE":
            self._fail(label, f"isolation verdict {summary['verdict']}")
            return
        if reference is not None and summary != reference:
            differing = sorted(key for key in summary if summary[key] != reference.get(key))
            self._fail(label, f"differs from the recorded expectation in {differing}")

    def repetition(self, label: str, outcome: dict) -> None:
        """Check one in-process repetition against the CLI result."""
        self.attempted += 1
        if self.first_stdout is None:
            self._fail(label, "no CLI result to compare with")
            return
        result = json.loads(self.first_stdout)["result"]
        for key in ("submitted_transactions", "committed_transactions", "failures"):
            if outcome[key] != result[key]:
                self._fail(label, f"{key} differs from the CLI result")
                return
