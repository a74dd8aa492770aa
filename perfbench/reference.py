"""A fixed reference workload that measures the host's speed, not the program's.

The host this benchmark runs on is shared: its speed drifts by +-20% over
minutes as other tenants come and go, in CPU time as much as in wall time.
The benchmark times this workload between its own measurements and expresses
every end-to-end time in *reference seconds*: host seconds scaled to a host
that runs ``reference()`` in ``NOMINAL_S``.  A slow spell of the host slows the
program and the reference alike, so it cancels; a slower program does not.

The workload is pure Python shaped like the simulator's hot path (a heap of
slotted events, versioned string keys in a dict, one record per event, random
draws) with a working set of tens of megabytes.  It runs in the benchmark's
own process, which never imports the program under test, so no change to the
program can change it.

Do not edit ``reference()``: any change rescales every end-to-end time and
makes the numbers of earlier commits incomparable.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Host seconds of one ``reference()`` call on the nominal host.
NOMINAL_S = 0.5


class _Event:
    __slots__ = ("at", "kind", "key", "seq")

    def __init__(self, at: float, kind: int, key: str, seq: int) -> None:
        self.at = at
        self.kind = kind
        self.key = key
        self.seq = seq

    def __lt__(self, other: "_Event") -> bool:
        return (self.at, self.seq) < (other.at, other.seq)


def reference(events: int = 60_000, keys: int = 50_000) -> int:
    """Process ``events`` events over ``keys`` keys; returns a checksum."""
    rng = random.Random(12345)
    names = [f"patient-{index:06d}" for index in range(keys)]
    queue = []
    state = {}
    log = []
    seq = 0
    for index in range(500):
        seq += 1
        heapq.heappush(queue, _Event(rng.random(), index % 3, names[index], seq))
    for _ in range(events):
        event = heapq.heappop(queue)
        version = state.get(event.key, (0, 0.0))
        state[event.key] = (version[0] + 1, event.at)
        log.append({"key": event.key, "at": event.at, "version": version[0]})
        seq += 1
        heapq.heappush(
            queue,
            _Event(
                event.at + rng.expovariate(1.0),
                (event.kind + 1) % 3,
                names[rng.randrange(keys)],
                seq,
            ),
        )
    return len(state) * 1_000_003 + sum(record["version"] for record in log)


def time_reference() -> float:
    """Host seconds of one ``reference()`` call, after a full collection."""
    gc.collect()
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started
