"""Host-speed probe: times a fixed piece of work at regular intervals.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more over tens of seconds, with the same code and inputs. A
:class:`Probe` measures that drift while the program runs: a real-time
interval timer interrupts the process every ``interval`` seconds and the
signal handler runs one fixed, tiny, pure-Python chunk of work to warm the
caches the program's own code has just used, then times a second run of it.
How long the
chunk takes on average over a stretch of time, against its reference
duration :data:`REF_CHUNK_S`, is the host's slowness over that stretch, and
:func:`to_reference` scales a measured time to the time it would have taken
on the reference host. The chunk depends on nothing in stablemix, so a change
to the program moves the scaled times as it moves the raw ones.

The handler runs in the main thread between bytecodes, so it samples the
program's Python code and not the inside of a long native call. Its own time,
both runs, is recorded and subtracted from the scaled interval.

Run as a script, the module measures set-up: it starts a probe, imports the
module named by ``--import`` and prints one JSON object with the import's
probe samples, so that a fresh interpreter's import time can be scaled too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from typing import List, Optional, Sequence, Tuple

INTERVAL_S = 0.05
# Duration of one warm chunk on the reference host (2 vCPUs of an Intel Xeon
# under KVM, Python 3.11.7), about its mean over several minutes of the
# benchmark's runs. A time scaled by to_reference reads in seconds on that
# host at that speed.
REF_CHUNK_S = 2.2e-4

# One sample: (start on the perf_counter clock, handler time, timed chunk
# time), in seconds.
Sample = Tuple[float, float, float]


def chunk() -> int:
    """The fixed work the probe times: integer arithmetic, a list and a dict."""
    total = 0
    seen = {}
    items = []
    for i in range(2000):
        total += (i * i) % 7
        items.append(total)
        seen[i & 31] = total
    return total + len(items) + len(seen)


class Probe:
    """Times :func:`chunk` every ``interval`` seconds while it is started.

    Use as a context manager. It owns SIGALRM and ITIMER_REAL while started
    and puts the previous handler back when stopped.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[Sample] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        chunk()
        warm = time.perf_counter()
        chunk()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - warm))

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def window(samples: Sequence[Sample], start: float, end: float) -> Tuple[float, int, float]:
    """Probe time, sample count and mean timed chunk duration of the samples
    that started in ``[start, end)``; the mean is 0 when there are none."""
    inside = [sample for sample in samples if start <= sample[0] < end]
    spent = sum(sample[1] for sample in inside)
    mean = sum(sample[2] for sample in inside) / len(inside) if inside else 0.0
    return spent, len(inside), mean


def to_reference(elapsed: float, probe_s: float, mean_chunk: float, ref_chunk: float = REF_CHUNK_S) -> float:
    """``elapsed`` less the probe's own time, scaled from a host on which the
    chunk took ``mean_chunk`` to the reference host."""
    if mean_chunk <= 0:
        raise ValueError("no probe samples in the interval")
    return (elapsed - probe_s) * ref_chunk / mean_chunk


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Import a module under the host-speed probe.")
    parser.add_argument("--import", dest="module", required=True)
    args = parser.parse_args(argv)
    with Probe() as probe:
        start = time.perf_counter()
        importlib.import_module(args.module)
        end = time.perf_counter()
    spent, count, mean = window(probe.samples, start, end)
    print(json.dumps({"import_s": end - start, "probe_s": spent, "samples": count, "mean_chunk_s": mean}))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
