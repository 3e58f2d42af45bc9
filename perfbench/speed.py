"""How fast the host is running right now, sampled beside the timed work.

On a shared virtual host the same Python work runs up to twice as slow
at one time as at another, in periods of seconds to minutes, and each
CPU drifts on its own.  Ten 25-second runs of the replay sweep spread by
29% of their median between the first and the third quartile, more
than any bound the benchmark may set.

So a sampler process runs beside the benchmark, pinned to the CPU the
timed work runs on.  Every :data:`PERIOD_S` it runs a fixed reference
computation (interpreter-bound dict work, like the program) for about a
millisecond at raised priority and logs how long it took.  A timed
interval's *speed-scaled* seconds are its wall seconds times
``NOMINAL_S / median reference time`` over the interval: the time the
work would have taken on the host running at its nominal speed.  The
reference is the benchmark's own code, so a change to the program moves
scaled time as it moves wall time, while a change in host speed moves
both the work and the reference and cancels.  The sampler takes about
3% of the CPU it shares.

Run as a script, this module is the sampler: ``python3 speed.py LOG``
appends ``<monotonic start> <seconds>`` lines to ``LOG`` until its
standard input closes.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["NOMINAL_S", "SpeedSampler"]

#: Sampling period of the reference work.
PERIOD_S = 0.04
REFERENCE_LOOPS = 5000
#: Reference seconds at the nominal host speed: about the median on the
#: 2-CPU development host.
NOMINAL_S = 0.0012


def reference_work() -> int:
    table = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


class SpeedSampler:
    """The sampler process, pinned to whichever CPU the work is on."""

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(log_path)],
            stdin=subprocess.PIPE,
        )
        self._samples: List[Tuple[float, float]] = []
        self._read = 0
        deadline = time.monotonic() + 30
        while not self._load() and time.monotonic() < deadline:
            time.sleep(0.01)

    def __enter__(self) -> "SpeedSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def follow(self, cpu: Optional[int]) -> None:
        """Pin the sampler to ``cpu`` (None: every CPU it may use)."""
        cpus = os.sched_getaffinity(0) if cpu is None else {cpu}
        os.sched_setaffinity(self.proc.pid, cpus)

    def _load(self) -> List[Tuple[float, float]]:
        if not self.log_path.exists():
            return self._samples
        with open(self.log_path, encoding="ascii") as log:
            log.seek(self._read)
            chunk = log.read()
        complete = chunk[: chunk.rfind("\n") + 1]
        self._read += len(complete)
        for line in complete.splitlines():
            start, seconds = line.split()
            self._samples.append((float(start), float(seconds)))
        return self._samples

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S / median reference seconds`` over [start, end].

        ``start`` and ``end`` are :func:`time.monotonic` readings; when
        the interval holds fewer than three samples the three nearest
        to its middle stand in.
        """
        samples = self._load()
        inside = [s for t, s in samples if start <= t <= end]
        if len(inside) < 3:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [s for _, s in nearest[:3]]
        return NOMINAL_S / statistics.median(inside)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


def _sample(log_path: str) -> None:
    try:
        os.nice(-5)  # not preempted by the work it measures
    except OSError:
        pass
    with open(log_path, "a", encoding="ascii") as log:
        while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
            start = time.monotonic()
            t0 = time.perf_counter()
            reference_work()
            log.write(f"{start} {time.perf_counter() - t0}\n")
            log.flush()


if __name__ == "__main__":
    _sample(sys.argv[1])
