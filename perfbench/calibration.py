"""Host-speed calibration of the timed figures.

The small shared virtual machines this benchmark is meant for change
speed by up to 1.8x from one few-second phase to the next (contention
on the host: CPU time grows with wall time, so it is not steal).  A
run's medians then depend on how much of it fell into slow phases, and
two runs of the same code can differ by 30%.

So every timed span of a sweep, and every set-up sample, is bracketed
by :func:`reference_s`: a fixed pure-Python loop that uses none of the
program, timed in thread CPU time.  A span's time is scaled to the
speed at which the loop takes :data:`NOMINAL_S`::

    calibrated = raw * NOMINAL_S / mean(reference before, reference after)

The serve stream cannot be paused for a reference pass, so a
:class:`Sampler` child process makes one every :data:`SAMPLE_INTERVAL_S`
while the stream runs (about 5% of one core), pinned to each CPU in
turn, and each window of the stream is scaled by the mean over the CPUs
of the median pass on each during it: the two CPUs' speeds are only
loosely related (correlation 0.5 over 2-second windows).  Over seven
serve runs this left the stream's rate, p50 and warm rate spread 7%,
9% and 5%, against 10%, 10% and 6% with one unpinned sampler.

The scale comes from the benchmark's own loop, never from the program,
so a change to the program moves a calibrated figure by the same share
as the raw one.  The raw figures are kept in the result's ``meta``.

On a 2-core Xeon VM (Python 3.11.7), over seven minutes of back-to-back
``analytic-grid`` cold sweeps cut into 20-second windows, the quartile
spread of the windows' median per-run latency was 21% raw and 3%
calibrated.  Over four and a half minutes of ``sim-adversarial`` cold
sweeps (two pool workers) the windows' median sweep time spread 13% raw
and 7% calibrated; passes made by a sampler during the sweeps did no
better than the two around them, so sweeps use brackets only.

The loop and :data:`NOMINAL_S` must stay as they are: changing either
rescales every calibrated figure.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable

#: Iterations of the reference loop: about 12 ms at nominal speed.
LOOPS = 100_000
#: Reference-loop time that calibrated figures are scaled to: its time
#: on the machine above in its fast phases.
NOMINAL_S = 0.012
#: Seconds between the passes of a :class:`Sampler`.
SAMPLE_INTERVAL_S = 0.25


def reference_s() -> float:
    """Thread CPU seconds of one pass of the reference loop."""
    begin = time.thread_time_ns()
    table: dict[int, int] = {}
    for i in range(LOOPS):
        table[i % 997] = table.get(i % 997, 0) + i
    return (time.thread_time_ns() - begin) / 1e9


def scale(before: float, after: float) -> float:
    """Factor that takes a span bracketed by two reference passes to
    nominal speed."""
    return NOMINAL_S / ((before + after) / 2)


class Chain:
    """Reference passes between consecutive spans: ``mark()`` before
    the first span and after each one; ``scales()`` gives one factor
    per span."""

    def __init__(self) -> None:
        self.refs: list[float] = []

    def mark(self) -> None:
        self.refs.append(reference_s())

    def scales(self) -> list[float]:
        return [scale(a, b) for a, b in zip(self.refs, self.refs[1:])]


class Sampler:
    """A child process making a reference pass every
    :data:`SAMPLE_INTERVAL_S`, on each CPU in turn, from ``start()`` to
    ``stop()``.

    ``stop()`` always reaps it; ``preexec_fn`` lets the caller make it
    die with the benchmark process.
    """

    def __init__(self, preexec_fn: Callable[[], None] | None = None) -> None:
        self.preexec_fn = preexec_fn
        self.proc: subprocess.Popen | None = None
        self.reader: threading.Thread | None = None
        self.passes: list[tuple[float, float, int]] = []
        """(``time.perf_counter()`` at the end of a pass, its seconds,
        the CPU it ran on)."""

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(SAMPLE_INTERVAL_S)],
            stdout=subprocess.PIPE, text=True, preexec_fn=self.preexec_fn,
        )
        self.reader = threading.Thread(target=self._read, args=(self.proc.stdout,), daemon=True)
        self.reader.start()

    def _read(self, pipe) -> None:
        for line in pipe:
            at, seconds, cpu = line.split()
            self.passes.append((float(at), float(seconds), int(cpu)))

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        if self.reader is not None:
            self.reader.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def scale(self, begin: float, end: float) -> float:
        """Factor to nominal speed for the span ``[begin, end]`` of
        ``time.perf_counter()``: the mean over the CPUs of the median
        pass on each that ended in it (the nearest pass on a CPU with
        none)."""
        middle = (begin + end) / 2
        per_cpu = []
        for cpu in sorted({p[2] for p in self.passes}):
            on_cpu = [p for p in self.passes if p[2] == cpu]
            inside = [seconds for at, seconds, _ in on_cpu if begin <= at <= end]
            if not inside:
                inside = [min(on_cpu, key=lambda p: abs(p[0] - middle))[1]]
            per_cpu.append(statistics.median(inside))
        return NOMINAL_S / statistics.fmean(per_cpu)


def sample(interval: float) -> None:
    """Child side of a :class:`Sampler`: pinned to each allowed CPU in
    turn, print ``<perf_counter> <pass seconds> <cpu>`` lines until
    terminated.  ``perf_counter`` is ``CLOCK_MONOTONIC`` here, so the
    parent can compare the times."""
    cpus = sorted(os.sched_getaffinity(0))
    for turn in itertools.count():
        cpu = cpus[turn % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        seconds = reference_s()
        print(time.perf_counter(), seconds, cpu, flush=True)
        time.sleep(interval)


if __name__ == "__main__":
    try:
        sample(float(sys.argv[1]))
    except (BrokenPipeError, KeyboardInterrupt):
        pass
