"""Reference loop: the host's speed, sampled while the program runs.

The benchmark's host is shared, and its speed moves in stretches that last
seconds. In one process that ran the same `etngen fit` (dynamics-50, seed 1)
1362 times over five minutes on 2 vCPUs with Python 3.11, the median fit of a
ten-second stretch was 0.15 s in some stretches and 0.27 s in others, and the
mean fit of 30-second windows spread by a quarter of its median (IQR/median
0.25): more than any bound worth setting. A fixed pure-Python loop slows down
in the same stretches. The fit's time divided by the loop's time, timed right
after it, spread by 0.02 over the same windows.

So a worker samples the loop all through its run: from a SIGPROF handler
every PERIOD_S of the process's CPU time, and right before and after every
timed step. It reports each step as

    (wall seconds - seconds spent sampling) * REF_S / mean sampled loop seconds,

the step's time on a host that runs the loop in REF_S seconds, about this
host's usual speed. A change to the program does not touch the loop, while
most of a slowdown of the host cancels: over four minutes of repeated
pipeline-126 fit and generate runs in one process, the coefficient of
variation of fit fell from 0.20 raw to 0.08 scaled, and of generate from
0.13 to 0.03. The program slows a little more than the loop, so scaled
times still read 5-10% higher in the host's slow stretches. The
timer counts a process's own CPU time, so the loop runs only while the
process computes. A process forked during a step, such as a mining worker
of `fit --threads 2`, samples the loop too and sends its samples back
through a pipe: while the workers mine, the parent only waits, and its own
samples would miss how fast the workers ran.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import struct
import time

REF_S = 0.0006  # nominal seconds of one run of the loop
PERIOD_S = 0.1  # process CPU seconds between two samples


def loop() -> None:
    """Dict stores, tuple allocation, integer arithmetic and a sort."""
    table = {}
    acc = 0
    for i in range(4000):
        table[i & 1023] = (i, acc)
        acc += i * i
    sorted(table.values())


class HostSpeed:
    """Samples the loop while it is started, and scales step times by it."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # loop seconds, oldest first
        self.spent = 0.0  # wall seconds spent sampling
        self._busy = False
        self._running = False
        self._child = False
        self._read, self._write = os.pipe()  # child processes' samples
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        os.register_at_fork(after_in_child=self._in_child)

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _in_child(self) -> None:
        # A forked child keeps the handler but not the timer.
        if self._running:
            self._child = True
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _from_children(self) -> list[float]:
        data = b""
        while True:
            try:
                chunk = os.read(self._read, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        # Each sample is one write of 8 bytes, which a pipe keeps whole.
        return [value for (value,) in struct.iter_unpack("d", data)]

    def sample(self) -> None:
        """Time the loop: the faster of two runs, with the collector off."""
        if self._busy:  # a signal that lands inside an explicit sample
            return
        self._busy = True
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                t = time.perf_counter()
                loop()
                best = min(best, time.perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        if self._child:
            try:
                os.write(self._write, struct.pack("d", best))
            except BlockingIOError:  # the pipe is full: drop the sample
                pass
        else:
            self.samples.append(best)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def mark(self) -> tuple[float, int, float]:
        """Sample, and return the state that `scaled` measures from."""
        self._from_children()  # left over from an earlier step
        self.sample()
        return time.perf_counter(), len(self.samples) - 1, self.spent

    def scaled(self, mark: tuple[float, int, float]) -> tuple[float, float]:
        """Wall seconds since `mark` less sampling, and those at REF_S speed."""
        t0, first, spent0 = mark
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        self.sample()
        loops = self.samples[first:] + self._from_children()
        return wall, wall * REF_S / statistics.mean(loops)
