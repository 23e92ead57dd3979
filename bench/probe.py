"""Machine-speed probe for timings on a shared host.

On a machine shared with other tenants the interpreter's speed drifts by
20-30% in states that last from seconds to minutes, so two wall times of
the same code taken a minute apart differ by more than any bound worth
keeping.  A `SpeedProbe` samples that speed while the program runs: a
SIGALRM timer interrupts the process every `INTERVAL_S` seconds and the
handler times a fixed piece of pure-Python work (subgroup closures in a
Cayley table of S5, bit masks and list indexing like tppb's own hot
loops, none of it calling tppb).  A timing is then reported at reference
speed:

    scaled = (wall - time spent in the probe) * REF_S / mean(sample)

The probe's work never changes, so a faster program still shows as a
smaller scaled time, while a slow state of the machine slows program and
probe alike and cancels out.  The mean, not the median, of the samples is
used because a wall time adds up the slowness of every moment it spans.
"""

from __future__ import annotations

import itertools
import signal
import time

INTERVAL_S = 0.1
# Typical duration of one sample on the machine in environment.json while
# a workload runs; scaled times are seconds at that speed.
REF_S = 0.0025


class SpeedProbe:
    """Timer-driven samples of a fixed piece of work, held in memory."""

    def __init__(self):
        started = time.perf_counter()
        perms = list(itertools.permutations(range(5)))
        index = {p: i for i, p in enumerate(perms)}
        self._mul = [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]
        self.samples: list[float] = []
        # Seconds the probe took from the timed program, its set-up included.
        self.spent = time.perf_counter() - started
        self._busy = False

    def _closure(self, a: int, b: int) -> int:
        mul = self._mul
        mask, frontier = 1, [0]
        while frontier:
            grown = []
            for x in frontier:
                row = mul[x]
                for g in (a, b):
                    y = row[g]
                    if not mask >> y & 1:
                        mask |= 1 << y
                        grown.append(y)
            frontier = grown
        return mask

    def sample(self) -> float:
        """Time the fixed work once and record it."""
        started = time.perf_counter()
        for a in range(0, 120, 2):
            self._closure(a, (a * 37 + 5) % 120)
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took
        return took

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        # Restart system calls the alarm interrupts, rather than fail them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> tuple[float, list[float]]:
        """Return (seconds spent, samples) since the last take, and reset."""
        spent, samples = self.spent, self.samples
        self.spent, self.samples = 0.0, []
        return spent, samples


def scaled(wall: float, spent: float, samples) -> float:
    """Wall time without the probe's own time, at the reference speed."""
    return (wall - spent) * REF_S / (sum(samples) / len(samples))
