"""Timings at reference speed: every timed call is set against a fixed loop.

The benchmark's host shares its cores, and the speed it gives one process
moves by up to a factor of two in phases of seconds: a fixed Python loop
took 0.043 s to 0.090 s within one minute, and whole runs of one workload
differed by 30%.  Process CPU time moves with wall time, so it does not
help.  What stays put is the ratio of two pieces of work run back to back.

So a Meter runs a fixed calibration loop, which calls nothing of the
program, before and after every timed call, and reports the call's time
at reference speed:

    ref_s = measured_s * (CALIBRATION_REF_S / mean of the two loop times) ** CALIBRATION_EXPONENT

``CALIBRATION_REF_S`` is the loop's median time on the reference machine
(bench/README.md), so there a reference second is about a wall second.
The loop's time swings more than the program's when the host's speed
changes: the logarithm of a call's time moved by about 0.5 to 0.6 times
that of the loop's, and over two sets of runs of all three workloads the
run medians spread least, taken together, with the exponent 0.7.  A
change to the program moves ``ref_s`` as it moves the wall time; a change
of the host's speed moves the call and the loop alike and mostly cancels.
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter

CALIBRATION_REF_S = 0.011
CALIBRATION_STEPS = 10_000
CALIBRATION_EXPONENT = 0.7

# a working set of a few hundred kilobytes for the loop to look up at
# random; a dict of ints to strings is not tracked by the garbage
# collector, so it does not slow the program's collections
_TABLE = {i * 7919 % 100_003: str(i) for i in range(5000)}
_KEYS = sorted(_TABLE, key=lambda k: (k * 2_654_435_761) % 2**32)


class _Node:
    __slots__ = ("value", "links")

    def __init__(self, value, links) -> None:
        self.value = value
        self.links = links


def _step(acc: int, i: int) -> int:
    return (acc * 31 + i) & 0xFFFF


def _calibration_loop(steps: int) -> int:
    """Interpreter work of the kinds the program does.

    Function calls, integer arithmetic, objects made and dropped, and
    lookups spread over a few hundred kilobytes.  Over seven minutes these
    followed the program's speed to about 5% (bench/README.md); lookups
    spread over a megabyte did not, as the neighbours' use of the shared
    caches moved them by a factor of three.
    """
    table, keys = _TABLE, _KEYS
    kept: list = []
    acc = 0
    for i in range(steps):
        acc = _step(acc, i)
        acc ^= len(table[keys[(i * 13) % 5000]])
        kept.append(_Node(i, [i, acc]))
        if len(kept) > 256:
            kept = []
    return acc


def calibrate() -> float:
    """Seconds of one pass of the loop.

    One pass of about 10 ms followed the program better from process to
    process than the fastest of three short ones, which catches the host's
    quiet moments more than the program does.
    """
    start = clock()
    _calibration_loop(CALIBRATION_STEPS)
    return clock() - start


class Meter:
    """Times calls at reference speed; the loop after a call serves the next one."""

    def __init__(self) -> None:
        self._last: float | None = None
        self.factors: list[float] = []  # the factor of each call's reference time
        self.samples: list[tuple[float, float, float]] = []  # (call, loop before, loop after)

    def fresh(self) -> None:
        """Untimed work was done since the last call: calibrate anew next time."""
        self._last = None

    def time(self, fn, *args, **kwargs):
        """(result, measured seconds, reference seconds) of fn(*args, **kwargs)."""
        before = self._last if self._last is not None else calibrate()
        start = clock()
        result = fn(*args, **kwargs)
        took = clock() - start
        after = self._last = calibrate()
        factor = (2 * CALIBRATION_REF_S / (before + after)) ** CALIBRATION_EXPONENT
        self.factors.append(factor)
        self.samples.append((took, before, after))
        return result, took, took * factor

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0
