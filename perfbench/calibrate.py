"""Host-speed reference: a fixed pure-Python loop timed next to every timed operation.

A shared virtual machine runs the same code at different speeds from one
second to the next: on a 2-vCPU Xeon, identical serving runs read 20 % apart
in back-to-back processes, and both engines of one run slowed together.  The
benchmark therefore times a fixed loop that never touches ``repro`` between
timed operations, at least every ``Reference.SPACING_S`` seconds, and
converts each operation's host seconds into *reference seconds*::

    reference_s = host_s * NOMINAL_S / loop_s

where ``loop_s`` is the mean of the loops just before and just after the
operation.  A reference second is the host time of a machine that runs the
loop in exactly ``NOMINAL_S``.  A change to the program moves the
operation's time and not the loop's, so it shows in full; a host that runs
everything slower for a while moves both and cancels out.  The loops must
sit next to the operation: the host's speed drifts within seconds, and one
loop per run, or per window of a few seconds, corrects far less.

The loop does the kind of interpreter work the simulator does (small
objects, a binary heap, dict updates, float arithmetic) and runs with the
collector paused, so its own time depends on the host alone.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List, Tuple

#: Host seconds of one loop on the reference machine; a constant, not a measurement.
NOMINAL_S = 0.02

#: Loop length: about ``NOMINAL_S`` on a 2-vCPU Xeon virtual machine.
STEPS = 15_000


class _Item:
    __slots__ = ("weight", "bucket")

    def __init__(self, weight: float, bucket: int) -> None:
        self.weight = weight
        self.bucket = bucket


def _loop() -> float:
    heap: list = []
    totals: dict = {}
    acc = 0.0
    for step in range(STEPS):
        item = _Item(step * 0.5, step % 97)
        heapq.heappush(heap, (item.bucket, step, item))
        key = step & 1023
        totals[key] = totals.get(key, 0.0) + item.weight
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].weight
    return acc + min(totals.values())


def loop_seconds() -> float:
    """Host seconds of one reference loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def settled_loop_seconds(repeats: int = 3) -> float:
    """Median of a few loops: the first runs while the interpreter still warms up."""
    return statistics.median(loop_seconds() for _ in range(repeats))


def to_reference(host_s: float, loop_s: float) -> float:
    """``host_s`` host seconds, measured while the loop took ``loop_s``, in reference seconds."""
    return host_s * NOMINAL_S / loop_s


class Reference:
    """The loop times of one run, and where each timed operation fell among them.

    A loop runs before an operation and after it whenever the last loop is
    more than ``SPACING_S`` old, so loops sample the host at least every
    ``SPACING_S`` seconds plus one operation, for about a tenth of the run's
    time.  An operation is converted with the last loop before it and the
    first loop after it.
    """

    SPACING_S = 0.2

    def __init__(self) -> None:
        self.loops_s: List[float] = []
        self._ended = float("-inf")

    def tick(self) -> None:
        self.loops_s.append(loop_seconds())
        self._ended = time.perf_counter()

    def _tick_if_stale(self) -> None:
        if time.perf_counter() - self._ended > self.SPACING_S:
            self.tick()

    def before_op(self) -> int:
        """Index of the loop before an operation that starts now."""
        self._tick_if_stale()
        return len(self.loops_s) - 1

    def after_op(self) -> None:
        self._tick_if_stale()

    def finish(self) -> None:
        """Close the run with a loop, so every operation has one after it."""
        self.tick()

    def around(self, index: int) -> float:
        """Mean of the loop at ``index`` and the next one (if any yet)."""
        pair = self.loops_s[index:index + 2]
        return sum(pair) / len(pair)


class Phase:
    """The timed operations of one phase of an iteration."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        #: ``(host seconds, index of the loop before it)`` per operation.
        self.ops: List[Tuple[float, int]] = []

    @property
    def host_s(self) -> float:
        return sum(host_s for host_s, _ in self.ops)

    def op_reference_s(self) -> List[float]:
        return [to_reference(host_s, self.reference.around(i)) for host_s, i in self.ops]

    def reference_s(self) -> float:
        return sum(self.op_reference_s())
