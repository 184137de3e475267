"""Interpreter-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
within minutes: a plain Python loop slows down and speeds up with it, and
so does every workload.  To take that drift out, a round measures how fast
the interpreter runs *while* the workload runs, and reports its times in
reference seconds: the time the same work would take at the speed at which
`kernel()` takes exactly `KERNEL_REF_S`.

`kernel()` is a fixed piece of pure-Python work that does not touch tvec,
so a change to the program cannot change it.  It does what tvec does most:
it allocates small immutable nodes, dispatches on their type, reads their
attributes and calls small functions.  It is iterative, so it adds only a
frame or two to the stack of whatever it interrupts.

`Speedometer` samples the kernel on a one-shot `SIGALRM` timer that is
re-armed after each sample, so samples are spread evenly over the timed
section and never nest.  `reference_s(a, b)` then integrates over the
interval: each stretch of work between two samples is scaled by the speed
those two samples measured, and the samples' own time is left out.
"""

from __future__ import annotations

import gc
import signal
import time

# The kernel's duration at the reference speed.  It sets the unit of the
# reported times; it is about the kernel's time on an idle 2-vCPU Intel
# Xeon virtual machine with Python 3.11.
KERNEL_REF_S = 0.0015
# Work between two samples.  A sample costs about KERNEL_REF_S, so sampling
# adds about 5% to a round's raw time, which `reference_s` leaves out.
INTERVAL_S = 0.04
# The first runs of the kernel in a fresh interpreter are up to twice as
# slow as the rest, while the interpreter specializes its code.  The first
# sample in a process runs it this many times more, untimed.
WARMUP_RUNS = 3

clock = time.monotonic


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _rebuild(node, table):
    if isinstance(node, _Pair):
        return _Pair(node.right, node.left)
    if isinstance(node, _Leaf):
        return _Leaf(table.get(node.value & 15, node.value) + 1)
    return node


def kernel() -> None:
    """A fixed amount of pure-Python work: about KERNEL_REF_S at the
    reference speed."""
    table = {i: i * 3 for i in range(16)}
    nodes = [_Pair(_Leaf(i), _Leaf(i + 1)) if i % 3 else _Leaf(i)
             for i in range(64)]
    for _ in range(45):
        nodes = [_rebuild(n, table) for n in nodes]
        nodes = [_Pair(n.left, _Leaf(len(nodes))) if isinstance(n, _Pair)
                 else n for n in nodes]


_warm = False


def measure() -> tuple[float, float, float]:
    """Take one sample: run the kernel, after warming it up if this is the
    first sample in the process.  Return when the sample began and ended,
    and how long the timed kernel run took.  The collector is off
    meanwhile, so that the kernel never pays for a collection of the
    workload's heap."""
    global _warm
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        begin = clock()
        if not _warm:
            for _ in range(WARMUP_RUNS):
                kernel()
            _warm = True
        start = clock()
        kernel()
        end = clock()
    finally:
        if was_enabled:
            gc.enable()
    return begin, end, end - start


class Speedometer:
    """Kernel samples over a stretch of time, as `measure` returns them.
    `clock` is CLOCK_MONOTONIC, so samples from several processes on the
    machine share one time line."""

    def __init__(self,
                 samples: list[tuple[float, float, float]] | None = None):
        self.samples: list[tuple[float, float, float]] = list(samples or [])
        self._running = False

    def sample(self) -> None:
        self.samples.append(measure())

    def _on_alarm(self, signum, frame) -> None:
        # A sample that would overflow the stack of a deep recursion is
        # skipped rather than let the error surface in the workload.
        try:
            self.sample()
        except RecursionError:
            pass
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        """Sample now, then every INTERVAL_S until `stop`."""
        self.sample()
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and take a closing sample; a no-op once
        stopped."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.sample()

    def kernel_s(self) -> list[float]:
        return [kernel_s for _, _, kernel_s in self.samples]

    def reference_s(self, begin: float, end: float) -> float:
        """The work done between `begin` and `end`, in reference seconds.

        The samples must include one at or before `begin` and one at or
        after `end`."""
        total = 0.0
        samples = sorted(self.samples)
        for (_, e0, k0), (s1, _, k1) in zip(samples, samples[1:]):
            lo, hi = max(e0, begin), min(s1, end)
            if hi <= lo:
                continue
            # Speed relative to the reference, averaged over the two
            # samples that bracket this stretch.
            speed = (KERNEL_REF_S / k0 + KERNEL_REF_S / k1) / 2
            total += (hi - lo) * speed
        return total
