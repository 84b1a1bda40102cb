"""The benchmark's yardstick for host speed.

The host this benchmark runs on is shared: the CPU time of one and the
same run changes by up to 2x from second to second and drifts by 10-30%
from minute to minute.  Every run therefore also times a fixed
pure-Python kernel — a small event loop over a heap, dicts and objects,
much like the simulator's own inner loop but sharing no code with the
program — right before and right after its timed region.  ``run.py``
divides the run's CPU times by this calibration time (see
``CALIBRATION_REF_S`` there), which cancels what the host did to both.

The kernel is part of the benchmark's definition: changing it rescales
every host-time metric, so it stays as it is.
"""

from __future__ import annotations

import gc
import heapq
import time

#: kernel steps per timing, and timings per call of :func:`measure`
STEPS = 10_000
REPEATS = 3


class _Item:
    __slots__ = ("count", "owner")

    def __init__(self):
        self.count = 0
        self.owner = None


class _Agent:
    def __init__(self):
        self.held = []

    def step(self, items, draw):
        item = items[draw() % len(items)]
        if item.owner is None or item.owner is self:
            item.owner = self
            item.count += 1
            self.held.append(item)
        if len(self.held) > 3:
            for held in self.held:
                held.owner = None
            self.held = []
        return item.count & 7


def kernel(steps: int) -> dict:
    """``steps`` events of 16 agents contending for 512 items."""
    state = [12345]

    def draw():
        state[0] = (state[0] * 1103515245 + 12345) & 0x7FFFFFFF
        return state[0] >> 4

    items = [_Item() for _ in range(512)]
    agents = [_Agent() for _ in range(16)]
    heap = [(i, i, agent) for i, agent in enumerate(agents)]
    heapq.heapify(heap)
    seq = len(heap)
    delays: dict = {}
    for _ in range(steps):
        now, _, agent = heapq.heappop(heap)
        delay = agent.step(items, draw)
        delays[delay] = delays.get(delay, 0) + 1
        seq += 1
        heapq.heappush(heap, (now + 1 + delay, seq, agent))
    return delays


def measure() -> float:
    """Process CPU seconds for ``REPEATS`` kernels of ``STEPS`` steps.
    The collector is off meanwhile: the kernel makes no cycles, and a
    full collection over a large workload's heap would otherwise land in
    the yardstick."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time_ns()
        for _ in range(REPEATS):
            kernel(STEPS)
        return (time.process_time_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()
