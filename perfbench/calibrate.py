"""CPU-speed calibration of measured times.

On the shared 2-core VM this benchmark was built on, other tenants switch
the CPU between two speeds about 1.8x apart, for seconds to minutes at a
time. A 200 µs pure-Python loop times at either ~185 µs or ~315 µs, and
whole 30 s runs land in the slow state. Wall time and CPU time slow alike,
so neither is steady on its own. The benchmark therefore times a fixed
pure-Python reference next to each measured interval and rescales the CPU
part of the interval to the reference's fast-state speed:

    normalized = cpu_s * REFERENCE_S / reference + (wall_s - cpu_s)

The time spent waiting (on the fake endpoint, or on disk) is not rescaled.
The reference is unrelated to traitsim, so a faster traitsim moves the
normalized time as much as the wall time.
"""

from __future__ import annotations

import time

# The reference's duration in the VM's fast state (Xeon, KVM guest,
# Python 3.11.7), where normalized time equals wall time.
REFERENCE_S = 0.0025


def reference_work() -> int:
    # Strings and ints only: the garbage collector does not track them, so
    # the reference never triggers a collection of the program's heap.
    table = {}
    for i in range(6000):
        table[f"item-{i}"] = i * 7 % 13
    keys = sorted(table, key=table.__getitem__)
    return sum(len(k) for k in keys if table[k] > 3)


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Clock:
    """Times calls, each bracketed by reference samples.

    Each sample is (wall_s, cpu_s, reference before, reference after);
    consecutive calls share the reference taken between them.
    """

    def __init__(self):
        self.samples = []
        self.reference_total_s = 0.0
        self._last = None

    def _reference(self) -> float:
        r = reference_s()
        self.reference_total_s += r
        return r

    def call(self, fn, *args, **kwargs):
        before = self._last if self._last is not None else self._reference()
        cpu, start = time.process_time(), time.perf_counter()
        result = fn(*args, **kwargs)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        self._last = self._reference()
        self.samples.append((wall, cpu, before, self._last))
        return result

    def wrap(self, fn):
        def timed(*args, **kwargs):
            return self.call(fn, *args, **kwargs)

        timed.__wrapped__ = fn
        return timed


def normalized_s(sample) -> float:
    wall, cpu, before, after = sample
    cpu = min(cpu, wall)
    return cpu * REFERENCE_S / ((before + after) / 2) + (wall - cpu)
