"""Host-speed reference for the timed loop.

On a small shared machine the CPU runs this process at a speed that drifts
by tens of percent over tens of seconds, as other tenants load the host.  A
run's raw latencies move with that drift as much as with the program.
``Clock`` therefore runs a fixed pure-Python reference kernel, which does
not touch cosetchar, after every stretch of about a second of op time, and
rescales each op's latency by how long the kernel took at either end of its
stretch compared with ``REF_NOMINAL_S``.  A program change moves op time but
not the kernel, so it moves the rescaled figures in full; a slower host
moves both, and the ratio cancels most of it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

REF_NOMINAL_S = 0.075  # kernel time the rescaled figures are quoted at
REF_EVERY_S = 1.0  # least op time between two kernel samples
REF_TERMS = 150


def reference_kernel() -> int:
    """Fixed work of the kinds cosetchar does: exact rational products, small dicts, text."""
    a = [Fraction(7 ** (k % 40) * (k + 1), 840 * (k % 7 + 1)) for k in range(REF_TERMS)]
    b = [Fraction(5 ** (k % 50) * (k + 3), 420 * (k % 5 + 1)) for k in range(REF_TERMS)]
    conv = [Fraction(0)] * REF_TERMS
    for i, x in enumerate(a):
        for j in range(REF_TERMS - i):
            conv[i + j] += x * b[j]
    sums: dict[tuple[int, int], int] = {}
    for r in range(1, 240):
        for s in range(1, 60):
            key = (r % 7, s % 10)
            sums[key] = sums.get(key, 0) + r * s
    text = json.dumps({f"{r},{s}": v for (r, s), v in sorted(sums.items())})
    return len(text) + sum(len(str(c)) for c in conv)


def sample() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Clock:
    """Op latencies of one run, and reference-kernel samples between them."""

    def __init__(self):
        self.refs = [sample()]  # stretch k of op time lies between refs[k] and refs[k + 1]
        self.ops: list[tuple[float, int]] = []  # (latency, stretch)
        self.pending = 0.0

    def add(self, op_s: float) -> None:
        self.ops.append((op_s, len(self.refs) - 1))
        self.pending += op_s
        if self.pending >= REF_EVERY_S:
            self.close()

    def close(self) -> None:
        """End the current stretch with a fresh reference sample."""
        self.refs.append(sample())
        self.pending = 0.0

    def finish(self) -> None:
        if self.ops and self.ops[-1][1] == len(self.refs) - 1:
            self.close()

    def latencies(self) -> list[float]:
        return [op for op, _ in self.ops]

    def rescaled(self) -> list[float]:
        """Each latency on a host that runs the kernel in REF_NOMINAL_S."""
        return [op * 2 * REF_NOMINAL_S / (self.refs[k] + self.refs[k + 1])
                for op, k in self.ops]
