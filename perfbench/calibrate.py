"""A fixed pure-Python kernel that measures the machine's current speed.

On a shared virtual machine the same code can run at one speed for tens of
seconds and then about 1.6 times slower for the next tens of seconds, so a
run's raw times depend on how much of it fell in the slow state. The runner
therefore runs this kernel between the batches it times and reports each
time scaled by ``REF_KERNEL_S / (kernel time measured around it)``: the time
it would have taken had the machine run at the speed where the kernel takes
``REF_KERNEL_S``. Both are pure Python doing set algebra, sorting, tuple and
string building and dict inserts, so the slow state slows them alike, and
the ratio stays put while the raw times jump.

The kernel is benchmark code, not library code: a change to the library
does not change it, so the scaled times still move with the library.
"""

from __future__ import annotations

import random
import statistics
import time

#: the kernel time the scaled figures are expressed at: about what it takes
#: on a 2.1 GHz Xeon VM core under CPython 3.11 in its fast state
REF_KERNEL_S = 0.003


def _graph() -> dict[int, set[int]]:
    rng = random.Random(12345)  # a fixed input: the kernel's work never varies
    n = 120
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for c in range(12):
        for i in range(c * 10, c * 10 + 10):
            for j in range(i + 1, c * 10 + 10):
                if rng.random() < 0.8:
                    adj[i].add(j)
                    adj[j].add(i)
    for _ in range(300):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


_ADJ = _graph()


def _expand(r: list[int], p: set[int], x: set[int],
            out: list[tuple[int, ...]]) -> None:
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda u: len(p & _ADJ[u]))
    for q in sorted(p - _ADJ[pivot]):
        nbrs = _ADJ[q]
        r.append(q)
        _expand(r, p & nbrs, x & nbrs, out)
        r.pop()
        p.discard(q)
        x.add(q)


def kernel() -> int:
    """Enumerate the fixed graph's maximal cliques and key them by string."""
    out: list[tuple[int, ...]] = []
    _expand([], set(_ADJ), set(), out)
    return len({",".join(map(str, c)): c for c in out})


class Calibrator:
    """Kernel times in the order they were measured.

    A timed interval is scaled by the kernel runs right before and right
    after it, not by a wider window: the machine's speed can flip within a
    fraction of a second, and the nearest samples track it best.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, reps: int = 1) -> int:
        """Time the kernel reps times; returns the index of the next sample."""
        for _ in range(reps):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        return len(self.samples)

    def scale(self, at: int, reps: int = 1) -> float:
        """``REF_KERNEL_S`` over the median kernel time of the ``reps``
        samples before index ``at`` and the ``reps`` from it on."""
        window = self.samples[max(0, at - reps):at + reps]
        return REF_KERNEL_S / statistics.median(window)
