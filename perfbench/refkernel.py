"""A fixed reference workload that gauges the host's current speed.

The host this benchmark was built on runs the same CPU-bound Python up to
1.8 times slower for minutes at a time, with no steal time to show for
it. Timings are therefore scaled by how long this kernel takes at the
same moment: an op of `ns` nanoseconds next to a kernel reading of `ref`
nanoseconds reports `ns * REF_NS / ref`, its time on a host where the
kernel takes REF_NS.

The kernel is benchmark code, frozen: it never imports the package, so a
change to the package cannot move it. It mimics the package's hot loop
(a frozen-dataclass spec, a closure that steps a harmonic weight,
Kahan-compensated complex summation, a term-ratio window), because
simpler arithmetic loops slow down less than the package does in the
host's slow phases and would under-correct.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REF_NS = 200_000  # nominal kernel time; sets the scale of normalized times
REPEATS = 3


@dataclass(frozen=True)
class _Spec:
    nums: tuple
    ratio: complex


def _stepper():
    state = [0, 0.0]

    def step():
        state[0] += 1
        state[1] += 1.0 / state[0]
        return state[1]
    return step


def _weighted_sum(spec: _Spec, x: complex, tol: float) -> complex:
    rx = spec.ratio * x
    step = _stepper()
    t = rx
    for a in spec.nums:
        t *= a
    s = comp = 0j
    n = 1
    window: list[float] = []
    prev = -1.0
    small = 0
    while True:
        term = t * step()
        y = term - comp
        hi = s + y
        comp = (hi - s) - y
        s = hi
        at = abs(term)
        if prev > 0.0:
            window.append(at / prev)
            if len(window) > 3:
                window.pop(0)
        prev = at
        small = small + 1 if at <= tol * abs(s) else 0
        if small >= 3 and max(window) < 0.99:
            return s
        f = rx
        for a in spec.nums:
            f *= a + n
        t *= f
        t /= float(n + 1) ** 2
        n += 1


_SPECS = tuple(_Spec((complex(a), complex(1.0 - a)), 1.0 + 0j)
               for a in (0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0))


def kernel() -> complex:
    return sum(_weighted_sum(spec, 0.6 + 0j, 1e-12) for spec in _SPECS)


def reading() -> int:
    """Fastest of REPEATS kernel runs, in ns."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        kernel()
        ns = time.perf_counter_ns() - t0
        best = ns if best is None or ns < best else best
    return best
