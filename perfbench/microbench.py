"""Microbenchmarks of the special functions, in ns per call.

Arguments come from the seeded sample points of the registries a workload
uses, plus shifted copies that reach the ln_gamma reflection region
(Re z < 0.5) and paired-pole gamma ratios. Every result feeds an
accumulator inside the timed region, and the accumulator is checked.
"""

from __future__ import annotations

import math
import random
import time

REPEATS = 7
CALLS = 400
POOL = 24


def _pools(registries, seed):
    """Distinct real and complex parameter values of the registries' points."""
    reals, cplx = set(), set()
    for reg in registries:
        for ident in reg.values():
            for point in ident.sample_points:
                for v in point.values():
                    c = complex(v)
                    if c.imag:
                        cplx.add(c)
                    else:
                        reals.add(c.real)
    rng = random.Random(f"microbench:{seed}")
    reals, cplx = sorted(reals), sorted(cplx, key=lambda c: (c.real, c.imag))
    return (rng.sample(reals, min(POOL, len(reals))),
            rng.sample(cplx, min(POOL, len(cplx))))


def _off_pole(z: complex) -> bool:
    return z.real > 0.0 or abs(z - round(z.real)) > 1e-3


def arguments(registries, seed) -> dict:
    """name -> list of positional-argument tuples."""
    reals, cplx = _pools(registries, seed)
    pts = [z for z in [complex(v) for v in reals] + cplx
           if _off_pole(z) and _off_pole(z + 0.5)]
    # reflection region: Re z < 0.5, away from the poles
    refl = [z for z in (p - 1.5 for p in pts) if _off_pole(z)]
    gamma_args = [(z,) for z in pts + refl]
    # paired poles: numerator and denominator both at non-positive integers
    paired = [([-float(k)], [-float(k + d)]) for k in range(4) for d in range(3)]
    generic = [([p + 1.0, 0.5], [p + 0.5, 1.5]) for p in pts]
    moduli = [(abs(v) % 1.0,) for v in reals] + [(math.sqrt(1.0 - g),)
                                                 for g in (0.1, 0.01, 0.002)]
    return {
        "ln_gamma": gamma_args,
        "digamma": gamma_args,
        "gamma_ratio": paired + generic,
        "pochhammer": [(p, n) for p in pts for n in (7, 40, 90)],
        "elliptic_K": moduli,
        "harmonic": [(n,) for n in (10, 100, 400)],
    }


def ns_per_call(fn, args) -> tuple[float, complex]:
    """Median over repeats of ns per call, and the checked accumulator."""
    n = max(1, CALLS // len(args)) * len(args)
    calls = (args * (n // len(args)))[:n]
    samples = []
    acc = 0j
    for _ in range(REPEATS):
        acc = 0j
        t0 = time.perf_counter_ns()
        for a in calls:
            acc += fn(*a)
        samples.append((time.perf_counter_ns() - t0) / n)
    samples.sort()
    return samples[len(samples) // 2], acc


def run(specialfn, registries, seed) -> dict:
    """name -> ns per call; raises if any accumulator is not finite."""
    out = {}
    for name, args in arguments(registries, seed).items():
        ns, acc = ns_per_call(getattr(specialfn, name), args)
        if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
            raise ArithmeticError(f"{name} microbenchmark produced {acc!r}")
        out[name] = ns
    return out
