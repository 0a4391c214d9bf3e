"""Fixed seed loops for the randomized tests: each test draws its cases
from ``numpy.random.default_rng(seed)`` for a fixed range of seeds, so no
constant mined by a property-testing library or run scope moves them.

Not collected by pytest (no ``test_`` prefix); the test modules import it
from the ``tests`` directory.
"""
import math


def each_seed(seeds, check):
    """check(seed) for every seed in turn: a fixed list of examples.  A
    failure names its seed."""
    for seed in seeds:
        try:
            check(seed)
        except AssertionError as exc:
            raise AssertionError(f"fails at seed {seed}") from exc


def draw_float(rng, lo, hi, log=True):
    """A float in [lo, hi]: lo one draw in sixteen, hi another, and
    otherwise log-uniform over [max(lo, 5e-324), hi] (so that every scale
    of a wide range is drawn), or uniform when ``log`` is False."""
    u = rng.random()
    if u < 1 / 16:
        return lo
    if u < 1 / 8:
        return hi
    if not log:
        return float(rng.uniform(lo, hi))
    value = math.exp(rng.uniform(math.log(max(lo, 5e-324)), math.log(hi)))
    return min(max(value, lo), hi)


def draw_int(rng, lo, hi):
    """An int in [lo, hi]: an end one draw in eight, and otherwise lo plus
    a log-uniform offset, so that small and large values are both drawn."""
    u = rng.random()
    if u < 1 / 16:
        return lo
    if u < 1 / 8:
        return hi
    return min(lo + int(math.exp(rng.uniform(0.0, math.log(hi - lo + 1))))
               - 1, hi)
