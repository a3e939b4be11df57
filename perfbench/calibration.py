"""Calibration kernel: a fixed piece of pure-Python work, timed before and
after every op to correct the op's latency for the machine's speed.

On a shared 2-vCPU machine, identical dseq work ran up to 1.5x slower for
minutes at a time, so wall-clock figures from runs a few minutes apart
disagreed by 9-30%.  The kernel slows down with the machine: an op's
latency divided by the kernel time taken around it varies by a few
percent between runs instead.  The kernel mixes the work dseq does, exact
rational polynomial products over exponent tuples and recursive float
evaluation of tagged-tuple trees.  It imports nothing from dseq and runs
with the collector off, so neither the program's code nor its heap moves
it.

The benchmark reports reference seconds: a duration is multiplied by
REF_KERNEL_S / k, where k is the mean of the kernel times just before and
just after it.
REF_KERNEL_S is the kernel's typical time on the machine that recorded the
first baseline (2-vCPU Xeon, Python 3.11.7), so a reference second is
about one wall second there.  Do not edit this file: changing the kernel
or the constant changes the unit.
"""

import gc
import math
import random
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 0.0035
KERNEL_RUNS = 3

_rng = random.Random("perfbench:calibration")


def _poly(terms):
    return {tuple(_rng.randrange(3) for _ in range(6)):
            Fraction(_rng.randint(-5, 5) or 1, _rng.randint(1, 3))
            for _ in range(terms)}


_A = _poly(30)
_B = _poly(30)


def _tree(depth):
    if depth == 0:
        return ("var", 0)
    if depth % 3 == 2:
        return ("sin", _tree(depth - 1))
    return (("add", "mul")[depth % 3], _tree(depth - 1), _tree(depth - 1))


_T = _tree(12)


def _eval(node, x):
    tag = node[0]
    if tag == "var":
        return x
    if tag == "add":
        return _eval(node[1], x) + _eval(node[2], x)
    if tag == "mul":
        return _eval(node[1], x) * _eval(node[2], x)
    return math.sin(_eval(node[1], x))


def kernel():
    acc = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prev = acc.get(e)
            acc[e] = c1 * c2 if prev is None else prev + c1 * c2
    ordered = sorted(acc.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return ordered, sum(_eval(_T, 0.1 * i) for i in range(5))


def kernel_time():
    """Wall seconds of the fastest of KERNEL_RUNS kernel runs.  The
    collector is off meanwhile, so neither a collection of the program's
    heap nor a preemption can be counted as machine speed: interference
    only lengthens a run, and the minimum drops it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(KERNEL_RUNS):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def reference_seconds(wall_s, before, after):
    """A duration of `wall_s` wall seconds, bracketed by kernel times
    `before` and `after`, in reference seconds.  The mean of the two
    follows the machine's speed during the interval better than either."""
    return wall_s * REF_KERNEL_S * 2 / (before + after)
