"""Times scaled to a reference host speed.

On a shared machine the speed of a core drifts by half or more, over
seconds and over minutes, with the load of its neighbours; a run of half a
minute cannot average that out, and the minimum over repetitions does not
remove it either.  So while a timed call runs, a short fixed pure-Python
loop (``speed_loop``) is run every ``SAMPLE_EVERY_S`` seconds from a timer
signal, and once before and once after the call.  The call's time, net of
the samples, is multiplied by ``REF_LOOP_S`` over the median sample: the
seconds the call would take on a host where the loop takes ``REF_LOOP_S``.
A faster program still reads faster, because the loop is not its code.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

# time of speed_loop() on the reference host; scaled times are in its seconds
REF_LOOP_S = 0.00125
SAMPLE_EVERY_S = 0.05


def speed_loop() -> float:
    """Seconds taken by a fixed pure-Python workload with the mix of
    blockcache's hot loops: generator sums and comprehensions over short
    lists, building tuples and lists, scanning a dict, sorting."""
    start = perf_counter()
    rs = [(i * 37) % 97 - 1 for i in range(40)]
    for T in range(0, 97, 3):
        cover = sum(1 for r in rs if r < T)
        counts = [(sum(1 for r in rs if T <= r < t), 0.5) for t in range(T, T + 12)]
        dp = [(0.0, [])]
        for g in range(1, 30):
            cost, choice = dp[-1]
            dp.append((cost + cover * counts[g % 12][1], choice + [g]))
    phi = {(b, t): 0.3 for b in range(16) for t in range(40)}
    sorted((t, v) for (b, t), v in phi.items() if b == 3 and 0.0 < v < 1.0)
    return perf_counter() - start


def scale(seconds: float, loops: list[float]) -> float:
    return seconds * REF_LOOP_S / statistics.median(loops)


@dataclass
class Timed:
    result: object
    seconds: float  # wall time net of the samples taken during the call
    scaled: float
    loop_s: float  # median speed_loop() time


def timed(fn, *args) -> Timed:
    """Call ``fn(*args)`` with the host's speed sampled while it runs."""
    loops = [speed_loop()]

    def sample(_signum, _frame):
        loops.append(speed_loop())

    previous = signal.signal(signal.SIGALRM, sample)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - sum(loops[1:])
    loops.append(speed_loop())
    return Timed(result, seconds, scale(seconds, loops), statistics.median(loops))
