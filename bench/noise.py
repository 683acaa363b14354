"""Host noise probe: times one fixed pure-Python loop repeatedly.

    python3 bench/noise.py [repetitions]

Prints each time, the median and the spread (distance between the first
and third quartile as a share of the median).  A difference between two
benchmark medians smaller than this spread says nothing about the program.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter


def loop(n=3_000_000):
    """The fixed loop; also the reference that run.py times between
    repetitions to follow the host's speed."""
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def main(reps=25):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        loop()
        times.append(perf_counter() - t0)
    q1, _, q3 = statistics.quantiles(times, n=4)
    med = statistics.median(times)
    print(json.dumps({"seconds": times, "median_s": med,
                      "spread": (q3 - q1) / med}))


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
