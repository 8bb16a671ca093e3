"""The benchmark's reference job: a fixed amount of pure-Python work that
does not touch chromsym.

    python3 perfbench/calibrate.py

It enumerates the partitions of SIZE into tuples, keys a dict by them
and sums big-integer products, the kinds of work chromsym's requests do,
then prints {"seconds": <time of the job itself>, "checksum": ...} and
exits 1 if the checksum is wrong.  The harness runs it in a fresh process
between requests, timed from spawn to exit like a request, to measure how
fast the host starts Python and runs it at that moment (see README.md,
"Host speed").  Its result never changes, so its time changes only with
the host.
"""

import json
import sys
import time

SIZE = 36
CHECKSUM = 9043851519954


def partitions(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def job(size=SIZE):
    weights = {}
    total = 0
    for lam in partitions(size, size):
        key = lam[1:] + lam[:1]
        weights[key] = weights.get(key, 0) + len(lam)
        product = 1
        for part in lam:
            product *= 1000003 + part
        total += product % 1000000007
    return total + sum(weights.values())


if __name__ == "__main__":
    start = time.perf_counter()
    got = job()
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "checksum": got}))
    sys.exit(0 if got == CHECKSUM else 1)
