"""The fixed pure-Python reference loop that latencies are expressed in.

The host this benchmark runs on changes speed by tens of percent within
seconds.  Timing this loop just before each operation, in the same process,
and dividing the operation's time by it cancels most of that drift.  The loop
is benchmark code and must stay the same at every commit: changing it
changes the unit of every ``*_ref`` metric.  It mixes the two kinds of work
the program spends its time on: dict-of-exponent-tuples polynomial products
mod p, and allocating, hashing and sorting many small objects.
"""

from __future__ import annotations

import time

P = 10009


def _dict_products(reps: int = 200) -> int:
    a = {(i, 7 - i): (i * 37 + 11) % P for i in range(8)}
    b = {(i, 5 - i): (i * 53 + 5) % P for i in range(6)}
    acc = 0
    for _ in range(reps):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = (out.get(e, 0) + ca * cb) % P
        acc = (acc + sum(out.values())) % P
        a = {k: (v + acc) % P for k, v in a.items()}
    return acc


class _Term:
    __slots__ = ("exp", "c")

    def __init__(self, exp, c):
        self.exp = exp
        self.c = c


def _small_objects(reps: int = 30) -> int:
    acc = 0
    for k in range(reps):
        terms = [_Term((i % 5, i // 5, k % 3), (i * k + 7) % P) for i in range(400)]
        d = {}
        for t in terms:
            d[t.exp] = (d.get(t.exp, 0) + t.c) % P
        acc = (acc + sum(d.values()) + len(sorted(d))) % P
    return acc


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop (13 to 20 ms on a 2.1 GHz x86-64 core)."""
    t0 = time.perf_counter()
    _dict_products()
    _small_objects()
    return time.perf_counter() - t0
