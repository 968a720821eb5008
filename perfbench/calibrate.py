"""A fixed reference computation that measures how fast the machine is right now.

The benchmark's hosts change speed by up to 1.7x for minutes at a time (other
tenants, frequency), and the program's times move with it.  Workers therefore interleave short units of this reference between
items, and times are rescaled to the reference machine by the units that
ran in the same process (`scale`).

A unit is Python-level row reduction of small int64 matrices mod p, drawn
from a pool larger than a core's L2 cache, and random lookups in a table of
several MB, as in the program's Smith eliminations and caches.  (A unit that
also timed int64 matrix products and gathers over large arrays tracked the
program's speed worse over ten runs of each workload.)  Its inputs are fixed here
and nothing in it depends on ghostdim, so a change to the program does not
change the unit.
"""

from __future__ import annotations

import time

import numpy as np

UNIT_S = 0.010        # a unit's time on the reference machine
SHARE = 0.2           # reference time run after an item, as a share of the item's time
_P = 7
_POOL = 3000          # 12 x 20 int64 matrices: about 5.8 MB
_TABLE = 100_000      # int -> int entries: about 10 MB
_MATS, _LOOKUPS = 10, 400


def _reduce_mod(d, p):
    """Row-reduce d in place mod p; returns the rank."""
    r, c = d.shape
    row = 0
    for col in range(c):
        piv = -1
        for i in range(row, r):
            if d[i, col] % p:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            tmp = d[row].copy()
            d[row] = d[piv]
            d[piv] = tmp
        inv = pow(int(d[row, col]), -1, p)
        d[row] = (d[row] * inv) % p
        for i in range(r):
            if i != row and d[i, col]:
                d[i] = (d[i] - int(d[i, col]) * d[row]) % p
        row += 1
    return row


def scale(units):
    """Factor that rescales times measured beside these unit times to the reference machine.

    The mean, not the median: the machine flips between faster and slower
    states many times a second, and the mean moves in proportion to the
    share of time spent in each, as the program's own time does.
    """
    return UNIT_S * len(units) / sum(units)


class Reference:
    """The reference data, built once per process, and a cursor through it."""

    def __init__(self):
        rng = np.random.default_rng(20090326)
        self.mats = [rng.integers(0, _P, size=(12, 20), dtype=np.int64) for _ in range(_POOL)]
        self.order = rng.permutation(_POOL).tolist()
        # Built without temporary Python lists, whose freed memory the program would reuse.
        keys = rng.integers(0, 2**40, size=_TABLE)
        self.keys = [int(keys[i]) for i in rng.permutation(_TABLE)]
        self.table = {k: k % 17 for k in self.keys}
        self.pos = 0
        self.kpos = 0
        self.units = []      # seconds of every unit run so far

    def unit(self):
        """Run one unit of reference work; returns and records its seconds."""
        t = time.perf_counter()
        acc = 0
        for _ in range(_MATS):
            acc += _reduce_mod(self.mats[self.order[self.pos]].copy(), _P)
            self.pos = (self.pos + 1) % _POOL
            for _ in range(_LOOKUPS):
                acc += self.table[self.keys[self.kpos]]
                self.kpos = (self.kpos + 1) % _TABLE
        elapsed = time.perf_counter() - t
        self.units.append(elapsed)
        return elapsed

    def after(self, seconds):
        """Run units for about SHARE * seconds of reference time, at least one."""
        spent = 0.0
        while True:
            spent += self.unit()
            if spent >= SHARE * seconds:
                return
