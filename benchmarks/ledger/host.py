"""How fast the host runs right now, from a fixed unit of pure-Python work.

On a shared machine the speed of CPU-bound work drifts: on the 2-vCPU VM
the ledger was sized on, it switched between speeds 1.5× apart, for
stretches of seconds to minutes, with the same time in thread CPU as in
wall clock and no steal reported.  So the CPU part of an operation's
time is divided by the host's *slowdown*, the unit's time around the
operation over :data:`REFERENCE_S`, and read as time on a host that runs
the unit in exactly that long.

The unit is hash lookups of integers in a table larger than the CPU's
fast caches: like the program's set and dict work, it slows with the
memory system as well as the core.  Over ten seeded runs on a host
switching speeds, zoo reads divided by readings taken just before and
just after each of them spread 0.01 (median) and 0.04 (p95), against
0.04 and 0.07 with a unit of plain arithmetic and 0.11 and 0.10 as
measured.

The unit is read only while no operation runs (between lockstep rounds),
because beside the server subprocess it would time that process's work
as host slowness: read beside it, it ran 1.4× slower than when the
server was idle.

The unit is the benchmark's own code.  Its table is built once and holds
only integers, so the garbage collector does not track it, and a unit
allocates no object the collector counts: no change to the program can
move it, and it never starts a collection of the program's garbage.
"""

from __future__ import annotations

import statistics
import time

#: Lookups in one unit of work.
UNIT = 10_000
#: Modulus of the probed keys; about 6% of the probes hit the table.
KEYS = 1_000_003
#: 65536 integer keys: some megabytes, more than a core's own caches.  A
#: dict, because the collector stops tracking a dict of integers.
TABLE = dict.fromkeys(i * 7919 % KEYS for i in range(1 << 16))
#: Seconds one unit takes at reference speed (about the sizing host's median).
REFERENCE_S = 0.002
#: Units timed for one reading, of which the mean is taken.
READING_UNITS = 3


def unit_seconds() -> float:
    """Time one unit of work."""
    start = time.perf_counter()
    hits = 0
    for i in range(UNIT):
        hits += (i * 104_729 % KEYS) in TABLE
    return time.perf_counter() - start


def reading() -> float:
    """The host's slowdown now: the mean of :data:`READING_UNITS` fresh
    units over :data:`REFERENCE_S`."""
    return statistics.fmean(unit_seconds() for _ in range(READING_UNITS)) / REFERENCE_S
