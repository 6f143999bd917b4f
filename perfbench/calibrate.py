"""A fixed amount of work whose wall time is the benchmark's unit of speed.

Usage: python3 perfbench/calibrate.py

The host's speed drifts by tens of percent over minutes, and every op slows
with it.  The benchmark launches this process next to each timed process
and divides that process's wall time by this one's, which cancels most of
the drift.  The
work mirrors an op's mix: interpreter start, the numpy import, small-array
numpy calls and a pure-Python loop.  It never changes, and it uses nothing
from traitsim, so a change to the program cannot move it.  Prints a checksum
that must not change either.
"""

import numpy as np

x = np.linspace(0.0, 1.0, 2001)
w = np.full(2001, 1.0 / 2000)
total = 0.0
for i in range(4000):
    e = x * (i * 1e-4)
    e -= 0.5
    np.exp(e, out=e)
    total += float(w @ e)
for i in range(400_000):
    total += (i % 7) * 1e-9
print(repr(total))
