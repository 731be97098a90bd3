"""The splitmix64 finalizer (Vigna), the engine's one 64-bit mixer.

A full-avalanche bijection on 64-bit words: every input bit flips each
output bit with probability ~1/2.  Hash-table key fingerprints, shard
partition fingerprints, the router's element bit positions and the
SuperMinHash random streams all avalanche through it.  :func:`mix64`
is the scalar form on a Python int, :func:`mix64_array` the vectorised
form on a uint64 array (numpy's wrapping uint64 arithmetic is the
scalar form's ``& MASK64``); the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

#: splitmix64's increment (the 64-bit golden ratio), used to fold seeds
#: and counters into a mixed word.
GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_V30, _V27, _V31 = np.uint64(30), np.uint64(27), np.uint64(31)
_VMIX1, _VMIX2 = np.uint64(_MIX1), np.uint64(_MIX2)


def mix64(z: int) -> int:
    """The splitmix64 finalizer on one Python int (mod 2**64)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix64_array(values) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (a new array)."""
    z = np.asarray(values, dtype=np.uint64)
    z = (z ^ (z >> _V30)) * _VMIX1
    z = (z ^ (z >> _V27)) * _VMIX2
    return z ^ (z >> _V31)
