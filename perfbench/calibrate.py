"""Reference kernel: how fast this machine runs right now.

The benchmark runs on a few cores of a shared host whose speed moves by
10-40% from second to second as other tenants load it.  run.py times this
fixed kernel in its own process, which never imports qcadc, before and
after every child process and, with the child stopped, several times a
second while it runs.  Each child's times are then put in units of the
kernel's time over the same interval.

The kernel mixes the three kinds of work qcadc does: interpreter-bound dict
and set work (reachable-set search, the exhaustive classical checks), small
dense LAPACK calls (block eigendecompositions, dense exponentials) and
sparse matrix-vector products (Krylov and discrete stepping).  Nothing in
it depends on the program under test, so no change to qcadc can speed it
up or slow it down.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse

_RNG = np.random.default_rng(20240405)
_DENSE = _RNG.standard_normal((128, 128))
_DENSE = _DENSE @ _DENSE.T
_SPARSE = sparse.random(20000, 20000, density=2e-4, random_state=_RNG,
                        format="csr")
_VECTOR = np.ones(20000)
_RING = (_RNG.random(12) < 0.5).astype(np.int8)


def kernel() -> int:
    """One unit of reference work: about 10 ms on a 2-core VM, in four
    parts of about equal time."""
    table = {}
    for k in range(10000):
        table[k ^ 0x5A5A] = (k * 7) & 15
    seen = {v * k for k, v in table.items() if v & 1}
    ring = _RING
    for _ in range(80):
        ring = ring ^ (np.roll(ring, 1) & np.roll(ring, -1))
        if not ring.any():
            ring = _RING
    np.linalg.eigh(_DENSE)
    vec = _VECTOR
    for _ in range(7):
        vec = _SPARSE @ vec
        vec /= np.abs(vec).max() or 1.0
    return len(seen) + int(ring.sum())


def measure(units: int = 20) -> float:
    """Seconds that ``units`` runs of the kernel take now."""
    start = time.perf_counter()
    for _ in range(units):
        kernel()
    return time.perf_counter() - start


measure(2)      # first-call costs (LAPACK and sparse set-up) are paid here
