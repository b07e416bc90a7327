"""A fixed reference kernel that tracks the speed of the measuring host.

The host runs at two speeds about 1.4x apart, in phases from a fraction of a
second to minutes, so a time taken in one run reads faster or slower with
the share of fast time the run happens to meet.  ``Pace.time_ms`` times a
fixed unit of the two kinds of work orbent's workloads do: sparse
matrix-vector products (the Lanczos solves of the ED workloads) and short
numpy calls on a few numbers, driven from Python (the pair and oracle
paths).  The benchmark times it between its operations.  Dividing each
operation's time by the kernel's time beside it, and scaling by ``REF_MS``,
gives the operation's time at one fixed host speed: the speed at which the
kernel takes ``REF_MS`` milliseconds.

The kernel's inputs are fixed, so neither the run's seed nor a change to
orbent changes its work.
"""

import time

import numpy as np
import scipy.sparse as sparse

#: The kernel's median time on the measuring host of README.md (ms).
REF_MS = 1.5

_ROWS = 4900        # the L=8 half-filled Sz=0 sector of the ED workloads
_PER_ROW = 24
_MATVECS = 10
_SMALL_STEPS = 150


class Pace:
    """The reference kernel and its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0x9ACE)
        self.matrix = sparse.csr_matrix(
            (rng.normal(size=_ROWS * _PER_ROW),
             rng.integers(0, _ROWS, size=_ROWS * _PER_ROW, dtype=np.int32),
             np.arange(0, _ROWS * _PER_ROW + 1, _PER_ROW, dtype=np.int32)),
            shape=(_ROWS, _ROWS))
        self.start = rng.normal(size=_ROWS)
        self.weights = rng.random(4)

    def time_ms(self) -> float:
        """Wall time of one pass of the kernel, in milliseconds."""
        start = time.perf_counter_ns()
        vector = self.start
        for _ in range(_MATVECS):
            vector = self.matrix @ vector
            vector /= np.linalg.norm(vector)
        w = self.weights
        for _ in range(_SMALL_STEPS):
            q = np.array([w[0], w[1], w[2], w[3]])
            q = q / q.sum()
            float(np.dot(q, q))
            np.clip(q, 0.0, 1.0)
        return (time.perf_counter_ns() - start) / 1e6
