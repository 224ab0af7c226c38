"""Machine-speed samples from a fixed kernel that belongs to the benchmark.

The shared machine's speed drifts by up to ~25% over periods of seconds to
tens of seconds, which no statistic inside one run removes.  The timed loop
therefore times one sample of this kernel before, between and after calls
and divides each call's time by the machine's slowdown around it: sample
time over ``NOMINAL_S``.

The kernel is the library's dominant kind of work at a small size: a local
operator embedded by a Kronecker product with the identity, then multiplied
into a dense complex matrix (one-thread BLAS).  Its arrays take about 3 MB,
so it barely moves the process's peak RSS.  It is this file's own code,
independent of the library under test and of its frozen reference copy, so
neither a change to the library nor a refresh of ``seedref`` moves the
timing scale.  Changing this file does; results measured before and after
such a change are not comparable, which is why results record ``VERSION``.
"""

from __future__ import annotations

import time

import numpy as np

VERSION = 2
NOMINAL_S = 0.030
LOCAL_DIM = 16  # embedded matrices are LOCAL_DIM**2 square
REPEATS = 12


class Calibrator:
    """Runs the kernel on fixed inputs and records each sample's seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = LOCAL_DIM * LOCAL_DIM
        self._local = rng.normal(size=(LOCAL_DIM, LOCAL_DIM)) + 1j * rng.normal(
            size=(LOCAL_DIM, LOCAL_DIM))
        self._eye = np.eye(LOCAL_DIM, dtype=complex)
        self._block = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        self.samples: list[float] = []
        self._run()

    def _run(self) -> None:
        for _ in range(REPEATS):
            np.kron(self._local, self._eye) @ self._block

    def sample(self) -> None:
        start = time.perf_counter()
        self._run()
        self.samples.append(time.perf_counter() - start)
