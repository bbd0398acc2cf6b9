"""Fixed reference kernel: the unit in which the benchmark reports time.

The speed of a shared machine drifts over seconds to minutes, so raw op
times from two runs are not comparable.  The benchmark runs this kernel
right beside every op and reports times as multiples of it, which
cancels much of the drift.

The drift does not move all kinds of work alike: on the 2-core Xeon the
benchmark was tuned on, interpreter-bound code sped up by 30% at times
when dense BLAS/LAPACK code and memory streams did not.  So the kernel
times four parts separately, one per kind of work the workloads do, and
each workload's unit is the summed time of the parts that match its work
(``workloads.Workload.reference``):

- ``exact``: a Weyl-style product of Fractions over big integers;
- ``objects``: building and reading a table of small tuples and strings;
- ``dense``: DGEMMs and a symmetric eigensolve on matrices beyond L1;
- ``stream``: one elementwise sweep over an array larger than L2.

The kernel never imports gtprobe, so no change to the program can change
the unit.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

PARTS = ("exact", "objects", "dense", "stream")
STREAM_BYTES = 8 << 20  # four times the 2 MiB L2 of the machine it was tuned on


class ReferenceKernel:
    """Owns the kernel's inputs; ``run()`` times one call of every part."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20251030)
        self._gemm = rng.standard_normal((256, 256))
        sym = rng.standard_normal((128, 128))
        self._sym = sym + sym.T
        self._vector = rng.standard_normal(STREAM_BYTES // 8)
        self._scratch = np.empty_like(self._vector)
        self._parts = {name: getattr(self, f"_{name}") for name in PARTS}
        self.checksums = {name: part() for name, part in self._parts.items()}

    def _exact(self) -> float:
        acc = Fraction(1)
        for i in range(1, 40):
            for j in range(i + 1, 48):
                acc *= Fraction(7 * i + 3 * j + 1, j - i)
        return float(acc.numerator % 1_000_003)

    def _objects(self) -> float:
        table = {(i, i % 7): (i, str(i)) for i in range(7500)}
        return float(sum(len(text) for _, text in table.values()))

    def _dense(self) -> float:
        total = 0.0
        for _ in range(3):
            total += float((self._gemm @ self._gemm)[0, 0])
        return total + float(np.linalg.eigvalsh(self._sym)[-1])

    def _stream(self) -> float:
        np.multiply(self._vector, 1.0000001, out=self._scratch)
        return float(self._scratch[-1])

    def run(self) -> dict[str, float]:
        """Seconds taken by each part; raises if a part's result ever changes."""
        times = {}
        for name, part in self._parts.items():
            start = time.perf_counter()
            value = part()
            times[name] = time.perf_counter() - start
            if value != self.checksums[name]:
                raise RuntimeError(f"reference part {name} changed: {value!r}")
        return times
