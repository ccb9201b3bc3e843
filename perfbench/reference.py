"""A fixed reference workload that measures how fast the machine is right now.

On a shared host the same job can take twice as long from one minute to
the next, so raw job times of two runs are not comparable.  The benchmark
therefore times `reference()` next to the jobs, in the same stretch of
machine load, and reports job time in units of its time: wall time over
wall time (`job_ref`), CPU time over CPU time (`cpu_ref`).  The kernel is pure Python over the same kinds of values the
package's hot loops use: numpy complex scalars and a small least-squares
solve (as in `numeric`), and `Fraction` coefficients in dict-of-monomial
polynomials (as in `exactpoly`).  It imports nothing from the package, so
a change to the package cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_Z = np.array([0.3 + 0.1j, -1.1 + 0.7j, 0.9 - 0.4j, -0.2 - 1.3j, 1.4 + 1.2j])
_GAMMA = [1.3, -0.7, 2.1, -1.9, 0.6]
_A = np.vander(np.linspace(-1.0, 1.0, 11), 10)
_P = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
_Q = {(j, i, 1): Fraction(2 * j - 3, i + 1) for i in range(4) for j in range(4)}


def _numeric_part(reps: int) -> float:
    acc = 0.0
    for r in range(reps):
        V = np.zeros(5, dtype=complex)
        for m in range(5):
            for j in range(5):
                if j != m:
                    V[m] += _GAMMA[j] / (_Z[m] - _Z[j]).conjugate()
        x, *_ = np.linalg.lstsq(_A, np.arange(11.0) + r, rcond=None)
        acc += float(abs(V).sum() + x[0])
    return acc


def _exact_part(reps: int) -> Fraction:
    acc = Fraction(0)
    for _ in range(reps):
        prod: dict = {}
        for ma, ca in _P.items():
            for mb, cb in _Q.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                c = prod.get(m, 0) + ca * cb
                if c:
                    prod[m] = c
                else:
                    prod.pop(m, None)
        acc += sum(prod.values())
    return acc


SHARE = 0.1  # reference time per unit of job time
# One reference run on an idle CPU of the 2-core machine the benchmark was
# written on; `setup_s` is reported in seconds at that speed.
NOMINAL_S = 0.040


def reference() -> tuple:
    """Run the reference workload once; return its wall and CPU time in
    seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    _numeric_part(300)
    _exact_part(14)
    return time.perf_counter() - w0, time.process_time() - c0


def sample(after_s: float) -> list:
    """(wall, CPU) times of reference runs made right after a job that took
    `after_s` seconds: at least one run, and runs until SHARE of the job's
    time is spent."""
    times = [reference()]
    while sum(wall for wall, _ in times) < SHARE * after_s:
        times.append(reference())
    return times
