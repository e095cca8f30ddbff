"""A fixed piece of work that measures the machine's speed, not the program's.

The benchmark runs on a shared machine whose speed drifts by 10-60% over
tens of seconds, for minutes at a time, with the load of other tenants on
the shared cache, memory and cores: in one process, back-to-back
``rk2_k2_n32`` steps took 60-65 ms in one half-minute and 105-112 ms two
minutes later.  The program's own speed does not drift.  So the timed runs
interleave this calibration with the program's steps, outside the timed
intervals, and scale the times of a job by

    REFERENCE_S / (median calibration time during the job)

which gives the time the job would take on the machine at the speed where
the calibration takes ``REFERENCE_S``.  A single step is scaled by the mean
of the calibrations just before and just after it instead, so that a slow
spell shorter than a job does not reach the step percentiles.

The calibration is four kinds of work the solver does, made from numpy,
scipy and plain Python only, never from the program's code, so that a
change to the program cannot move it:

- a triangular solve with the LU factors of a 2D five-point Laplacian on a
  200 x 200 grid (fill 3.47 million): memory-bound, like the projection;
- the LU factorization of a small nonsymmetric sparse matrix (900
  unknowns), like the CN step's per-step factorization;
- a COO-to-CSR assembly of 50,000 triplets, like the form assembly;
- a plain Python loop, like the solver's interpreted per-cell work.

Different tenants' load slows these by different amounts: a memory-bound
solve tracked ``rk2_k2_n32``'s steps best, the mix tracked ``cn_k1_n16``'s,
whose steps factor small systems and run more Python.  The sum tracks both.
Across half-minute windows of one long process, the median scaled step time
moved by 0.8-1.5% (interquartile range over the median) where the raw one
moved by 2-18%.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REFERENCE_S = 0.020


def laplacian(n, diagonal=2.0):
    line = sp.diags([-1.0, diagonal, -1.0], [-1, 0, 1], shape=(n, n))
    return sp.kronsum(line, line)


class Calibration:
    """Times the calibration; ``samples`` keeps every time taken."""

    def __init__(self, n=200, n_small=30, triplets=50_000, loop=30_000):
        self.lu = splu(laplacian(n).tocsc())
        self.rhs = np.ones(n * n)
        m = n_small * n_small
        self.small = (laplacian(n_small, 2.5)
                      + sp.diags([0.3], [7], shape=(m, m))).tocsc()
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, 20_000, triplets)
        self.cols = rng.integers(0, 20_000, triplets)
        self.values = rng.random(triplets)
        self.loop = loop
        self.samples = []

    def work(self):
        self.lu.solve(self.rhs)
        splu(self.small)
        sp.coo_matrix((self.values, (self.rows, self.cols)),
                      shape=(20_000, 20_000)).tocsr()
        total = 0
        for i in range(self.loop):
            total += i * i
        return total

    def measure(self):
        t0 = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - t0)


def speed(samples):
    """The factor that turns a time measured while the calibration took
    ``samples`` into a time at the reference speed."""
    return REFERENCE_S / float(np.median(samples))


def interval_speeds(samples):
    """The factor for each interval between consecutive calibrations, from
    the mean of the two, so that an interval is scaled by the speed just
    around it."""
    samples = np.asarray(samples)
    return REFERENCE_S / ((samples[:-1] + samples[1:]) / 2)
