"""Timings scaled to a reference host speed.

The small shared hosts this benchmark runs on change the speed of the CPU
a process gets by up to 1.8x from one second to the next, on both vCPUs
together (other load on the host), and neither clock shows it: wall time
equals CPU time and there is no steal time.  A run's median over its samples
then depends on how much of the run the host spent slow, and ten runs of
the same code spread by a fifth or more.

So while a workload is timed, a ``Sampler`` runs a fixed reference kernel
every ``INTERVAL_S`` from a SIGALRM handler and records how long it took.
A timed piece of work is reported twice: its net time (the sampler's own
time taken out) as measured, and that time scaled to the reference speed,
``net * mean(REF_S / kernel time)`` over the samples taken while it ran
(or, for a piece shorter than the interval, the samples next to it).  A
piece in which the main thread only waits for a child process on its CPU
(a set-up) takes no samples while the child runs, since the kernel would
share the CPU with it; samples taken just before and after scale it.  The
reference speed is the one at which the kernel takes ``REF_S``; the
kernel is benchmark code and does not change with the program, so a
faster program reads faster in both figures.

The handler runs between bytecodes of the main thread; a long call into
C defers it, which thins the samples but does not bias them.  Pieces
timed in other threads (the gate's clients, which block SIGALRM) are
scaled by the samples the waiting main thread took meanwhile.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import checks

INTERVAL_S = 0.02
# About the kernel's lower quartile on the development host (0.75-1.0 ms
# within runs); a fixed constant, so that scaled times of different runs
# and commits compare.
REF_S = 8.0e-4
EDGE_SAMPLES = 3

_BLOCK = np.random.default_rng(0).integers(-900, 900, size=(20, 256, 2)).astype(np.int16)


def kernel() -> None:
    """The benchmark's own feature computation on 20 fixed frames: small
    numpy calls and interpreter work, like the code the workloads time.
    Of the kernels tried, its time followed the workloads' time most
    closely as the host's speed changed."""
    checks.oracle_features(_BLOCK)


class Sampler:
    """Samples the reference kernel while active; scales timed pieces."""

    def __init__(self, active: bool = True):
        self.active = active
        self.at: list = []          # midpoint of each sample, perf_counter
        self.took: list = []        # the kernel's time in each sample
        self.spent = 0.0            # total time inside the handler
        self._pieces: list = []
        self._prev = None

    def _sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self.spent += perf_counter() - t0

    @contextmanager
    def waiting(self):
        """Times the body as a piece in which the main thread only waits
        for a child process on the same CPU; yields a one-item list that
        holds the piece's index afterwards.  No samples are taken while
        the child runs (the kernel would share the CPU with it); samples
        taken just before and after the body scale the piece instead."""
        if self.active:
            for _ in range(EDGE_SAMPLES):
                self._sample()
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        out = []
        t0 = perf_counter()
        try:
            yield out
        finally:
            out.append(self.piece(t0, perf_counter()))
            if self.active:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
                for _ in range(EDGE_SAMPLES):
                    self._sample()

    def __enter__(self) -> "Sampler":
        if not self.active:
            return self
        kernel()                    # first call: imports and caches warm
        self._prev = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._prev)

    def start(self):
        return perf_counter(), self.spent

    def stop(self, token) -> int:
        """Ends a piece begun with ``start``; returns its index.  The
        sampler's own time is taken out of the piece."""
        t0, spent0 = token
        t1 = perf_counter()
        return self.piece(t0, t1, (t1 - t0) - (self.spent - spent0))

    def piece(self, t0: float, t1: float, net: float | None = None) -> int:
        """Adds a piece timed elsewhere, such as in another thread."""
        self._pieces.append((t0, t1, t1 - t0 if net is None else net))
        return len(self._pieces) - 1

    def net(self) -> np.ndarray:
        """Net seconds of every piece, in the order they were stopped."""
        return np.array([p[2] for p in self._pieces], dtype=np.float64)

    def scaled(self) -> np.ndarray:
        """Seconds of every piece at the reference speed; the net seconds
        when the sampler was not active (traced runs)."""
        if not self.active:
            return self.net()
        at = np.asarray(self.at, dtype=np.float64)
        inv = REF_S / np.asarray(self.took, dtype=np.float64)
        if at.size == 0:
            raise RuntimeError("the speed sampler took no samples")
        csum = np.concatenate([[0.0], np.cumsum(inv)])
        out = np.empty(len(self._pieces), dtype=np.float64)
        for i, (t0, t1, net) in enumerate(self._pieces):
            lo = np.searchsorted(at, t0 - INTERVAL_S)
            hi = np.searchsorted(at, t1 + INTERVAL_S)
            if hi <= lo:                                    # no sample that near
                j = min(int(np.searchsorted(at, 0.5 * (t0 + t1))), at.size - 1)
                lo, hi = j, j + 1
            out[i] = net * (csum[hi] - csum[lo]) / (hi - lo)
        return out

    def kernel_stats(self) -> dict:
        took = np.asarray(self.took, dtype=np.float64)
        q1, q2, q3 = np.percentile(took, [25, 50, 75]) if took.size else (0.0, 0.0, 0.0)
        return {"samples": int(took.size), "kernel_q1_us": q1 * 1e6,
                "kernel_median_us": q2 * 1e6, "kernel_q3_us": q3 * 1e6,
                "sampler_s": self.spent}
