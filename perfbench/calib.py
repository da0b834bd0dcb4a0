"""Host-speed calibration for the rvad benchmark, in numpy alone.

The benchmark runs on a few cores of a shared machine whose speed changes by
a quarter or more within a minute, and by more than 2x over tens of minutes,
as neighbours come and go.  Raw wall and CPU times of the same code then spread
too far between runs to hold a bound.  So every timed piece of work is
scaled by how slow a fixed reference kernel ran around and during it:

    scaled = measured * REF_S / kernel_s

`kernel_s` is the mean kernel time over the samples taken just before and
just after the piece and, for work that runs in this process, every
INTERVAL_S inside it from a SIGALRM handler.  The handler runs in the main
thread between bytecodes, so the kernel never runs alongside the program,
and its time is taken out of the piece's time.  The kernel does the kind of
work the pipeline does (framing, windowing, real FFTs, power, log and a
cumulative sum, plus a pure-Python loop), so contention for the core, its
caches and memory slows both alike.  It does not touch rvad: a change to the
program moves the scaled times and leaves the kernel alone.  REF_S is the
kernel's usual time on the 2-vCPU host the benchmark was written on, so on
such a host scaled and raw times read about the same.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

import numpy as np

REF_S = 0.050  # kernel wall time on the reference host, between its quiet and median figures
REPEATS = 3  # kernel runs per edge sample; the sample is their median
INTERVAL_S = 0.5  # period of the kernel samples inside in-process work
_FRAME, _HOP, _NFFT, _CHUNK, _PASSES = 400, 160, 512, 24, 50
_SIGNAL = np.random.default_rng(20190607).standard_normal(16000 * 2)
_WINDOW = np.hanning(_FRAME)


def kernel() -> float:
    """Fixed work: _PASSES short-time power spectra of a 2 s signal, then a loop.

    Every array it makes stays below glibc's 128 KiB mmap threshold.  A larger
    one, once freed, raises that threshold and changes how the program's own
    arrays are placed, which showed up as 23 MB more peak RSS.
    """
    frames = np.lib.stride_tricks.sliding_window_view(_SIGNAL, _FRAME)[::_HOP]
    total = 0.0
    for _ in range(_PASSES):
        for lo in range(0, len(frames), _CHUNK):
            spec = np.fft.rfft(frames[lo : lo + _CHUNK] * _WINDOW, _NFFT)
            power = spec.real**2 + spec.imag**2
            total += float(np.log(power + 1e-9).sum() + np.cumsum(power, axis=0)[-1].sum())
    count = 0
    for i in range(100_000):
        count += i
    return total + count


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed_kernel() -> tuple[float, float]:
    c0, t0 = _cpu_s(), time.perf_counter()
    kernel()
    return time.perf_counter() - t0, _cpu_s() - c0


def sample() -> tuple[float, float]:
    """Median wall and CPU seconds of REPEATS runs of the kernel."""
    runs = [timed_kernel() for _ in range(REPEATS)]
    return statistics.median(w for w, _ in runs), statistics.median(c for _, c in runs)


class Meter:
    """Times consecutive pieces of work and the host speed around them.

    With `inside` set, the kernel is also sampled every INTERVAL_S during a
    piece.  Use that only for work done in this process: a parent waiting
    for a child would run the kernel alongside the child.
    """

    def __init__(self, inside: bool = False):
        self.inside = inside
        self._edge = sample()

    def run(self, fn):
        """Run fn(); return (its result, wall s, CPU s, wall scale, CPU scale).

        The times are this process's, with inside kernel samples taken out.
        A scale is REF_S over the mean kernel time of the piece's samples.
        """
        inside = []
        if self.inside:
            previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(timed_kernel()))
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            out = fn()
        finally:
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        wall -= sum(w for w, _ in inside)
        cpu -= sum(c for _, c in inside)
        edge = sample()
        samples = [self._edge, *inside, edge]
        self._edge = edge
        kernel_wall = statistics.fmean(w for w, _ in samples)
        kernel_cpu = statistics.fmean(c for _, c in samples)
        return out, wall, cpu, REF_S / kernel_wall, REF_S / kernel_cpu

