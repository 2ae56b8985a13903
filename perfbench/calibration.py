"""Reference-speed seconds.

The effective speed of a CPU in a shared sandbox drifts by tens of
percent within minutes: on a 2-vCPU virtual machine an identical
pure-Python loop took between 37 and 66 ms, and CPU time drifted with
wall time.

Every timed interval is therefore bracketed by a fixed calibration
kernel and reported in reference-speed seconds:

    reference = wall * REFERENCE_S / kernel time around the interval

A unit's kernel time is the median of the kernels run from two units
before it to two units after it; a set-up or import uses the mean of the
kernels just before and after it.

On that VM, for the median sep latency of 15 s windows over 180 s, this
cut the spread (IQR over median) from 22 % to 5 %.  The kernel runs on
one thread.  A two-thread numpy kernel tracked the two-thread sweeps
better, but it read slower after CNN units than after 1-NN units (the
BLAS threads keep spinning after a call), so a change in BLAS use would
have moved the scale.  It also raised the spread of peak RSS.
"""
from __future__ import annotations

import time

import numpy as np

# The kernel's time at reference speed (about its median on the VM above).
REFERENCE_S = 0.02

_GRID = np.random.default_rng(0).random((256, 256))


def kernel_seconds() -> float:
    """Time one fixed mix of interpreter work and numpy array work."""
    start = time.perf_counter()
    acc = 0
    for k in range(60000):
        acc += k * k
    for _ in range(20):
        np.fft.rfft2(_GRID)
        np.sqrt(_GRID) * _GRID
    return time.perf_counter() - start


def reference_seconds(wall: float, kernel: float) -> float:
    """``wall`` seconds rescaled to the speed at which the kernel took ``kernel``."""
    return wall * REFERENCE_S / kernel
