"""A fixed numpy/scipy kernel whose wall time tracks the speed of the host.

On a shared host the same sgf2d op can take 1.0 s in one stretch of seconds
and 1.8 s in the next, and different work slows down together (NOTES.md,
"Host noise"). The worker runs this kernel before the first op and after
every op, and reports each op's time divided by the mean time of the two
kernel runs around it, next to the raw op time. The ratio cancels most of
the host's drift; a change to sgf2d still moves it in full, because the
kernel imports nothing from sgf2d and always does the same work.

The kernel mixes what the workloads spend their time on: type-1 DSTs and a
five-point stencil on 63x63 planes, many numpy calls on 16x16 arrays (where
the interpreter dominates), and a pass over a few MB that leaves L2.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import dstn

_RNG = np.random.default_rng(20240900)
_PLANES = _RNG.standard_normal((2, 63, 63))
_SMALL = _RNG.standard_normal((2, 16, 16))
_STACK = _RNG.standard_normal((64, 2, 63, 63))  # 4 MB


def _stencil(v: np.ndarray) -> np.ndarray:
    p = np.pad(v, ((0, 0), (1, 1), (1, 1)))
    return 4.0 * v - p[:, 2:, 1:-1] - p[:, :-2, 1:-1] - p[:, 1:-1, 2:] - p[:, 1:-1, :-2]


def kernel() -> float:
    """One fixed amount of work; returns a checksum so nothing is skipped."""
    v = _PLANES
    for _ in range(80):
        w = dstn(v, type=1, axes=(-2, -1))
        v = _stencil(dstn(w / (1.0 + np.abs(w)), type=1, axes=(-2, -1)))
        v = v / np.sqrt(np.sum(v * v))
    s = _SMALL
    total = 0.0
    for _ in range(1300):
        s = 0.5 * (s + np.roll(s, 1, axis=-1)) - 0.1 * np.tanh(s)
        total += float(np.sqrt(np.sum(s * s)))
    acc = np.zeros_like(_STACK[0])
    for _ in range(100):
        acc += np.einsum("k...,k->...", _STACK, np.linspace(0.0, 1.0, len(_STACK)))
    return total + float(np.sum(v)) + float(acc[0, 0, 0])


def timed() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
