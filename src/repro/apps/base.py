"""Shared helpers for the workload kernels."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.types import ProcId


def scaled(default: int, scale: float, minimum: int = 1) -> int:
    """Scale a workload-size default by the ``--scale`` factor.

    Rounded to the nearest integer and clamped below by ``minimum`` so
    tiny scales still produce a runnable problem.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    return max(minimum, int(round(default * scale)))


def thread_rng(seed: int, proc: ProcId) -> random.Random:
    """A per-thread PRNG decorrelated from the scheduler's seed."""
    return random.Random((seed * 1_000_003 + proc * 7919) & 0xFFFFFFFF)


def block_partition(n_items: int, n_procs: int, proc: ProcId) -> range:
    """Contiguous block of items owned by ``proc`` (SPLASH-style)."""
    base = n_items // n_procs
    extra = n_items % n_procs
    start = proc * base + min(proc, extra)
    size = base + (1 if proc < extra else 0)
    return range(start, start + size)


def neighbors_within(
    positions: Sequence[Tuple[float, float, float]], index: int, cutoff: float
) -> List[int]:
    """Indices of points within ``cutoff`` of point ``index`` (exclusive).

    Plain multiplications, not ``** 2``: bit-identical results, and this
    O(n^2) all-pairs setup dominates geometry time at paper-scale point
    counts (large ``scale`` factors).
    """
    px, py, pz = positions[index]
    found = []
    cutoff_sq = cutoff * cutoff
    for j, (qx, qy, qz) in enumerate(positions):
        if j == index:
            continue
        dx = px - qx
        dy = py - qy
        dz = pz - qz
        if dx * dx + dy * dy + dz * dz <= cutoff_sq:
            found.append(j)
    return found
