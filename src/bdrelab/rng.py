"""Reproducible random-number streams and the batch scheduler.

A stream is addressed by (seed, stream_index). Distinct addresses give
statistically independent generators (SeedSequence spawning guarantees),
identical addresses reproduce bit-identical draw sequences. Ensemble code
assigns stream_index by fixed-size batch, so results do not depend on how
batches are scheduled across threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["RngStream", "ENSEMBLE_BATCH"]

_U64 = 2**64

ENSEMBLE_BATCH = 50_000


@dataclass(frozen=True)
class RngStream:
    """The stream (seed, stream_index), or (seed, stream_index, level) for
    a level >= 1 of a multilevel estimator; level 0 is the plain pair."""

    seed: int
    stream_index: int = 0
    level: int = 0

    def __post_init__(self) -> None:
        if not (-(2**63) <= self.seed < _U64):
            raise ValueError("seed must fit in 64 bits")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")
        if self.level < 0:
            raise ValueError("level must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = (self.seed % _U64, self.stream_index) + ((self.level,) if self.level else ())
        return np.random.default_rng(np.random.SeedSequence(key))


def _require_se_sample(n: int, least: int = 2) -> None:
    """Refuse n below least where a kernel reports a standard error over n draws.

    One draw has no spread to measure: a ddof-1 se over it is NaN and a
    ddof-0 se exactly 0, and neither is an error bar.
    """
    if n < least:
        raise ValueError(f"a standard error needs n >= {least}, got n={n}")


def _run_batches(
    worker: Callable[[np.random.Generator, int], object],
    n: int,
    seed: int,
    threads: int,
    level: int = 0,
) -> list:
    """worker(g, b) for each batch of at most ENSEMBLE_BATCH of n items, in order.

    Batch k draws from g, the generator of RngStream(seed, k, level),
    built in the thread that runs the batch. n must be at least 1.
    """
    if n < 1:
        raise ValueError(f"n must be a positive count, got n={n}")

    def job(k: int):
        g = RngStream(seed, k, level).generator()
        return worker(g, min(ENSEMBLE_BATCH, n - k * ENSEMBLE_BATCH))

    batches = range(-(-n // ENSEMBLE_BATCH))  # ceil(n / ENSEMBLE_BATCH)
    if threads <= 1 or len(batches) <= 1:
        return [job(k) for k in batches]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(job, batches))  # in batch order
