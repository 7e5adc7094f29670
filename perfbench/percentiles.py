"""Order statistics over raw per-operation samples.

Every timing the benchmark reports comes from these helpers applied to
the raw samples of one run -- never from bucketed histograms -- and is
printed with its sample count.  A tail percentile is only reported when
at least :data:`MIN_BEYOND` samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    """The median of the raw samples (mean of the middle two when the
    count is even)."""
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank
    ``p``-quantile."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return n - max(1, math.ceil(p * n))


def min_samples(p: float) -> int:
    """The fewest samples for which the ``p``-quantile has
    :data:`MIN_BEYOND` samples beyond it."""
    n = 1
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-quantile of the raw samples.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it: such a tail is not supported by the data.
    """
    n = len(samples)
    if n == 0 or beyond(n, p) < MIN_BEYOND:
        raise ValueError(
            f"p{p * 100:g} needs {min_samples(p)} samples, got {n}"
        )
    ordered = sorted(samples)
    return float(ordered[max(1, math.ceil(p * n)) - 1])
