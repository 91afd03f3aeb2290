"""Order statistics used by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank.

    ``fraction`` is in (0, 1].  The second element is how many samples
    lie beyond the reported one, so a p90 of 25 samples reports 2: the
    reader can see how far the tail is supported.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them —
    the same arithmetic the acceptance runs use.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")
