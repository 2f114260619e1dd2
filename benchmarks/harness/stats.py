"""Sample statistics shared by the runner and ``compare.py``.

Timings are reported as a median with quartiles and a sample count; a tail
percentile is only as high as the sample supports (at least ten samples
beyond it), and a comparison is ``unresolved`` rather than ``same`` when the
run-to-run spread is wider than the metric's bound.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: A tail percentile needs this many samples beyond it to be reported.
SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(value, percentile_used)`` by nearest rank.

    The rank is lowered until ten samples lie beyond it; with fewer than
    twenty samples nothing above the median qualifies.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        raise ValueError("percentile of no samples")
    rank = min(count - 1, int(wanted / 100.0 * count))
    if count < 2 * SAMPLES_BEYOND:
        rank = min(rank, count // 2)
    else:
        rank = min(rank, count - 1 - SAMPLES_BEYOND)
    return ordered[rank], 100.0 * rank / count


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(block: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    return (block["q3"] - block["q1"]) / block["median"] if block["median"] else 0.0


def worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the metric got worse (negative: it improved)."""
    sign = 1.0 if better == "lower" else -1.0
    if base == 0:
        return 0.0 if new == 0 else sign * math.copysign(math.inf, new)
    return sign * (new - base) / abs(base)


def verdict(
    base: List[float], new: List[float], better: str, bound: float, paired: bool
) -> Dict[str, object]:
    """Compare two sample sets of one metric on one workload.

    ``worse`` / ``better`` need the medians to differ by more than the bound
    and by more than both sides' own spread; a spread wider than the bound
    with no such difference is ``unresolved``.  With ``paired`` sets of at
    least ten pairs, ``better`` additionally needs nine tenths of the pairs
    won (ties count for neither side) and a median difference beyond the
    base's interquartile distance.
    """
    a, b = summary(base), summary(new)
    worse_by = worsening(a["median"], b["median"], better)
    noise = max(spread(a), spread(b))
    result = {
        "base": a,
        "new": b,
        "ratio": b["median"] / a["median"] if a["median"] else float("nan"),
        "worse_by": worse_by,
        "spread": noise,
        "bound": bound,
    }
    if worse_by > bound and worse_by > noise:
        result["verdict"] = "worse"
    elif -worse_by > bound and -worse_by > noise:
        result["verdict"] = "better"
        if paired and len(base) >= 10:
            wins = sum(1 for x, y in zip(base, new) if worsening(x, y, better) < 0)
            beyond_iqr = abs(b["median"] - a["median"]) > (a["q3"] - a["q1"])
            result["pairs_won"] = wins
            if wins < 0.9 * len(base) or not beyond_iqr:
                result["verdict"] = "unresolved"
    elif noise > bound:
        result["verdict"] = "unresolved"
    else:
        result["verdict"] = "same"
    return result
