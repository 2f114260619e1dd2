"""Evaluation strategies for additive-inequality aggregates.

Both evaluators answer, over a fixed point set ``P`` (rows of a matrix) with
associated value rows ``V``:

* ``count_above(w, c)``   — ``|{p : w · p > c}|``
* ``sum_above(w, c)``     — ``Σ {V_p : w · p > c}`` (a vector)

and the symmetric ``*_below`` variants.  :class:`NaiveInequalityEvaluator`
scans the points on every call (what a classical engine does);
:class:`SortedInequalityEvaluator` sorts the projections ``w · p`` once per
direction ``w`` and answers every threshold with a binary search over prefix
sums — the asymptotic win of the paper's reference [4] in the common case of
many thresholds per direction.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class AdditiveInequalityEvaluator:
    """Base class holding the point set and the value rows."""

    def __init__(self, points: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if values is None:
            self.values = self.points
        else:
            self.values = np.asarray(values, dtype=float)
            if self.values.shape[0] != self.points.shape[0]:
                raise ValueError("values must have one row per point")

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    # The default implementations delegate to the naive strategy so the base
    # class is directly usable; subclasses override for different trade-offs.

    def _mask_above(self, weights: np.ndarray, threshold: float, strict: bool) -> np.ndarray:
        scores = self.points @ np.asarray(weights, dtype=float)
        return scores > threshold if strict else scores >= threshold

    def count_above(self, weights: Sequence[float], threshold: float, strict: bool = True) -> int:
        return int(self._mask_above(np.asarray(weights), threshold, strict).sum())

    def sum_above(self, weights: Sequence[float], threshold: float, strict: bool = True) -> np.ndarray:
        mask = self._mask_above(np.asarray(weights), threshold, strict)
        return self.values[mask].sum(axis=0) if mask.any() else np.zeros(self.values.shape[1])

    def count_below(self, weights: Sequence[float], threshold: float, strict: bool = True) -> int:
        return self.count - self.count_above(weights, threshold, strict=not strict)

    def sum_below(self, weights: Sequence[float], threshold: float, strict: bool = True) -> np.ndarray:
        total = self.values.sum(axis=0) if self.count else np.zeros(self.values.shape[1])
        return total - self.sum_above(weights, threshold, strict=not strict)

    # -- batched thresholds ---------------------------------------------------------------------

    def count_above_many(
        self, weights: Sequence[float], thresholds: Sequence[float], strict: bool = True
    ) -> List[int]:
        return [self.count_above(weights, threshold, strict) for threshold in thresholds]


class NaiveInequalityEvaluator(AdditiveInequalityEvaluator):
    """Per-query scan over the point set (pure Python inner loop).

    The loop is deliberately written tuple-at-a-time — this is the cost model
    of a classical engine iterating over the data matrix and checking the
    additive inequality for each tuple (Section 2.3).
    """

    def count_above(self, weights: Sequence[float], threshold: float, strict: bool = True) -> int:
        weight_list = list(map(float, weights))
        matched = 0
        for row in self.points:
            score = sum(weight * value for weight, value in zip(weight_list, row))
            if score > threshold or (not strict and score == threshold):
                matched += 1
        return matched

    def sum_above(self, weights: Sequence[float], threshold: float, strict: bool = True) -> np.ndarray:
        weight_list = list(map(float, weights))
        total = np.zeros(self.values.shape[1])
        for row, value_row in zip(self.points, self.values):
            score = sum(weight * value for weight, value in zip(weight_list, row))
            if score > threshold or (not strict and score == threshold):
                total += value_row
        return total


class SortedInequalityEvaluator(AdditiveInequalityEvaluator):
    """Sort-once, binary-search-per-threshold evaluation.

    For every distinct direction ``w`` the projections ``w · p`` are sorted and
    the value rows are prefix-summed in that order; each threshold query is then
    a binary search plus a prefix-sum lookup, i.e. ``O(log n)`` instead of a
    full scan.
    """

    def __init__(self, points: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        super().__init__(points, values)
        self._cache: Dict[Tuple[float, ...], Tuple[np.ndarray, np.ndarray]] = {}

    def _prepared(self, weights: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        key = tuple(float(weight) for weight in weights)
        prepared = self._cache.get(key)
        if prepared is None:
            scores = self.points @ np.asarray(key)
            order = np.argsort(scores, kind="mergesort")
            sorted_scores = scores[order]
            # suffix_sums[i] = sum of value rows with the i-th smallest score or larger
            ordered_values = self.values[order]
            suffix_sums = np.vstack(
                [np.cumsum(ordered_values[::-1], axis=0)[::-1], np.zeros((1, self.values.shape[1]))]
            )
            prepared = (sorted_scores, suffix_sums)
            self._cache[key] = prepared
        return prepared

    def count_above(self, weights: Sequence[float], threshold: float, strict: bool = True) -> int:
        sorted_scores, _suffix = self._prepared(weights)
        if strict:
            position = bisect.bisect_right(sorted_scores, threshold)
        else:
            position = bisect.bisect_left(sorted_scores, threshold)
        return int(len(sorted_scores) - position)

    def sum_above(self, weights: Sequence[float], threshold: float, strict: bool = True) -> np.ndarray:
        sorted_scores, suffix_sums = self._prepared(weights)
        if strict:
            position = bisect.bisect_right(sorted_scores, threshold)
        else:
            position = bisect.bisect_left(sorted_scores, threshold)
        return suffix_sums[position].copy()
