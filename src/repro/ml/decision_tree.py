"""CART decision trees trained from aggregate batches (Section 2.2).

A tree node's batch holds the filtered variance (regression) or frequency
(classification) aggregates of all candidate splits; the best split is chosen
from those statistics alone, and the node's path condition becomes the filter
set of its children's batches, so the data matrix is never materialised.  The
engine is asked only for what cannot be derived: see :class:`_TreeLearnerBase`
for what a node takes from its parent and which sibling is evaluated
(``TreeNode.source`` records it per node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.batch import decision_tree_node_batch, split_candidate_suffix
from repro.aggregates.spec import Aggregate, AggregateBatch, Filter, FilterOp
from repro.data.database import Database
from repro.engine.lmfao import BatchResult, LMFAOEngine
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class TreeNode:
    """A node of a learned decision tree."""

    prediction: float
    count: float
    depth: int
    split_feature: Optional[str] = None
    split_threshold: Optional[float] = None
    split_category: Optional[object] = None
    left: Optional["TreeNode"] = None       # condition true
    right: Optional["TreeNode"] = None      # condition false
    impurity: float = 0.0
    #: Where the node's numbers came from: ``"evaluated"`` (its batch went to
    #: the engine), ``"derived"`` (its batch result is its parent's minus its
    #: sibling's) or ``"parent-split"`` (no batch: it cannot split, and its
    #: statistics are those its parent's split computed).  Not rendered.
    source: str = "parent-split"

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def walk(self) -> Iterator["TreeNode"]:
        """The subtree's nodes in pre-order (node, true branch, false branch)."""
        yield self
        if not self.is_leaf:
            yield from self.left.walk()   # type: ignore[union-attr]
            yield from self.right.walk()  # type: ignore[union-attr]

    def condition_string(self) -> str:
        if self.split_feature is None:
            return "leaf"
        if self.split_threshold is not None:
            return f"{self.split_feature} >= {self.split_threshold:g}"
        return f"{self.split_feature} == {self.split_category!r}"

    def render(self) -> str:
        lines: List[str] = []

        def visit(node: "TreeNode", indent: int) -> None:
            prefix = "  " * indent
            if node.is_leaf:
                if isinstance(node.prediction, (int, float)):
                    prediction = f"{node.prediction:.4g}"
                else:
                    prediction = repr(node.prediction)  # classification labels
                lines.append(f"{prefix}predict {prediction} (n={node.count:.0f})")
            else:
                lines.append(f"{prefix}if {node.condition_string()}:")
                visit(node.left, indent + 1)  # type: ignore[arg-type]
                lines.append(f"{prefix}else:")
                visit(node.right, indent + 1)  # type: ignore[arg-type]

        visit(self, 0)
        return "\n".join(lines)


@dataclass
class _Split:
    """The chosen split of one node and the statistics of its true branch."""

    feature: str
    threshold: Optional[float]
    category: Optional[object]
    true_statistics: object

    def conditions(self) -> Tuple[Filter, Filter]:
        """The filters of the true and of the false branch."""
        if self.threshold is not None:
            return (
                Filter(self.feature, FilterOp.GE, self.threshold),
                Filter(self.feature, FilterOp.LT, self.threshold),
            )
        return (
            Filter(self.feature, FilterOp.EQ, self.category),
            Filter(self.feature, FilterOp.NE, self.category),
        )


class _Fit(NamedTuple):
    """What one ``fit`` call hands down the recursion."""

    engine: LMFAOEngine
    thresholds: Dict[str, List[float]]
    categories: Dict[str, List[object]]


class _TreeLearnerBase:
    """Shared machinery: candidate generation and the growth rule.

    A node's *statistics* — ``(count, sum, sum of squares)`` of the target for
    the regressor, class counts for the classifier — decide its prediction,
    its impurity and whether it may split; its *batch result* holds the same
    statistics for the true branch of every candidate split.  Only the root
    reads its statistics from its own batch.  Every other node takes them
    from its parent's split: the chosen candidate's for the true branch, the
    parent's minus those for the false branch.  A node that cannot split
    (depth limit, fewer than twice ``min_samples`` rows, a pure class) needs
    no batch at all.  Of two children that may both split, the one with fewer
    rows is evaluated (ties: the true branch) and the other's whole result
    follows as ``parent - evaluated``
    (:meth:`BatchResult.minus <repro.engine.lmfao.BatchResult.minus>`) — the
    aggregates are sums, so the complement of a condition is a subtraction;
    when only one child may split, it is the one evaluated.  Counts of rows
    subtract exactly; sums come out within rounding of a direct evaluation.
    A difference that is not finite (the data holds ``inf`` or ``NaN``) says
    nothing, and the child is evaluated directly instead.
    """

    def __init__(
        self,
        target: str,
        continuous: Sequence[str],
        categorical: Sequence[str] = (),
        max_depth: int = 3,
        min_samples: float = 10.0,
        threshold_count: int = 8,
        root_relation: Optional[str] = None,
    ) -> None:
        self.target = target
        self.continuous = [feature for feature in continuous if feature != target]
        self.categorical = list(categorical)
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.threshold_count = threshold_count
        self.root_relation = root_relation
        self.root: Optional[TreeNode] = None
        #: Calls to ``engine.evaluate`` and the aggregates they carried.
        self.batches_evaluated = 0
        self.aggregates_evaluated = 0

    # -- candidate generation ----------------------------------------------------------------

    def _thresholds(self, database: Database, query: ConjunctiveQuery) -> Dict[str, List[float]]:
        """Equi-spaced thresholds over each feature's finite values.

        A ``NaN`` or ``inf`` would make every threshold one (NaN or inf) value;
        rows holding one still split like any other: ``NaN >= t`` is false,
        ``inf >= t`` true.
        """
        thresholds: Dict[str, List[float]] = {}
        for feature in self.continuous:
            owners = database.relations_with_attribute(feature)
            if not owners:
                continue
            values = owners[0].column_store().float_column(feature)
            if values is None:
                raise ValueError(f"continuous feature {feature!r} is not numeric")
            values = values[np.isfinite(values)]
            if not values.size:
                continue
            low, high = float(values.min()), float(values.max())
            if high <= low:
                thresholds[feature] = [low]
                continue
            step = (high - low) / (self.threshold_count + 1)
            # A range narrower than the rounding yields one threshold twice.
            thresholds[feature] = list(dict.fromkeys(
                round(low + step * position, 6) for position in range(1, self.threshold_count + 1)
            ))
        return thresholds

    def _categories(self, database: Database) -> Dict[str, List[object]]:
        categories: Dict[str, List[object]] = {}
        for feature in self.categorical:
            owners = database.relations_with_attribute(feature)
            if owners:
                categories[feature] = owners[0].active_domain(feature)
        return categories

    @staticmethod
    def _candidates(fit: "_Fit") -> List[Tuple[str, Optional[float], Optional[object], Filter]]:
        """Every candidate split: (feature, threshold, category, its true-branch filter)."""
        return [
            (feature, threshold, None, Filter(feature, FilterOp.GE, threshold))
            for feature, feature_thresholds in fit.thresholds.items()
            for threshold in feature_thresholds
        ] + [
            (feature, None, value, Filter(feature, FilterOp.EQ, value))
            for feature, feature_categories in fit.categories.items()
            for value in feature_categories
        ]

    # -- growth ------------------------------------------------------------------------------

    def fit(self, database: Database, query: ConjunctiveQuery) -> "TreeNode":
        fit = _Fit(
            LMFAOEngine(database, query, self.root_relation),
            self._thresholds(database, query),
            self._categories(database),
        )
        result = self._evaluate(fit, (), 0)
        statistics = self._node_statistics(result)
        self.root = self._node(statistics, 0, "evaluated")
        if self._may_split(self.root):
            self._split(fit, self.root, (), statistics, result)
        return self.root

    def _evaluate(self, fit: _Fit, node_filters: Tuple[Filter, ...], depth: int) -> BatchResult:
        batch = self._node_batch(fit, node_filters, depth)
        self.batches_evaluated += 1
        self.aggregates_evaluated += len(batch)
        return fit.engine.evaluate(batch)

    def _may_split(self, node: TreeNode) -> bool:
        """Whether the node's own statistics allow a split at all.

        Both sides of a split need ``min_samples`` rows, so a node short of
        twice that has no candidate to look at; written the way
        :meth:`_best_split` tests a candidate's false branch.
        """
        return node.depth < self.max_depth and node.count - self.min_samples >= self.min_samples

    def _split(
        self,
        fit: _Fit,
        node: TreeNode,
        node_filters: Tuple[Filter, ...],
        statistics,
        result: BatchResult,
    ) -> None:
        """Split ``node`` on the best candidate of ``result`` and grow its children."""
        split = self._best_split(fit, result, node, statistics)
        if split is None:
            return
        node.split_feature = split.feature
        node.split_threshold = split.threshold
        node.split_category = split.category
        depth = node.depth + 1
        filters = [node_filters + (condition,) for condition in split.conditions()]
        branches = [split.true_statistics, self._difference(statistics, split.true_statistics)]
        children = [self._node(branch, depth, "parent-split") for branch in branches]
        results: List[Optional[BatchResult]] = [None, None]

        def evaluate(branch: int) -> None:
            if results[branch] is None:
                results[branch] = self._evaluate(fit, filters[branch], depth)
                children[branch].source = "evaluated"

        if not self._is_finite(branches[1]):
            # inf or NaN among the sums: the false branch reads its own batch, as the root does.
            evaluate(1)
            branches[1] = self._node_statistics(results[1])
            children[1] = self._node(branches[1], depth, "evaluated")
        node.left, node.right = children

        growing = [branch for branch in (0, 1) if self._may_split(children[branch])]
        if len(growing) == 2:
            smaller = 0 if children[0].count <= children[1].count else 1
            evaluate(smaller)
            if results[1 - smaller] is None:
                derived = result.minus(results[smaller])
                if derived.is_finite():
                    results[1 - smaller] = derived
                    children[1 - smaller].source = "derived"
        for branch in growing:
            evaluate(branch)    # the only child that may split, or a difference that was not finite
            self._split(fit, children[branch], filters[branch], branches[branch], results[branch])

    # -- what the subclasses define --------------------------------------------------------------

    def _node_batch(self, fit: _Fit, node_filters: Tuple[Filter, ...], depth: int) -> AggregateBatch:
        """The node's own statistics and those of every candidate's true branch."""
        raise NotImplementedError

    def _node_statistics(self, result: BatchResult):
        """The node's statistics as its own batch reports them."""
        raise NotImplementedError

    def _difference(self, statistics, true_statistics):
        """The false branch: the node's statistics minus the true branch's."""
        raise NotImplementedError

    def _is_finite(self, statistics) -> bool:
        """Whether a difference of statistics can be trusted (counts always can)."""
        return True

    def _node(self, statistics, depth: int, source: str) -> TreeNode:
        raise NotImplementedError

    def _best_split(
        self, fit: _Fit, result: BatchResult, node: TreeNode, statistics
    ) -> Optional[_Split]:
        raise NotImplementedError

    # -- prediction ----------------------------------------------------------------------------

    def predict_row(self, row: Mapping[str, object]) -> float:
        if self.root is None:
            raise RuntimeError("tree is not trained")
        node = self.root
        while not node.is_leaf:
            if node.split_threshold is not None:
                goes_left = float(row[node.split_feature]) >= node.split_threshold  # type: ignore[arg-type]
            else:
                goes_left = row[node.split_feature] == node.split_category
            node = node.left if goes_left else node.right  # type: ignore[assignment]
        return node.prediction

    def predict(self, rows: Sequence[Mapping[str, object]]) -> List[float]:
        return [self.predict_row(row) for row in rows]


class DecisionTreeRegressor(_TreeLearnerBase):
    """CART regression tree: splits minimise the weighted variance of the target.

    A node's statistics are the triple ``(count, sum, sum of squares)`` of
    the target over its rows.
    """

    def _node_batch(self, fit, node_filters, depth) -> AggregateBatch:
        return decision_tree_node_batch(
            self.target,
            self.continuous,
            self.categorical,
            thresholds=fit.thresholds,
            categories=fit.categories,
            node_filters=node_filters,
        )

    def _node_statistics(self, result) -> Tuple[float, float, float]:
        return (
            result.scalar("node:count"),
            result.scalar("node:sum_y"),
            result.scalar("node:sum_y2"),
        )

    def _difference(self, statistics, true_statistics) -> Tuple[float, float, float]:
        return tuple(whole - part for whole, part in zip(statistics, true_statistics))  # type: ignore[return-value]

    def _is_finite(self, statistics) -> bool:
        return all(map(math.isfinite, statistics))

    def _node(self, statistics, depth, source) -> TreeNode:
        count, total, sum_squares = statistics
        return TreeNode(
            prediction=total / count if count else 0.0,
            count=count,
            depth=depth,
            impurity=self._variance(sum_squares, total, count),
            source=source,
        )

    @staticmethod
    def _variance(sum_squares: float, total: float, count: float) -> float:
        if count <= 0:
            return 0.0
        mean = total / count
        return max(sum_squares / count - mean * mean, 0.0)

    def _best_split(self, fit, result, node, statistics) -> Optional[_Split]:
        node_count, node_sum, node_sum_squares = statistics
        best: Optional[_Split] = None
        best_cost = 0.0

        for feature, threshold, category, condition in self._candidates(fit):
            suffix = split_candidate_suffix(condition)
            left_count = result.scalar(f"count|{suffix}")
            right_count = node_count - left_count
            if left_count < self.min_samples or right_count < self.min_samples:
                continue
            left_sum = result.scalar(f"sum_y|{suffix}")
            left_squares = result.scalar(f"sum_y2|{suffix}")
            cost = (
                self._variance(left_squares, left_sum, left_count) * left_count
                + self._variance(
                    node_sum_squares - left_squares, node_sum - left_sum, right_count
                ) * right_count
            )
            if best is None or cost < best_cost:
                best_cost = cost
                best = _Split(feature, threshold, category, (left_count, left_sum, left_squares))
        if best_cost >= node.impurity * node_count - 1e-12:
            return None
        return best


class DecisionTreeClassifier(_TreeLearnerBase):
    """CART classification tree: splits minimise the weighted Gini index.

    The target must be a categorical attribute; a node's statistics are its
    class counts (``SUM(1) GROUP BY target``), and its batch holds those of
    every candidate's true branch.
    """

    @staticmethod
    def _gini(counts: Mapping[object, float]) -> Tuple[float, float]:
        total = sum(counts.values())
        if total <= 0:
            return 0.0, 0.0
        gini = 1.0 - sum((count / total) ** 2 for count in counts.values())
        return gini, total

    def _categories(self, database: Database) -> Dict[str, List[object]]:
        categories = super()._categories(database)
        categories.pop(self.target, None)      # the class is not a feature
        return categories

    def _node_batch(self, fit, node_filters, depth) -> AggregateBatch:
        # At the depth limit (a root with ``max_depth=0``) only the node's own counts.
        candidates = self._candidates(fit) if depth < self.max_depth else []
        batch = AggregateBatch(name="class_counts")
        batch.add(Aggregate.count(group_by=[self.target], filters=node_filters, name="node"))
        for position, (_feature, _threshold, _category, condition) in enumerate(candidates):
            batch.add(
                Aggregate.count(
                    group_by=[self.target],
                    filters=node_filters + (condition,),
                    name=f"left:{position}",
                )
            )
        return batch

    @staticmethod
    def _class_counts(result, name: str) -> Dict[object, float]:
        return {key[0]: value for key, value in result.grouped(name).items()}

    def _node_statistics(self, result) -> Dict[object, float]:
        return self._class_counts(result, "node")

    def _difference(self, statistics, true_statistics) -> Dict[object, float]:
        # Counts of whole rows are exact, so an emptied class reads exactly 0.
        difference = {
            label: count - true_statistics.get(label, 0.0) for label, count in statistics.items()
        }
        return {label: count for label, count in difference.items() if count != 0.0}

    def _node(self, statistics, depth, source) -> TreeNode:
        gini, total = self._gini(statistics)
        majority = max(statistics, key=statistics.get) if statistics else None
        return TreeNode(
            prediction=majority, count=total, depth=depth, impurity=gini, source=source  # type: ignore[arg-type]
        )

    def _may_split(self, node: TreeNode) -> bool:
        return super()._may_split(node) and node.impurity != 0.0

    def _best_split(self, fit, result, node, statistics) -> Optional[_Split]:
        total = node.count
        best: Optional[_Split] = None
        best_cost = node.impurity * total
        for position, (feature, threshold, category, _condition) in enumerate(self._candidates(fit)):
            left_counts = self._class_counts(result, f"left:{position}")
            left_gini, left_total = self._gini(left_counts)
            right_total = total - left_total
            if left_total < self.min_samples or right_total < self.min_samples:
                continue
            right_gini, _ = self._gini(self._difference(statistics, left_counts))
            cost = left_gini * left_total + right_gini * right_total
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = _Split(feature, threshold, category, left_counts)
        return best
