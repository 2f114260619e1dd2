"""CART decision trees trained from aggregate batches (Section 2.2).

At every tree node the learner asks the engine for the batch of filtered
variance (regression) or frequency (classification) aggregates of all
candidate splits; the best split is chosen from those statistics alone.  The
node's path condition becomes the filter set of the next batch, so the data
matrix is never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.aggregates.batch import decision_tree_node_batch
from repro.aggregates.spec import Aggregate, AggregateBatch, Filter, FilterOp
from repro.data.database import Database
from repro.engine.lmfao import LMFAOEngine
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

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

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
class _SplitCandidate:
    feature: str
    threshold: Optional[float]
    category: Optional[object]
    score: float
    left_count: float
    right_count: float
    left_prediction: float
    right_prediction: float


class _TreeLearnerBase:
    """Shared machinery: candidate thresholds and engine plumbing."""

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
        self.batches_evaluated = 0
        self.aggregates_evaluated = 0

    # -- candidate generation ----------------------------------------------------------------

    def _thresholds(self, database: Database, query: ConjunctiveQuery) -> Dict[str, List[float]]:
        """Equi-spaced thresholds over each feature's active domain."""
        thresholds: Dict[str, List[float]] = {}
        for feature in self.continuous:
            owners = database.relations_with_attribute(feature)
            if not owners:
                continue
            values = owners[0].column_store().float_column(feature)
            if values is None:
                raise ValueError(f"continuous feature {feature!r} is not numeric")
            if not values.size:
                continue
            low, high = float(values.min()), float(values.max())
            if high <= low:
                thresholds[feature] = [low]
                continue
            step = (high - low) / (self.threshold_count + 1)
            thresholds[feature] = [
                round(low + step * position, 6) for position in range(1, self.threshold_count + 1)
            ]
        return thresholds

    def _categories(self, database: Database) -> Dict[str, List[object]]:
        categories: Dict[str, List[object]] = {}
        for feature in self.categorical:
            owners = database.relations_with_attribute(feature)
            if owners:
                categories[feature] = owners[0].active_domain(feature)
        return categories

    def fit(self, database: Database, query: ConjunctiveQuery) -> "TreeNode":
        engine = LMFAOEngine(database, query, self.root_relation)
        thresholds = self._thresholds(database, query)
        categories = self._categories(database)
        self.root = self._grow(engine, (), 0, thresholds, categories)
        return self.root

    # -- node growth (implemented by the subclasses) -------------------------------------------

    def _grow(self, engine, node_filters, depth, thresholds, categories) -> TreeNode:
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
    """CART regression tree: splits minimise the weighted variance of the target."""

    def _grow(self, engine, node_filters, depth, thresholds, categories) -> TreeNode:
        batch = decision_tree_node_batch(
            self.target,
            self.continuous,
            self.categorical,
            thresholds=thresholds,
            categories=categories,
            node_filters=node_filters,
        )
        result = engine.evaluate(batch)
        self.batches_evaluated += 1
        self.aggregates_evaluated += len(batch)

        node_count = result.scalar("node:count")
        node_sum = result.scalar("node:sum_y")
        node_sum_squares = result.scalar("node:sum_y2")
        prediction = node_sum / node_count if node_count else 0.0
        impurity = self._variance(node_sum_squares, node_sum, node_count)
        node = TreeNode(prediction=prediction, count=node_count, depth=depth, impurity=impurity)

        if depth >= self.max_depth or node_count < self.min_samples:
            return node

        best = self._best_split(result, node_count, node_sum, node_sum_squares, thresholds, categories)
        if best is None or best.score >= impurity * node_count - 1e-12:
            return node

        node.split_feature = best.feature
        node.split_threshold = best.threshold
        node.split_category = best.category
        condition_true, condition_false = self._split_filters(best)
        node.left = self._grow(engine, node_filters + (condition_true,), depth + 1, thresholds, categories)
        node.right = self._grow(engine, node_filters + (condition_false,), depth + 1, thresholds, categories)
        return node

    @staticmethod
    def _variance(sum_squares: float, total: float, count: float) -> float:
        if count <= 0:
            return 0.0
        mean = total / count
        return max(sum_squares / count - mean * mean, 0.0)

    def _split_filters(self, candidate: _SplitCandidate) -> Tuple[Filter, Filter]:
        if candidate.threshold is not None:
            return (
                Filter(candidate.feature, FilterOp.GE, candidate.threshold),
                Filter(candidate.feature, FilterOp.LT, candidate.threshold),
            )
        return (
            Filter(candidate.feature, FilterOp.EQ, candidate.category),
            Filter(candidate.feature, FilterOp.NE, candidate.category),
        )

    def _best_split(
        self,
        result,
        node_count: float,
        node_sum: float,
        node_sum_squares: float,
        thresholds: Mapping[str, Sequence[float]],
        categories: Mapping[str, Sequence[object]],
    ) -> Optional[_SplitCandidate]:
        best: Optional[_SplitCandidate] = None

        def consider(feature, threshold, category, left_stats) -> None:
            nonlocal best
            left_squares, left_sum, left_count = left_stats
            right_count = node_count - left_count
            if left_count < self.min_samples or right_count < self.min_samples:
                return
            right_sum = node_sum - left_sum
            right_squares = node_sum_squares - left_squares
            cost = (
                self._variance(left_squares, left_sum, left_count) * left_count
                + self._variance(right_squares, right_sum, right_count) * right_count
            )
            if best is None or cost < best.score:
                best = _SplitCandidate(
                    feature=feature,
                    threshold=threshold,
                    category=category,
                    score=cost,
                    left_count=left_count,
                    right_count=right_count,
                    left_prediction=left_sum / left_count,
                    right_prediction=right_sum / right_count,
                )

        for feature, feature_thresholds in thresholds.items():
            for threshold in feature_thresholds:
                suffix = f"{feature}>={threshold:g}"
                consider(
                    feature,
                    threshold,
                    None,
                    (
                        result.scalar(f"sum_y2|{suffix}"),
                        result.scalar(f"sum_y|{suffix}"),
                        result.scalar(f"count|{suffix}"),
                    ),
                )
        for feature, feature_categories in categories.items():
            for value in feature_categories:
                suffix = f"{feature}={value}"
                consider(
                    feature,
                    None,
                    value,
                    (
                        result.scalar(f"sum_y2|{suffix}"),
                        result.scalar(f"sum_y|{suffix}"),
                        result.scalar(f"count|{suffix}"),
                    ),
                )
        return best


class DecisionTreeClassifier(_TreeLearnerBase):
    """CART classification tree: splits minimise the weighted Gini index.

    The target must be a categorical attribute; the per-node statistics are
    grouped counts (``SUM(1) GROUP BY target``) under the candidate filters.
    """

    @staticmethod
    def _gini(counts: Mapping[object, float]) -> Tuple[float, float]:
        total = sum(counts.values())
        if total <= 0:
            return 0.0, 0.0
        gini = 1.0 - sum((count / total) ** 2 for count in counts.values())
        return gini, total

    def _candidates(
        self, thresholds, categories
    ) -> List[Tuple[str, Optional[float], Optional[object], Filter]]:
        """Every candidate split: (feature, threshold, category, its true-branch filter)."""
        candidates: List[Tuple[str, Optional[float], Optional[object], Filter]] = []
        for feature, feature_thresholds in thresholds.items():
            for threshold in feature_thresholds:
                candidates.append(
                    (feature, threshold, None, Filter(feature, FilterOp.GE, threshold))
                )
        for feature, feature_categories in categories.items():
            if feature == self.target:
                continue
            for value in feature_categories:
                candidates.append((feature, None, value, Filter(feature, FilterOp.EQ, value)))
        return candidates

    def _grow(self, engine, node_filters, depth, thresholds, categories) -> TreeNode:
        # One batch per tree node, as in the regressor: the node's class counts
        # and — unless the depth limit makes it a leaf anyway — those of every
        # candidate's true branch.
        candidates = self._candidates(thresholds, categories) if depth < self.max_depth else []
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
        result = engine.evaluate(batch)
        self.batches_evaluated += 1
        self.aggregates_evaluated += len(batch)

        def class_counts(name: str) -> Dict[object, float]:
            return {key[0]: value for key, value in result.grouped(name).items()}

        counts = class_counts("node")
        gini, total = self._gini(counts)
        majority = max(counts, key=counts.get) if counts else None
        node = TreeNode(prediction=majority, count=total, depth=depth, impurity=gini)  # type: ignore[arg-type]
        if depth >= self.max_depth or total < self.min_samples or gini == 0.0:
            return node

        best_cost = gini * total
        best_condition: Optional[Tuple[str, Optional[float], Optional[object]]] = None
        for position, (feature, threshold, category, _condition) in enumerate(candidates):
            left_counts = class_counts(f"left:{position}")
            left_gini, left_total = self._gini(left_counts)
            right_total = total - left_total
            if left_total < self.min_samples or right_total < self.min_samples:
                continue
            right_counts = {
                value: counts.get(value, 0.0) - left_counts.get(value, 0.0) for value in counts
            }
            right_gini, _ = self._gini(right_counts)
            cost = left_gini * left_total + right_gini * right_total
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_condition = (feature, threshold, category)

        if best_condition is None:
            return node
        feature, threshold, category = best_condition
        node.split_feature = feature
        node.split_threshold = threshold
        node.split_category = category
        if threshold is not None:
            true_filter = Filter(feature, FilterOp.GE, threshold)
            false_filter = Filter(feature, FilterOp.LT, threshold)
        else:
            true_filter = Filter(feature, FilterOp.EQ, category)
            false_filter = Filter(feature, FilterOp.NE, category)
        node.left = self._grow(engine, node_filters + (true_filter,), depth + 1, thresholds, categories)
        node.right = self._grow(engine, node_filters + (false_filter,), depth + 1, thresholds, categories)
        return node
