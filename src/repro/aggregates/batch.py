"""Batch synthesis for the workloads of Figure 5.

Each function turns a feature specification into the batch of aggregates whose
results are the sufficient statistics of the corresponding model:

* :func:`covariance_batch` — the (non-centred) covariance matrix used by ridge
  linear regression (Section 2.1);
* :func:`decision_tree_node_batch` — the variance/count statistics CART needs
  to score every candidate split at one node (Section 2.2);
* :func:`mutual_information_batch` — pairwise frequency tables for mutual
  information, model selection and Chow–Liu trees;
* :func:`kmeans_batch` — per-dimension statistics for (relational) k-means.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.aggregates.spec import Aggregate, AggregateBatch, Filter, FilterOp


def covariance_batch(
    continuous: Sequence[str],
    categorical: Sequence[str] = (),
    include_intercept: bool = True,
    name: str = "covariance",
) -> AggregateBatch:
    """The aggregates of the (n+1) x (n+1) sigma matrix of Section 2.1.

    For every unordered pair of features the batch contains one aggregate:
    ``SUM(Xi*Xj)`` when both are continuous, ``SUM(Xi) GROUP BY Xj`` when one
    is categorical, and ``SUM(1) GROUP BY Xi, Xj`` when both are.  The
    intercept row contributes ``SUM(Xi)`` / ``SUM(1) GROUP BY Xi`` / ``SUM(1)``.
    """
    batch = AggregateBatch(name=name, description="sigma matrix for least-squares models")
    features: List[Tuple[str, bool]] = [(feature, False) for feature in continuous]
    features.extend((feature, True) for feature in categorical)

    if include_intercept:
        batch.add(Aggregate.count(name="count"))
        for feature, is_categorical in features:
            if is_categorical:
                batch.add(Aggregate.count(group_by=[feature], name=f"count@{feature}"))
            else:
                batch.add(Aggregate.sum_of([feature], name=f"sum:{feature}"))

    for position, (left, left_categorical) in enumerate(features):
        for right, right_categorical in features[position:]:
            if not left_categorical and not right_categorical:
                batch.add(
                    Aggregate.sum_of([left, right], name=f"sum:{left}*{right}")
                )
            elif left_categorical and right_categorical:
                group = [left, right] if left != right else [left]
                batch.add(
                    Aggregate.count(group_by=group, name=f"count@{left},{right}")
                )
            else:
                continuous_feature = right if left_categorical else left
                categorical_feature = left if left_categorical else right
                batch.add(
                    Aggregate.sum_of(
                        [continuous_feature],
                        group_by=[categorical_feature],
                        name=f"sum:{continuous_feature}@{categorical_feature}",
                    )
                )
    return batch


def split_candidate_suffix(condition: Filter) -> str:
    """The name suffix of one candidate split's aggregates.

    ``repr`` of the value, not ``:g``: six significant digits gave the eight
    thresholds of a feature ranging over ``[1000.0, 1000.05]`` four names.
    """
    return f"{condition.attribute}{condition.op.value}{condition.value!r}"


def decision_tree_node_batch(
    target: str,
    continuous: Sequence[str],
    categorical: Sequence[str] = (),
    thresholds: Optional[Mapping[str, Sequence[float]]] = None,
    categories: Optional[Mapping[str, Sequence[object]]] = None,
    default_threshold_count: int = 8,
    node_filters: Sequence[Filter] = (),
    name: str = "decision_node",
) -> AggregateBatch:
    """The statistics CART needs to pick the split at one tree node.

    For every candidate condition (``Xi >= t`` for continuous features,
    ``Xi = v`` for categorical ones) the batch contains the three aggregates
    that define the conditional variance of the target: ``SUM(Y*Y)``,
    ``SUM(Y)`` and ``SUM(1)``, each restricted by the condition and by the
    filters that define the current node (``node_filters``).  A candidate's
    aggregates are named ``sum_y2|<suffix>``, ``sum_y|<suffix>`` and
    ``count|<suffix>`` with :func:`split_candidate_suffix` of its condition;
    results are read back by name, so two candidates under one name raise.
    """
    batch = AggregateBatch(name=name, description="CART split costs for one node")
    thresholds = dict(thresholds or {})
    categories = dict(categories or {})
    base_filters = tuple(node_filters)

    # Statistics of the node itself (used for the no-split cost and the mean).
    batch.add(Aggregate.sum_of([target, target], filters=base_filters, name="node:sum_y2"))
    batch.add(Aggregate.sum_of([target], filters=base_filters, name="node:sum_y"))
    batch.add(Aggregate.count(filters=base_filters, name="node:count"))

    for feature in continuous:
        if feature == target:
            continue
        feature_thresholds = thresholds.get(
            feature, [float(position) for position in range(1, default_threshold_count + 1)]
        )
        for threshold in feature_thresholds:
            condition = Filter(feature, FilterOp.GE, threshold)
            combined = base_filters + (condition,)
            suffix = split_candidate_suffix(condition)
            batch.add(Aggregate.sum_of([target, target], filters=combined, name=f"sum_y2|{suffix}"))
            batch.add(Aggregate.sum_of([target], filters=combined, name=f"sum_y|{suffix}"))
            batch.add(Aggregate.count(filters=combined, name=f"count|{suffix}"))

    for feature in categorical:
        feature_categories = categories.get(feature, [])
        for value in feature_categories:
            condition = Filter(feature, FilterOp.EQ, value)
            combined = base_filters + (condition,)
            suffix = split_candidate_suffix(condition)
            batch.add(Aggregate.sum_of([target, target], filters=combined, name=f"sum_y2|{suffix}"))
            batch.add(Aggregate.sum_of([target], filters=combined, name=f"sum_y|{suffix}"))
            batch.add(Aggregate.count(filters=combined, name=f"count|{suffix}"))
        if not feature_categories:
            # Without an explicit category list, one grouped triple covers all values.
            batch.add(Aggregate.sum_of([target, target], group_by=[feature],
                                       filters=base_filters, name=f"sum_y2@{feature}"))
            batch.add(Aggregate.sum_of([target], group_by=[feature],
                                       filters=base_filters, name=f"sum_y@{feature}"))
            batch.add(Aggregate.count(group_by=[feature], filters=base_filters,
                                      name=f"count@{feature}"))
    names = Counter(aggregate.name for aggregate in batch)
    if len(names) != len(batch):
        repeated = sorted(name for name, uses in names.items() if uses > 1)
        raise ValueError(f"candidate splits share aggregate names: {repeated[:3]}")
    return batch


def mutual_information_batch(
    categorical: Sequence[str],
    name: str = "mutual_information",
) -> AggregateBatch:
    """Pairwise and marginal frequency tables over categorical features.

    The mutual information of two categorical variables needs the joint
    distribution ``SUM(1) GROUP BY Xi, Xj``, the marginals and the total count.
    Used for model selection and Chow–Liu tree construction.
    """
    batch = AggregateBatch(name=name, description="frequencies for mutual information")
    batch.add(Aggregate.count(name="count"))
    for feature in categorical:
        batch.add(Aggregate.count(group_by=[feature], name=f"count@{feature}"))
    for position, left in enumerate(categorical):
        for right in categorical[position + 1:]:
            batch.add(Aggregate.count(group_by=[left, right], name=f"count@{left},{right}"))
    return batch


def kmeans_batch(
    continuous: Sequence[str],
    categorical: Sequence[str] = (),
    name: str = "kmeans",
) -> AggregateBatch:
    """Per-dimension statistics for (relational) k-means.

    Rk-means clusters over a grid coreset built from per-dimension summaries:
    for every continuous dimension the batch holds ``SUM(Xi)``, ``SUM(Xi*Xi)``
    and the grouped count of its active domain; categorical dimensions
    contribute their frequency tables; plus the overall count.
    """
    batch = AggregateBatch(name=name, description="per-dimension statistics for k-means")
    batch.add(Aggregate.count(name="count"))
    for feature in continuous:
        batch.add(Aggregate.sum_of([feature], name=f"sum:{feature}"))
        batch.add(Aggregate.sum_of([feature, feature], name=f"sum:{feature}^2"))
    for feature in categorical:
        batch.add(Aggregate.count(group_by=[feature], name=f"count@{feature}"))
    return batch


def batch_catalogue(
    target: str,
    continuous: Sequence[str],
    categorical: Sequence[str],
    thresholds: Optional[Mapping[str, Sequence[float]]] = None,
) -> Dict[str, AggregateBatch]:
    """The four workloads of Figure 5 for one dataset's feature specification."""
    return {
        "covariance": covariance_batch(continuous, categorical),
        "decision_node": decision_tree_node_batch(
            target,
            [feature for feature in continuous if feature != target],
            categorical,
            thresholds=thresholds,
        ),
        "mutual_information": mutual_information_batch(list(categorical)),
        "kmeans": kmeans_batch(
            [feature for feature in continuous if feature != target], categorical
        ),
    }
