"""Tests for the models trained from aggregate batches."""

from collections import Counter

import numpy as np
import pytest

from repro.aggregates.sparse_tensor import FeatureIndex, SigmaMatrix
from repro.aggregates.spec import Aggregate, AggregateBatch
from repro.data import Database, Relation, Schema
from repro.datasets import retailer_database, retailer_query
from repro.engine import LMFAOEngine, MaterializedJoinEngine
from repro.inequality import NaiveInequalityEvaluator, SortedInequalityEvaluator
from repro.ml import (
    ChowLiuTree,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    FactorizationMachine,
    KMeans,
    LinearSVM,
    ModelSelector,
    PrincipalComponentAnalysis,
    RelationalKMeans,
    RidgeRegression,
    compute_sigma,
    mutual_information_matrix,
)
from repro.ml.decision_tree import _Fit
from repro.ml.model_selection import training_mse
from repro.ml.statistics import join_columns, join_counts, one_hot_rows, sigma_from_data_matrix
from repro.query import ConjunctiveQuery


@pytest.fixture(scope="module")
def retailer_setup(small_retailer, small_retailer_query):
    continuous = ["inventoryunits", "prize", "maxtemp", "rain", "population"]
    categorical = ["category", "snow"]
    sigma = compute_sigma(small_retailer, small_retailer_query, continuous, categorical)
    joined = MaterializedJoinEngine(small_retailer, small_retailer_query).materialize()
    rows = [dict(zip(joined.schema.names, row)) for row in joined.rows()]
    return small_retailer, small_retailer_query, continuous, categorical, sigma, rows


# -- ridge regression -----------------------------------------------------------------------------


def test_gradient_descent_approaches_closed_form(retailer_setup):
    _db, _query, continuous, categorical, sigma, rows = retailer_setup
    gd_model = RidgeRegression("inventoryunits", regularization=1e-3).fit(sigma, max_iterations=5000)
    cf_model = RidgeRegression("inventoryunits", regularization=1e-3).fit_closed_form(sigma)
    assert gd_model.rmse(rows) == pytest.approx(cf_model.rmse(rows), rel=0.05)


def test_closed_form_matches_numpy_lstsq_on_one_hot_matrix(retailer_setup):
    _db, _query, continuous, categorical, sigma, rows = retailer_setup
    model = RidgeRegression("inventoryunits", regularization=0.0).fit_closed_form(sigma)
    matrix, index = one_hot_rows(rows, continuous, categorical)
    target_position = index.position("inventoryunits")
    predictors = np.delete(matrix, target_position, axis=1)
    targets = matrix[:, target_position]
    reference, *_ = np.linalg.lstsq(predictors, targets, rcond=None)
    predictions_reference = predictors @ reference
    predictions_model = model.predict(rows)
    assert np.sqrt(np.mean((predictions_model - targets) ** 2)) == pytest.approx(
        np.sqrt(np.mean((predictions_reference - targets) ** 2)), rel=0.05
    )


def test_sigma_via_engine_matches_sigma_via_data_matrix(retailer_setup):
    _db, _query, continuous, categorical, sigma, rows = retailer_setup
    reference = sigma_from_data_matrix(rows, continuous, categorical)
    assert np.allclose(sigma.matrix, reference.matrix)


def test_warm_start_converges_faster_than_cold(retailer_setup):
    _db, _query, _continuous, _categorical, sigma, _rows = retailer_setup
    cold = RidgeRegression("inventoryunits").fit(sigma, tolerance=1e-10)
    warm = RidgeRegression("inventoryunits")
    warm.warm_start_fit(sigma, cold.parameters, tolerance=1e-10, max_iterations=2000)
    assert warm.trace.iterations <= cold.trace.iterations


def test_untrained_model_raises():
    model = RidgeRegression("y")
    with pytest.raises(RuntimeError):
        model.coefficients()
    with pytest.raises(RuntimeError):
        model.predict_row({"y": 1.0})


# -- model selection --------------------------------------------------------------------------------


def test_model_selector_ranks_subsets(retailer_setup):
    _db, _query, _continuous, _categorical, sigma, rows = retailer_setup
    selector = ModelSelector(sigma, "inventoryunits")
    candidates = selector.search(["prize", "maxtemp", "rain"], max_subset_size=2)
    assert len(candidates) == 3 + 3          # singletons + pairs
    best = selector.best()
    assert best.training_mse == min(candidate.training_mse for candidate in candidates)


def test_training_mse_from_sigma_matches_row_level_mse(retailer_setup):
    _db, _query, continuous, categorical, sigma, rows = retailer_setup
    model = RidgeRegression("inventoryunits", regularization=0.0).fit_closed_form(sigma)
    analytic = training_mse(sigma, model, "inventoryunits")
    empirical = model.rmse(rows) ** 2
    assert analytic == pytest.approx(empirical, rel=1e-4)


def test_model_selector_requires_candidates(retailer_setup):
    _db, _query, _c, _k, sigma, _rows = retailer_setup
    with pytest.raises(RuntimeError):
        ModelSelector(sigma, "inventoryunits").best()


# -- PCA ----------------------------------------------------------------------------------------------


def test_pca_matches_numpy_covariance(retailer_setup):
    _db, _query, continuous, _categorical, sigma, rows = retailer_setup
    features = ["prize", "maxtemp", "rain", "population"]
    pca = PrincipalComponentAnalysis(features)
    result = pca.fit(sigma)
    matrix = np.array([[float(row[feature]) for feature in features] for row in rows])
    reference = np.cov(matrix, rowvar=False, bias=True)
    eigenvalues = np.sort(np.linalg.eigvalsh(reference))[::-1]
    assert np.allclose(np.sort(result.explained_variance)[::-1], eigenvalues, rtol=1e-6, atol=1e-6)
    assert result.explained_variance_ratio().sum() == pytest.approx(1.0)
    transformed = pca.transform(rows[:5])
    assert transformed.shape == (5, len(features))


# -- decision trees --------------------------------------------------------------------------------------


def test_regression_tree_reduces_variance(small_retailer, small_retailer_query):
    tree = DecisionTreeRegressor(
        target="inventoryunits",
        continuous=["prize", "maxtemp", "rain"],
        categorical=["category"],
        max_depth=2,
        min_samples=20,
    )
    root = tree.fit(small_retailer, small_retailer_query)
    assert root.count > 0
    joined = MaterializedJoinEngine(small_retailer, small_retailer_query).materialize()
    rows = [dict(zip(joined.schema.names, row)) for row in joined.rows()]
    targets = np.array([row["inventoryunits"] for row in rows])
    predictions = np.array(tree.predict(rows))
    baseline = np.mean((targets - targets.mean()) ** 2)
    assert np.mean((targets - predictions) ** 2) <= baseline + 1e-9
    if not root.is_leaf:
        assert root.split_feature is not None
        assert "if" in root.render()


def test_regression_tree_depth_zero_is_constant(small_retailer, small_retailer_query):
    tree = DecisionTreeRegressor(
        target="inventoryunits", continuous=["prize"], max_depth=0
    )
    root = tree.fit(small_retailer, small_retailer_query)
    assert root.is_leaf


def test_classification_tree_beats_majority_class(small_favorita, small_favorita_query):
    tree = DecisionTreeClassifier(
        target="holiday_type",
        continuous=["transactions", "oilprice"],
        categorical=["city"],
        max_depth=2,
        min_samples=20,
    )
    tree.fit(small_favorita, small_favorita_query)
    joined = MaterializedJoinEngine(small_favorita, small_favorita_query).materialize()
    rows = [dict(zip(joined.schema.names, row)) for row in joined.rows()]
    truth = [row["holiday_type"] for row in rows]
    majority = max(set(truth), key=truth.count)
    majority_accuracy = truth.count(majority) / len(truth)
    accuracy = sum(1 for row, label in zip(rows, truth) if tree.predict_row(row) == label) / len(truth)
    assert accuracy >= majority_accuracy - 1e-9


def _count_nodes(node):
    return 1 if node.is_leaf else 1 + _count_nodes(node.left) + _count_nodes(node.right)


def _closed_form_batches(learner):
    """The root, and one batch per split with at least one child able to split."""
    return 1 + sum(
        1
        for node in learner.root.walk()
        if not node.is_leaf and (learner._may_split(node.left) or learner._may_split(node.right))
    )


class _EveryNodeOracle:
    """The learner as it was before nodes read their parent's split.

    Every node sends its own batch and reads its own statistics from it;
    candidates are scored by the production ``_best_split``, so the two
    learners differ only in where a node's numbers come from.
    """

    def fit(self, database, query):
        fit = _Fit(
            LMFAOEngine(database, query, self.root_relation),
            self._thresholds(database, query),
            self._categories(database),
        )
        self.root = self._grow(fit, (), 0)
        return self.root

    def _grow(self, fit, node_filters, depth):
        result = self._evaluate(fit, node_filters, depth)
        statistics = self._node_statistics(result)
        node = self._node(statistics, depth, "evaluated")
        split = self._best_split(fit, result, node, statistics) if self._may_split(node) else None
        if split is None:
            return node
        node.split_feature = split.feature
        node.split_threshold = split.threshold
        node.split_category = split.category
        node.left, node.right = (
            self._grow(fit, node_filters + (condition,), depth + 1)
            for condition in split.conditions()
        )
        return node


class _OracleRegressor(_EveryNodeOracle, DecisionTreeRegressor):
    pass


class _OracleClassifier(_EveryNodeOracle, DecisionTreeClassifier):
    pass


def _assert_same_tree(learned, oracle):
    pairs = list(zip(learned.root.walk(), oracle.root.walk()))
    assert len(pairs) == _count_nodes(learned.root) == _count_nodes(oracle.root)
    for node, expected in pairs:
        assert (node.split_feature, node.split_threshold, node.split_category) == (
            expected.split_feature, expected.split_threshold, expected.split_category
        )
        assert node.count == expected.count
        assert node.impurity == pytest.approx(expected.impurity, rel=1e-9)
        if isinstance(expected.prediction, float):
            assert node.prediction == pytest.approx(expected.prediction, rel=1e-9)
        else:
            assert node.prediction == expected.prediction
    assert learned.root.render() == oracle.root.render()


_TREE_CASES = {
    # learner, oracle, dataset, learner arguments.  Favorita's regressor picks
    # categorical (EQ/NE) splits from depth 3 on.
    "regressor-retailer": (
        DecisionTreeRegressor, _OracleRegressor, "retailer",
        dict(target="inventoryunits", continuous=["prize", "maxtemp", "rain"],
             categorical=["category"]),
    ),
    "regressor-favorita": (
        DecisionTreeRegressor, _OracleRegressor, "favorita",
        dict(target="unit_sales", continuous=["transactions", "oilprice"],
             categorical=["family", "city", "holiday_type"]),
    ),
    "classifier-favorita": (
        DecisionTreeClassifier, _OracleClassifier, "favorita",
        dict(target="holiday_type", continuous=["transactions", "oilprice"],
             categorical=["city"]),
    ),
    "classifier-retailer": (
        DecisionTreeClassifier, _OracleClassifier, "retailer",
        dict(target="category", continuous=["prize", "maxtemp", "inventoryunits"],
             categorical=["rain"]),
    ),
}


# min_samples=60 leaves the smaller child of most splits short of 120 rows: it
# cannot split, so the larger one is evaluated, not derived.  (At 10 the
# favorita regressor meets `city == 'quito'` against `city == 'guayaquil'` over
# rows of two cities — one partition under two names, the tie left to rounding.)
@pytest.mark.parametrize("min_samples", [20, 60])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(_TREE_CASES))
def test_trees_match_the_every_node_oracle_from_fewer_batches(
    case, depth, min_samples,
    small_retailer, small_retailer_query, small_favorita, small_favorita_query,
):
    learner_class, oracle_class, dataset, arguments = _TREE_CASES[case]
    database, query = {
        "retailer": (small_retailer, small_retailer_query),
        "favorita": (small_favorita, small_favorita_query),
    }[dataset]
    learned = learner_class(max_depth=depth, min_samples=min_samples, **arguments)
    learned.fit(database, query)
    oracle = oracle_class(max_depth=depth, min_samples=min_samples, **arguments)
    oracle.fit(database, query)

    _assert_same_tree(learned, oracle)
    assert oracle.batches_evaluated == _count_nodes(oracle.root)
    assert learned.batches_evaluated == _closed_form_batches(learned)
    sources = [node.source for node in learned.root.walk()]
    assert sources[0] == "evaluated"
    assert sources.count("evaluated") == learned.batches_evaluated
    for node in learned.root.walk():
        if node.is_leaf:
            continue
        children = sorted((node.left, node.right), key=lambda child: child.count)
        if learned._may_split(node.left) and learned._may_split(node.right):
            # The child with fewer rows went to the engine (ties: the true branch).
            assert {node.left.source, node.right.source} == {"evaluated", "derived"}
            assert children[0].source == "evaluated"
            assert node.left.count != node.right.count or node.left.source == "evaluated"
        else:
            for child in children:
                expected = "evaluated" if learned._may_split(child) else "parent-split"
                assert child.source == expected
        assert "source" not in node.render() and "derived" not in node.render()


def test_trees_cover_the_cases_the_oracle_comparison_is_for(
    small_retailer, small_retailer_query, small_favorita, small_favorita_query
):
    """The parametrised comparison does meet an EQ/NE split and a lone evaluated child."""
    _cls, _oracle, _dataset, arguments = _TREE_CASES["regressor-favorita"]
    learned = DecisionTreeRegressor(max_depth=4, min_samples=20, **arguments)
    learned.fit(small_favorita, small_favorita_query)
    categorical_splits = [n for n in learned.root.walk() if n.split_category is not None]
    assert categorical_splits and any(not n.left.is_leaf or not n.right.is_leaf
                                      for n in categorical_splits)
    _cls, _oracle, _dataset, arguments = _TREE_CASES["regressor-retailer"]
    learned = DecisionTreeRegressor(max_depth=3, min_samples=60, **arguments)
    learned.fit(small_retailer, small_retailer_query)
    lone = [
        n for n in learned.root.walk()
        if not n.is_leaf and {n.left.source, n.right.source} == {"evaluated", "parent-split"}
    ]
    assert lone
    for node in lone:
        larger = max((node.left, node.right), key=lambda child: child.count)
        assert larger.source == "evaluated"


def test_tree_falls_back_to_direct_evaluation_on_non_finite_sums(
    small_retailer, small_retailer_query
):
    """An ``inf`` in the target makes differences meaningless: children are evaluated."""
    database = small_retailer.copy()
    inventory = database.relation("Inventory")
    position = inventory.schema.index_of("inventoryunits")
    row = max(inventory.rows(), key=lambda r: r[position])
    poisoned = row[:position] + (float("inf"),) + row[position + 1:]
    inventory.remove(row)
    inventory.add(poisoned)
    arguments = dict(target="inventoryunits", continuous=["prize", "maxtemp", "rain"],
                     categorical=["category"], max_depth=2, min_samples=20)
    learned = DecisionTreeRegressor(**arguments)
    learned.fit(database, small_retailer_query)
    oracle = _OracleRegressor(**arguments)
    oracle.fit(database, small_retailer_query)
    assert not learned.root.is_leaf
    assert "derived" not in {node.source for node in learned.root.walk()}
    for node, expected in zip(learned.root.walk(), oracle.root.walk()):
        assert (node.split_feature, node.split_threshold, node.count) == (
            expected.split_feature, expected.split_threshold, expected.count
        )
        assert node.prediction == pytest.approx(expected.prediction, rel=1e-9, nan_ok=True)


def test_tree_thresholds_skip_nan_and_inf_feature_values():
    """One NaN and one ``inf`` among a feature's values leave its thresholds finite.

    Thresholds over every value were all NaN (``min`` and ``max`` of a
    column holding NaN), and the node batch raised on its repeated names.
    """
    from repro.datasets.retailer import retailer_database, retailer_query

    database = retailer_database(inventory_rows=2000, seed=3)
    query = retailer_query()
    for relation_name, feature, value in (("Items", "prize", float("nan")),
                                          ("Weather", "maxtemp", float("inf"))):
        relation = database.relation(relation_name)
        position = relation.schema.index_of(feature)
        row = relation.rows()[0]
        relation.remove(row)
        relation.add(row[:position] + (value,) + row[position + 1:])
    learner = DecisionTreeRegressor(
        "inventoryunits", ["prize", "maxtemp", "rain"], ["category"], max_depth=3
    )
    thresholds = learner._thresholds(database, query)
    assert all(np.isfinite(thresholds[feature]).all() for feature in ("prize", "maxtemp"))
    root = learner.fit(database, query)
    assert not root.is_leaf
    for node in root.walk():
        if not node.is_leaf:
            assert node.left.count + node.right.count == node.count


def test_tree_scores_every_threshold_of_a_narrow_range_with_its_own_statistics():
    """Eight thresholds within ``[1000.0, 1000.05]`` are eight names, not four."""
    from repro.data.relation import relation_from_rows
    from repro.data import Database
    from repro.query import ConjunctiveQuery

    rng = np.random.default_rng(11)
    xs = 1000.0 + rng.integers(0, 51, size=400) / 1000.0
    # The target jumps at x = 1000.0333: the fourth threshold (1000.022222) and
    # the fifth (1000.027778) share ``:g``'s "1000.02", the sixth and the
    # seventh (1000.033333, 1000.038889) share "1000.03".
    rows = [(index, float(x), 5.0 if x >= 1000.0333 else 1.0) for index, x in enumerate(xs)]
    relation = relation_from_rows("R", ["id", "x", "y"], rows)
    database = Database([relation], name="narrow")
    query = ConjunctiveQuery(["R"], name="Q")
    learned = DecisionTreeRegressor("y", ["x"], max_depth=1, min_samples=5)
    thresholds = learned._thresholds(database, query)["x"]
    assert len({f"{threshold:g}" for threshold in thresholds}) < len(thresholds) == 8
    root = learned.fit(database, query)
    assert root.split_threshold == 1000.033333
    assert root.left.count == sum(1 for x in xs if x >= 1000.033333)
    assert root.left.impurity == pytest.approx(0.0, abs=1e-9)
    assert root.right.impurity == pytest.approx(0.0, abs=1e-9)


def test_classification_tree_asks_one_batch_per_node_and_learns_the_same_tree(
    small_favorita, small_favorita_query, small_retailer, small_retailer_query
):
    """One batch per tree node, and the trees the per-candidate batches learned.

    The expected renderings were produced by the classifier that evaluated a
    one-aggregate batch per candidate split (61 and 445 batches here).
    """
    tree = DecisionTreeClassifier(
        target="holiday_type",
        continuous=["transactions", "oilprice"],
        categorical=["city"],
        max_depth=2,
        min_samples=20,
    )
    root = tree.fit(small_favorita, small_favorita_query)
    assert _count_nodes(root) == 7
    assert tree.batches_evaluated == _closed_form_batches(tree) == 2
    assert root.render() == "\n".join(
        [
            "if oilprice >= 59.5278:",
            "  if oilprice >= 79.5511:",
            "    predict 'none' (n=96)",
            "  else:",
            "    predict 'regional' (n=55)",
            "else:",
            "  if oilprice >= 52.8533:",
            "    predict 'local' (n=30)",
            "  else:",
            "    predict 'national' (n=119)",
        ]
    )

    tree = DecisionTreeClassifier(
        target="category",
        continuous=["prize", "maxtemp", "inventoryunits"],
        categorical=["rain"],
        max_depth=3,
        min_samples=10,
    )
    root = tree.fit(small_retailer, small_retailer_query)
    assert _count_nodes(root) == 13
    assert tree.batches_evaluated == _closed_form_batches(tree) == 4
    assert root.render() == "\n".join(
        [
            "if prize >= 267.566:",
            "  if maxtemp >= 8.25667:",
            "    if maxtemp >= 25.3189:",
            "      predict 'grocery' (n=21)",
            "    else:",
            "      predict 'grocery' (n=46)",
            "  else:",
            "    if maxtemp >= -0.274444:",
            "      predict 'grocery' (n=11)",
            "    else:",
            "      predict 'grocery' (n=16)",
            "else:",
            "  if prize >= 59.4244:",
            "    if prize >= 178.362:",
            "      predict 'garden' (n=123)",
            "    else:",
            "      predict 'toys' (n=155)",
            "  else:",
            "    predict 'electronics' (n=28)",
        ]
    )


def test_tree_thresholds_come_from_the_column_extremes(small_retailer, small_retailer_query):
    """Equi-spaced thresholds between a feature's min and max, bit for bit."""
    features = ["prize", "maxtemp", "rain", "population"]
    learner = DecisionTreeRegressor("inventoryunits", features, threshold_count=5)
    thresholds = learner._thresholds(small_retailer, small_retailer_query)
    assert list(thresholds) == features
    for feature, values in thresholds.items():
        column = sorted(
            float(value)
            for value in small_retailer.relations_with_attribute(feature)[0].column(feature)
        )
        low, high = column[0], column[-1]
        step = (high - low) / 6
        assert values == [round(low + step * position, 6) for position in range(1, 6)]


# -- k-means ------------------------------------------------------------------------------------------------


def test_kmeans_clusters_separated_blobs():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(loc=0.0, scale=0.2, size=(50, 2))
    blob_b = rng.normal(loc=5.0, scale=0.2, size=(50, 2))
    points = np.vstack([blob_a, blob_b])
    result = KMeans(2, seed=1).fit(points)
    centroids = sorted(result.centroids[:, 0])
    assert centroids[0] == pytest.approx(0.0, abs=0.5)
    assert centroids[1] == pytest.approx(5.0, abs=0.5)
    labels = KMeans(2, seed=1)
    labels.fit(points)
    assert set(labels.predict(points)) == {0, 1}


def test_relational_kmeans_coreset_is_smaller_than_join(small_retailer, small_retailer_query):
    clustering = RelationalKMeans(["prize", "maxtemp"], clusters=3, grid_size=3, seed=2)
    result = clustering.fit(small_retailer, small_retailer_query)
    join_size = len(MaterializedJoinEngine(small_retailer, small_retailer_query).materialize())
    assert 0 < clustering.coreset_size() <= 9
    assert clustering.coreset_size() < join_size
    assert result.inertia >= 0


def test_relational_kmeans_approximates_full_kmeans(small_retailer, small_retailer_query):
    features = ["prize", "maxtemp"]
    joined = MaterializedJoinEngine(small_retailer, small_retailer_query).materialize()
    rows = [dict(zip(joined.schema.names, row)) for row in joined.expanded_rows()]
    points = np.array([[row[feature] for feature in features] for row in rows], dtype=float)
    exact = KMeans(3, seed=0).fit(points)
    relational = RelationalKMeans(features, clusters=3, grid_size=6, seed=0)
    relational.fit(small_retailer, small_retailer_query)
    exact_inertia = KMeans.inertia_of(points, None, exact.centroids)
    relational_inertia = KMeans.inertia_of(points, None, relational.result.centroids)
    assert relational_inertia <= 4.0 * exact_inertia + 1e-9


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        KMeans(0)
    with pytest.raises(ValueError):
        KMeans(2).fit(np.zeros(3))


# -- factorisation machines ------------------------------------------------------------------------------------


def test_factorization_machine_learns_interaction():
    rng = np.random.default_rng(1)
    rows = []
    for _ in range(400):
        a, b = rng.normal(size=2)
        rows.append({"a": a, "b": b, "y": 2.0 * a * b})
    model = FactorizationMachine("y", ["a", "b"], rank=2, learning_rate=0.02, epochs=60, seed=1)
    model.fit_rows(rows)
    assert model.report.losses[-1] < model.report.losses[0] * 0.5
    assert model.rmse(rows) < 1.0


def test_factorization_machine_fits_from_the_join(sri_database, sri_query):
    model = FactorizationMachine("u", ["i", "s", "c", "p"], rank=2, learning_rate=5e-4, epochs=20)
    report = model.fit(sri_database, sri_query)
    assert len(report.losses) == 20
    assert np.isfinite(report.losses[-1])
    assert report.losses[-1] <= report.losses[0]


# -- SVM and inequality-based training -----------------------------------------------------------------------------


def test_linear_svm_separates_linearly_separable_data():
    rng = np.random.default_rng(2)
    positives = rng.normal(loc=2.0, size=(60, 2))
    negatives = rng.normal(loc=-2.0, size=(60, 2))
    features = np.vstack([positives, negatives])
    labels = np.concatenate([np.ones(60), -np.ones(60)])
    svm = LinearSVM("label", ["f0", "f1"], iterations=300, learning_rate=0.5)
    svm.fit_matrix(features, labels)
    rows = [{"f0": x, "f1": y} for x, y in features]
    assert svm.accuracy(rows, labels) > 0.95
    assert svm.report.objective_values[-1] <= svm.report.objective_values[0]


def test_svm_fit_from_join(sri_database, sri_query):
    svm = LinearSVM("u", ["i", "s", "c", "p"], iterations=50)
    svm.fit(sri_database, sri_query)
    assert svm.weights.shape == (4,)


# -- every model reads the bag join ----------------------------------------------------------------------------


def _retailer_with_a_duplicated_inventory_row():
    database = retailer_database(inventory_rows=300, seed=1)
    inventory = database.relation("Inventory")
    row, multiplicity = next(iter(inventory.items()))
    assert multiplicity == 1
    inventory.add(row, 1)
    return database, retailer_query()


def _join_count(database, query) -> float:
    batch = AggregateBatch(name="count")
    batch.add(Aggregate.count(name="count"))
    return LMFAOEngine(database, query).evaluate(batch).scalar("count")


def test_models_count_a_duplicated_join_row_as_often_as_the_engine(monkeypatch):
    database, query = _retailer_with_a_duplicated_inventory_row()
    count = _join_count(database, query)
    assert count == len(MaterializedJoinEngine(database, query).materialize()) + 1

    clustering = RelationalKMeans(["inventoryunits", "prize"], clusters=3)
    _points, weights = clustering.build_coreset(database, query)
    assert weights.sum() == count

    handed = []
    monkeypatch.setattr(LinearSVM, "fit_matrix",
                        lambda self, features, labels: handed.append(len(features)))
    LinearSVM("inventoryunits", ["prize", "maxtemp"]).fit(database, query)
    assert handed == [count]

    steps = []
    monkeypatch.setattr(FactorizationMachine, "_sgd_step",
                        lambda self, x, target: steps.append(1) or 0.0)
    FactorizationMachine("inventoryunits", ["prize", "maxtemp"], epochs=1).fit(database, query)
    assert len(steps) == count


def test_relational_kmeans_coreset_is_the_nearest_centre_grid_of_the_bag_join():
    database, query = _retailer_with_a_duplicated_inventory_row()
    features = ["inventoryunits", "prize", "maxtemp"]
    clustering = RelationalKMeans(features, clusters=3, grid_size=4)
    points, weights = clustering.build_coreset(database, query)

    joined = MaterializedJoinEngine(database, query).materialize()
    positions = [joined.schema.names.index(feature) for feature in features]
    expected = Counter(
        tuple(
            min(centres, key=lambda centre: abs(float(row[position]) - centre))
            for position, centres in zip(positions, clustering.dimension_centres)
        )
        for row in joined.expanded_rows()
    )
    assert dict(zip(map(tuple, points), weights)) == expected
    assert clustering.coreset_size() == len(expected)


def test_join_columns_are_the_bag_join_in_the_order_asked():
    database, query = _retailer_with_a_duplicated_inventory_row()
    attributes = ["maxtemp", "inventoryunits", "prize"]
    columns, multiplicities = join_columns(database, query, attributes)
    assert columns.shape == (len(multiplicities), len(attributes))
    assert multiplicities.dtype == np.int64
    assert int(multiplicities.sum()) == _join_count(database, query)

    joined = MaterializedJoinEngine(database, query).materialize()
    positions = [joined.schema.names.index(attribute) for attribute in attributes]
    expected = Counter(
        tuple(float(row[position]) for position in positions) for row in joined.expanded_rows()
    )
    assert Counter(map(tuple, np.repeat(columns, multiplicities, axis=0).tolist())) == expected


def test_join_counts_collapse_equal_values_as_the_materialised_join_does():
    """``0.0``/``-0.0`` and ``1``/``1.0`` are one value under ``==``: a grouped
    key shows one of them, and the multiset is the materialised join's."""
    database = Database([
        Relation("A", Schema.from_names(["k", "x"]),
                 rows=[(1, 0.0), (1.0, -0.0), (2, -0.0), (2.0, 5.0), (3, 0.0)]),
        Relation("B", Schema.from_names(["k", "y"]),
                 rows=[(1.0, 7), (2, 1), (2.0, 1.0), (3, -0.0), (3.0, 0.0)]),
    ])
    query = ConjunctiveQuery(["A", "B"])
    joined = MaterializedJoinEngine(database, query).materialize()
    assert join_counts(database, query, joined.schema.names) == dict(joined.items())

    by_x = {}
    for row, multiplicity in joined.items():
        by_x[row[1],] = by_x.get((row[1],), 0) + multiplicity
    assert len(by_x) == 2
    assert join_counts(database, query, ["x"]) == by_x


def test_doubling_every_join_row_doubles_the_coreset_weights_and_keeps_its_points():
    features = ["inventoryunits", "prize", "maxtemp"]
    database = retailer_database(inventory_rows=300, seed=1)
    query = retailer_query()
    points, weights = RelationalKMeans(features, clusters=3, grid_size=4).build_coreset(database, query)

    inventory = database.relation("Inventory")
    items = list(inventory.items())
    inventory.add_batch([row for row, _ in items], [multiplicity for _, multiplicity in items])
    doubled_points, doubled_weights = RelationalKMeans(
        features, clusters=3, grid_size=4).build_coreset(database, query)
    np.testing.assert_array_equal(doubled_points, points)
    np.testing.assert_array_equal(doubled_weights, 2 * weights)


def test_models_over_an_empty_join_say_so():
    database = retailer_database(inventory_rows=300, seed=1)
    query = retailer_query()
    inventory = database.relation("Inventory")
    items = list(inventory.items())
    inventory.add_batch([row for row, _ in items], [-multiplicity for _, multiplicity in items])
    assert len(MaterializedJoinEngine(database, query).materialize()) == 0
    with pytest.raises(ValueError, match="join .*is empty"):
        RelationalKMeans(["inventoryunits", "prize"], clusters=3).fit(database, query)
    with pytest.raises(ValueError, match="join .*is empty"):
        LinearSVM("inventoryunits", ["prize", "maxtemp"]).fit(database, query)


def test_per_row_models_name_a_non_numeric_feature():
    database = retailer_database(inventory_rows=300, seed=1)
    with pytest.raises(ValueError, match="'category'"):
        LinearSVM("inventoryunits", ["prize", "category"]).fit(database, retailer_query())
    with pytest.raises(ValueError, match="'category'"):
        FactorizationMachine("inventoryunits", ["category"]).fit(database, retailer_query())


# -- Chow-Liu / mutual information ------------------------------------------------------------------------------------


def test_mutual_information_is_symmetric_nonnegative(small_retailer, small_retailer_query):
    matrix, features = mutual_information_matrix(
        small_retailer, small_retailer_query, ["category", "snow", "zip"]
    )
    assert np.allclose(matrix, matrix.T)
    assert (matrix >= -1e-9).all()
    assert matrix.shape == (3, 3)


def test_chow_liu_tree_is_spanning_tree(small_retailer, small_retailer_query):
    tree = ChowLiuTree.fit(small_retailer, small_retailer_query, ["category", "snow", "zip"])
    assert len(tree.edges) == 2
    assert tree.total_weight() >= 0
    assert set(tree.features) == {"category", "snow", "zip"}
    assert tree.neighbours("category") != []


def test_mutual_information_of_dependent_attributes_is_higher(small_retailer, small_retailer_query):
    # zip is functionally determined by locn's store, so MI(zip, category) should be
    # no larger than MI(zip, zip-determining attributes); at minimum independent
    # attributes have near-zero MI compared with self-information.
    matrix, features = mutual_information_matrix(
        small_retailer, small_retailer_query, ["category", "zip"]
    )
    assert matrix[0, 1] >= 0.0


# -- inequality evaluators (property) ----------------------------------------------------------------------------------------


def test_inequality_evaluators_agree_on_random_data():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(300, 3))
    values = rng.normal(size=(300, 2))
    naive = NaiveInequalityEvaluator(points, values)
    fast = SortedInequalityEvaluator(points, values)
    for weights in ([1.0, 0.0, -1.0], [0.3, 2.0, 0.7]):
        for threshold in (-1.5, 0.0, 0.9):
            assert naive.count_above(weights, threshold) == fast.count_above(weights, threshold)
            assert np.allclose(naive.sum_above(weights, threshold), fast.sum_above(weights, threshold))
            assert naive.count_below(weights, threshold) == fast.count_below(weights, threshold)
            assert np.allclose(naive.sum_below(weights, threshold), fast.sum_below(weights, threshold))


def test_inequality_evaluator_validation():
    with pytest.raises(ValueError):
        NaiveInequalityEvaluator(np.zeros(3))
    with pytest.raises(ValueError):
        NaiveInequalityEvaluator(np.zeros((3, 2)), np.zeros((2, 2)))
    evaluator = SortedInequalityEvaluator(np.array([[1.0], [2.0], [3.0]]))
    assert evaluator.count_above([1.0], 2.0) == 1
    assert evaluator.count_above([1.0], 2.0, strict=False) == 2
