"""A small model zoo over the Yelp join: everything from one pass over the data.

Demonstrates the breadth of models the aggregate-based approach covers:
ridge regression and PCA from the sigma matrix, model selection over feature
subsets, a Chow-Liu tree from mutual-information aggregates, relational
k-means over a grid coreset, a linear SVM trained with additive-inequality
aggregates, and a factorisation machine trained by SGD over the join.

Run with:  python examples/yelp_model_zoo.py
"""

import numpy as np

from repro.data.relation import relation_from_rows
from repro.datasets import YELP_FEATURES, yelp_database, yelp_query
from repro.ml import (
    ChowLiuTree,
    FactorizationMachine,
    LinearSVM,
    ModelSelector,
    PrincipalComponentAnalysis,
    RelationalKMeans,
    RidgeRegression,
    compute_sigma,
)
from repro.query import ConjunctiveQuery


def main() -> None:
    database = yelp_database(review_rows=2500, businesses=80, users=120)
    query = yelp_query()
    target = YELP_FEATURES["target"]
    continuous = list(YELP_FEATURES["continuous"])
    categorical = list(YELP_FEATURES["categorical"])

    print("== one aggregate batch, many models ==")
    sigma = compute_sigma(database, query, continuous, categorical)
    print(f"sigma matrix: {sigma.dimension}x{sigma.dimension}, from {sigma.count():.0f} join tuples")

    print("\n-- ridge regression for review stars --")
    model = RidgeRegression(target, regularization=1e-3).fit_closed_form(sigma)
    top = sorted(model.coefficients().items(), key=lambda item: -abs(item[1]))[:5]
    for name, value in top:
        print(f"  {name:35s} {value:+.4f}")

    print("\n-- model selection over feature subsets (no further data passes) --")
    selector = ModelSelector(sigma, target)
    selector.search(["business_stars", "user_average_stars", "useful", "fans"], max_subset_size=2)
    best = selector.best()
    print(f"  best subset: {best.features}, training MSE {best.training_mse:.4f} "
          f"({len(selector.candidates)} candidates tried)")

    print("\n-- PCA of the continuous features --")
    pca = PrincipalComponentAnalysis(
        ["business_stars", "business_review_count", "user_average_stars", "user_review_count",
         "fans", "checkins"],
        components=3,
    )
    result = pca.fit(sigma)
    print(f"  explained variance ratio: {np.round(result.explained_variance_ratio(), 3)}")

    print("\n-- Chow-Liu tree over the categorical features --")
    tree = ChowLiuTree.fit(database, query, categorical)
    for left, right, weight in tree.edges:
        print(f"  {left} -- {right} (MI={weight:.4f})")

    print("\n-- relational k-means over a grid coreset --")
    clustering = RelationalKMeans(
        ["business_stars", "user_average_stars", "review_stars"], clusters=3, grid_size=4
    )
    outcome = clustering.fit(database, query)
    print(f"  coreset size: {clustering.coreset_size()} cells "
          f"(vs {sigma.count():.0f} join tuples); inertia {outcome.inertia:.1f}")
    for centroid in outcome.centroids:
        print(f"  centroid: {np.round(centroid, 2)}")

    print("\n-- linear SVM: is this a 4+ star review? --")
    # The label is one more relation of the feature-extraction join.
    stars = sorted(set(database.relation("Reviews").column("review_stars")))
    labelled = database.copy()
    labelled.add_relation(relation_from_rows(
        "Ratings", ["review_stars", "high_rating"],
        [(value, 1.0 if value >= 4.0 else -1.0) for value in stars],
    ))
    labelled_query = ConjunctiveQuery(query.relation_names + ("Ratings",), name="labelled")
    svm = LinearSVM(
        target="high_rating",
        features=["business_stars", "user_average_stars", "useful"],
        iterations=150,
    )
    svm.fit(labelled, labelled_query)
    joined = labelled_query.evaluate(labelled)
    rows = [dict(zip(joined.schema.names, row)) for row in joined.expanded_rows()]
    accuracy = svm.accuracy(rows, [row["high_rating"] for row in rows])
    print(f"  training accuracy: {accuracy:.2%} over {len(rows)} join tuples")

    print("\n-- factorisation machine for review stars (SGD over the join) --")
    machine = FactorizationMachine(
        target, ["business_stars", "user_average_stars"], rank=2, learning_rate=1e-3, epochs=3
    )
    report = machine.fit(database, query)
    print(f"  mean squared loss per epoch: {np.round(report.losses, 3)}")


if __name__ == "__main__":
    main()
