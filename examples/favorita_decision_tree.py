"""Decision trees over the Favorita join, trained from aggregate batches.

A regression tree predicts unit sales; every node split is chosen from the
filtered variance aggregates of Section 2.2, evaluated by the engine directly
over the base relations — for the nodes whose numbers cannot be derived: a
node reads its statistics off its parent's split, and of two siblings that
may split one is evaluated and the other follows by subtraction.  A
classification tree predicting the holiday type is trained from grouped
counts (Gini index) by the same rule.

Run with:  python examples/favorita_decision_tree.py
"""

from collections import Counter

from repro.datasets import FAVORITA_FEATURES, favorita_database, favorita_query
from repro.engine import MaterializedJoinEngine
from repro.ml import DecisionTreeClassifier, DecisionTreeRegressor


def describe_batches(learner) -> str:
    """How many batches reached the engine, and where each node's numbers came from."""
    sources = Counter(node.source for node in learner.root.walk())
    return (
        f"{learner.batches_evaluated} aggregate batches "
        f"({learner.aggregates_evaluated} aggregates) were evaluated for "
        f"{sum(sources.values())} nodes: {sources['evaluated']} evaluated, "
        f"{sources['derived']} derived as parent minus sibling, "
        f"{sources['parent-split']} read off their parent's split; "
        "the join was never materialised."
    )


def main() -> None:
    database = favorita_database(sales_rows=2500, stores=12, items=50, dates=40)
    query = favorita_query()
    target = FAVORITA_FEATURES["target"]

    print("== regression tree for unit_sales ==")
    regressor = DecisionTreeRegressor(
        target=target,
        continuous=["onpromotion", "transactions", "oilprice", "perishable"],
        categorical=["family", "city", "holiday_type"],
        max_depth=3,
        min_samples=40,
    )
    root = regressor.fit(database, query)
    print(root.render())
    print("\n" + describe_batches(regressor))

    joined = MaterializedJoinEngine(database, query).materialize()
    rows = [dict(zip(joined.schema.names, row)) for row in joined.sample_rows(300, seed=3)]
    residuals = [
        (regressor.predict_row(row) - float(row[target])) ** 2 for row in rows
    ]
    print(f"regression tree RMSE on 300 sampled tuples: {(sum(residuals) / len(residuals)) ** 0.5:.3f}")

    print("\n== classification tree for the holiday type ==")
    classifier = DecisionTreeClassifier(
        target="holiday_type",
        continuous=["transactions", "oilprice", "unit_sales"],
        categorical=["city", "family"],
        max_depth=2,
        min_samples=50,
    )
    classifier.fit(database, query)
    print(classifier.root.render())
    print("\n" + describe_batches(classifier))
    correct = sum(
        1 for row in rows if classifier.predict_row(row) == row["holiday_type"]
    )
    print(f"classification accuracy on the sample: {correct / len(rows):.2%}")


if __name__ == "__main__":
    main()
