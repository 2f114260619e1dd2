"""Synthetic TPC-DS-like dataset (store-sales snowflake).

``StoreSales`` joins ``DateDim``, ``Item``, ``Customer``, ``Store`` and
``HouseholdDemographics``; the learning task predicts ``net_profit``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.data.attribute import Schema
from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.datasets._synthetic import SyntheticGenerator

TPCDS_FEATURES: Dict[str, object] = {
    "target": "net_profit",
    "continuous": [
        "net_profit",
        "quantity",
        "sales_price",
        "list_price",
        "item_current_price",
        "dep_count",
        "vehicle_count",
        "store_floor_space",
        "year",
    ],
    "categorical": ["item_category", "store_state", "credit_rating", "month"],
}


def tpcds_database(
    sales_rows: int = 4000,
    items: int = 90,
    customers: int = 200,
    stores: int = 12,
    dates: int = 50,
    seed: int = 17,
) -> Database:
    """Generate a TPC-DS-shaped store-sales snowflake."""
    generator = SyntheticGenerator(seed)

    date_rows = [
        (date_sk, 1998 + date_sk // 365, 1 + (date_sk // 30) % 12, date_sk % 7)
        for date_sk in range(dates)
    ]
    date_relation = Relation(
        "DateDim",
        Schema.from_names(
            ["date_sk", "year", "month", "day_of_week"],
            categorical_names=["date_sk", "month", "day_of_week"],
        ),
        rows=date_rows,
    )

    categories = ["books", "electronics", "home", "jewelry", "music", "shoes", "sports"]
    item_rows = [
        (item_sk, generator.choice(categories), generator.value(1.0, 400.0))
        for item_sk in range(items)
    ]
    item_relation = Relation(
        "Item",
        Schema.from_names(
            ["item_sk", "item_category", "item_current_price"],
            categorical_names=["item_sk", "item_category"],
        ),
        rows=item_rows,
    )

    ratings = ["low", "good", "high_risk", "unknown"]
    customer_rows = [
        (
            customer_sk,
            generator.choice(ratings),
            generator.integer(0, 6),     # dependants
            generator.integer(0, 4),     # vehicles
        )
        for customer_sk in range(customers)
    ]
    customer_relation = Relation(
        "Customer",
        Schema.from_names(
            ["customer_sk", "credit_rating", "dep_count", "vehicle_count"],
            categorical_names=["customer_sk", "credit_rating"],
        ),
        rows=customer_rows,
    )

    states = ["TN", "GA", "OH", "TX", "CA"]
    store_rows = [
        (store_sk, generator.choice(states), generator.integer(5_000, 9_000_000))
        for store_sk in range(stores)
    ]
    store_relation = Relation(
        "Store",
        Schema.from_names(
            ["store_sk", "store_state", "store_floor_space"],
            categorical_names=["store_sk", "store_state"],
        ),
        rows=store_rows,
    )

    sales: List[Tuple] = []
    for _ in range(sales_rows):
        date_sk = generator.integer(0, dates - 1)
        item_sk = generator.integer(0, items - 1)
        customer_sk = generator.integer(0, customers - 1)
        store_sk = generator.integer(0, stores - 1)
        quantity = generator.integer(1, 20)
        list_price = item_rows[item_sk][2]
        sales_price = round(list_price * generator.value(0.4, 1.0), 2)
        net_profit = round(quantity * (sales_price - 0.6 * list_price), 2)
        sales.append(
            (
                date_sk,
                item_sk,
                customer_sk,
                store_sk,
                quantity,
                list_price,
                sales_price,
                net_profit,
            )
        )
    sales_relation = Relation(
        "StoreSales",
        Schema.from_names(
            [
                "date_sk",
                "item_sk",
                "customer_sk",
                "store_sk",
                "quantity",
                "list_price",
                "sales_price",
                "net_profit",
            ],
            categorical_names=["date_sk", "item_sk", "customer_sk", "store_sk"],
        ),
        rows=sales,
    )

    return Database(
        [sales_relation, date_relation, item_relation, customer_relation, store_relation],
        name="tpcds",
    )


def tpcds_query() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        ["StoreSales", "DateDim", "Item", "Customer", "Store"], name="tpcds_join"
    )
