"""Synthetic Favorita dataset (Corporación Favorita grocery sales forecasting).

Same join shape as the public Kaggle dataset used by the paper: ``Sales`` is
the fact relation joining ``Items``, ``Stores``, ``Transactions``, ``Oil`` and
``Holidays``.  The learning task predicts ``unit_sales``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.data.attribute import Schema
from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.datasets._synthetic import SyntheticGenerator

FAVORITA_FEATURES: Dict[str, object] = {
    "target": "unit_sales",
    "continuous": ["unit_sales", "onpromotion", "transactions", "oilprice", "perishable"],
    "categorical": ["family", "city", "store_type", "holiday_type"],
}


def favorita_database(
    sales_rows: int = 4000,
    stores: int = 15,
    items: int = 60,
    dates: int = 45,
    seed: int = 11,
) -> Database:
    """Generate a Favorita-shaped database."""
    generator = SyntheticGenerator(seed)

    families = ["produce", "dairy", "beverages", "cleaning", "bread", "deli"]
    item_rows = [
        (item, generator.choice(families), generator.integer(0, 1))
        for item in range(items)
    ]
    items_relation = Relation(
        "FavItems",
        Schema.from_names(
            ["item", "family", "perishable"], categorical_names=["item", "family"]
        ),
        rows=item_rows,
    )

    cities = ["quito", "guayaquil", "cuenca", "ambato"]
    store_rows = [
        (store, generator.choice(cities), generator.choice(["A", "B", "C", "D"]),
         generator.integer(1, 17))
        for store in range(stores)
    ]
    stores_relation = Relation(
        "FavStores",
        Schema.from_names(
            ["store", "city", "store_type", "cluster"],
            categorical_names=["store", "city", "store_type", "cluster"],
        ),
        rows=store_rows,
    )

    transactions_rows = []
    for store in range(stores):
        for date in range(dates):
            transactions_rows.append((date, store, generator.integer(200, 4_000)))
    transactions_relation = Relation(
        "Transactions",
        Schema.from_names(
            ["date", "store", "transactions"], categorical_names=["date", "store"]
        ),
        rows=transactions_rows,
    )

    oil_rows = [(date, generator.value(25.0, 110.0)) for date in range(dates)]
    oil_relation = Relation(
        "Oil",
        Schema.from_names(["date", "oilprice"], categorical_names=["date"]),
        rows=oil_rows,
    )

    holiday_rows = [
        (date, generator.choice(["none", "national", "regional", "local"]))
        for date in range(dates)
    ]
    holidays_relation = Relation(
        "Holidays",
        Schema.from_names(["date", "holiday_type"], categorical_names=["date", "holiday_type"]),
        rows=holiday_rows,
    )

    sales: List[Tuple] = []
    for _ in range(sales_rows):
        date = generator.integer(0, dates - 1)
        store = generator.integer(0, stores - 1)
        item = generator.integer(0, items - 1)
        onpromotion = generator.integer(0, 1)
        base = 8.0 + 6.0 * onpromotion + 0.002 * transactions_rows[store * dates + date][2]
        units = max(0.0, generator.gaussian(base, 3.0))
        sales.append((date, store, item, units, onpromotion))
    sales_relation = Relation(
        "Sales",
        Schema.from_names(
            ["date", "store", "item", "unit_sales", "onpromotion"],
            categorical_names=["date", "store", "item"],
        ),
        rows=sales,
    )

    return Database(
        [
            sales_relation,
            items_relation,
            stores_relation,
            transactions_relation,
            oil_relation,
            holidays_relation,
        ],
        name="favorita",
    )


def favorita_query() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        ["Sales", "FavItems", "FavStores", "Transactions", "Oil", "Holidays"],
        name="favorita_join",
    )
