"""Synthetic Retailer dataset.

Mirrors the schema of the paper's retailer dataset (Figure 3, left):
``Inventory`` is the fact relation and joins ``Stores`` (on location),
``Items`` (on sku), ``Weather`` (on location and date) and ``Demographics``
(through the store's zipcode).  The learning task predicts ``inventoryunits``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.data.attribute import Schema
from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.datasets._synthetic import SyntheticGenerator

#: Feature roles used by the learning examples and benchmarks.
RETAILER_FEATURES: Dict[str, object] = {
    "target": "inventoryunits",
    "continuous": [
        "inventoryunits",
        "prize",
        "maxtemp",
        "mintemp",
        "rain",
        "population",
        "medianage",
        "avghhi",
        "sell_area_sq_ft",
        "distance_comp",
    ],
    "categorical": ["category", "zip", "snow"],
}


def retailer_database(
    inventory_rows: int = 4000,
    stores: int = 20,
    items: int = 80,
    dates: int = 60,
    seed: int = 7,
) -> Database:
    """Generate a retailer database with the paper's join structure."""
    generator = SyntheticGenerator(seed)

    store_rows: List[Tuple] = []
    zips = [f"z{index:03d}" for index in range(max(stores // 2, 1))]
    for locn in range(stores):
        zipcode = zips[locn % len(zips)]
        store_rows.append(
            (
                locn,
                zipcode,
                generator.value(5_000, 50_000),        # total area
                generator.value(2_000, 30_000),        # selling area
                generator.value(20_000, 120_000),      # average household income
                generator.value(0.1, 25.0),            # distance to competitor
            )
        )
    stores_relation = Relation(
        "Stores",
        Schema.from_names(
            ["locn", "zip", "tot_area_sq_ft", "sell_area_sq_ft", "avghhi", "distance_comp"],
            categorical_names=["locn", "zip"],
        ),
        rows=store_rows,
    )

    demographics_rows = [
        (
            zipcode,
            generator.integer(5_000, 200_000),   # population
            generator.value(20.0, 55.0),         # median age
            generator.integer(1_000, 80_000),    # occupied house units
            generator.integer(1_500, 90_000),    # house units
        )
        for zipcode in zips
    ]
    demographics_relation = Relation(
        "Demographics",
        Schema.from_names(
            ["zip", "population", "medianage", "occupiedhouseunits", "houseunits"],
            categorical_names=["zip"],
        ),
        rows=demographics_rows,
    )

    categories = ["grocery", "electronics", "apparel", "garden", "toys"]
    item_rows = [
        (
            ksn,
            generator.choice(categories),
            generator.category("subcat", 12),
            generator.value(0.5, 300.0),        # prize (list price)
        )
        for ksn in range(items)
    ]
    items_relation = Relation(
        "Items",
        Schema.from_names(
            ["ksn", "category", "subcategory", "prize"],
            categorical_names=["ksn", "category", "subcategory"],
        ),
        rows=item_rows,
    )

    weather_rows = []
    for locn in range(stores):
        for dateid in range(dates):
            weather_rows.append(
                (
                    locn,
                    dateid,
                    generator.value(-5.0, 35.0),    # max temperature
                    generator.value(-15.0, 20.0),   # min temperature
                    generator.value(0.0, 30.0),     # rain
                    generator.choice(["none", "light", "heavy"]),  # snow
                )
            )
    weather_relation = Relation(
        "Weather",
        Schema.from_names(
            ["locn", "dateid", "maxtemp", "mintemp", "rain", "snow"],
            categorical_names=["locn", "dateid", "snow"],
        ),
        rows=weather_rows,
    )

    inventory_rows_list = []
    for _ in range(inventory_rows):
        locn = generator.integer(0, stores - 1)
        dateid = generator.integer(0, dates - 1)
        ksn = generator.integer(0, items - 1)
        prize = item_rows[ksn][3]
        base_units = 40.0 + 0.4 * prize + 2.5 * weather_rows[locn * dates + dateid][2]
        units = max(0.0, generator.gaussian(base_units, 12.0))
        inventory_rows_list.append((locn, dateid, ksn, units))
    inventory_relation = Relation(
        "Inventory",
        Schema.from_names(
            ["locn", "dateid", "ksn", "inventoryunits"],
            categorical_names=["locn", "dateid", "ksn"],
        ),
        rows=inventory_rows_list,
    )

    return Database(
        [
            inventory_relation,
            stores_relation,
            items_relation,
            weather_relation,
            demographics_relation,
        ],
        name="retailer",
    )


def retailer_query() -> ConjunctiveQuery:
    """The key–fkey feature-extraction join of Figure 3."""
    return ConjunctiveQuery(
        ["Inventory", "Stores", "Items", "Weather", "Demographics"],
        name="retailer_join",
    )
