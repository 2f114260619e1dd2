"""Synthetic Yelp dataset.

Reviews join businesses, users and per-business check-in counts; the learning
task predicts the review star rating.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.data.attribute import Schema
from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.datasets._synthetic import SyntheticGenerator

YELP_FEATURES: Dict[str, object] = {
    "target": "review_stars",
    "continuous": [
        "review_stars",
        "useful",
        "business_stars",
        "business_review_count",
        "user_average_stars",
        "user_review_count",
        "fans",
        "checkins",
    ],
    "categorical": ["city", "business_category", "is_open"],
}


def yelp_database(
    review_rows: int = 4000,
    businesses: int = 100,
    users: int = 150,
    seed: int = 13,
) -> Database:
    """Generate a Yelp-shaped database."""
    generator = SyntheticGenerator(seed)

    cities = ["phoenix", "las_vegas", "toronto", "montreal", "pittsburgh"]
    categories = ["restaurant", "bar", "cafe", "salon", "gym", "hotel"]
    business_rows = [
        (
            business,
            generator.choice(cities),
            generator.choice(categories),
            generator.value(1.0, 5.0, 1),       # average business stars
            generator.integer(5, 2_000),        # review count
            generator.integer(0, 1),            # is_open
        )
        for business in range(businesses)
    ]
    business_relation = Relation(
        "Business",
        Schema.from_names(
            [
                "business",
                "city",
                "business_category",
                "business_stars",
                "business_review_count",
                "is_open",
            ],
            categorical_names=["business", "city", "business_category", "is_open"],
        ),
        rows=business_rows,
    )

    user_rows = [
        (
            user,
            generator.value(1.0, 5.0, 2),       # user's average stars
            generator.integer(1, 900),          # user review count
            generator.integer(0, 400),          # fans
        )
        for user in range(users)
    ]
    user_relation = Relation(
        "Users",
        Schema.from_names(
            ["user", "user_average_stars", "user_review_count", "fans"],
            categorical_names=["user"],
        ),
        rows=user_rows,
    )

    checkin_rows = [
        (business, generator.integer(0, 5_000)) for business in range(businesses)
    ]
    checkin_relation = Relation(
        "Checkins",
        Schema.from_names(["business", "checkins"], categorical_names=["business"]),
        rows=checkin_rows,
    )

    review_rows_list: List[Tuple] = []
    for _ in range(review_rows):
        business = generator.integer(0, businesses - 1)
        user = generator.integer(0, users - 1)
        expected = 0.6 * business_rows[business][3] + 0.4 * user_rows[user][1]
        stars = min(5.0, max(1.0, generator.gaussian(expected, 0.8)))
        review_rows_list.append(
            (user, business, round(stars, 1), generator.integer(0, 50))
        )
    review_relation = Relation(
        "Reviews",
        Schema.from_names(
            ["user", "business", "review_stars", "useful"],
            categorical_names=["user", "business"],
        ),
        rows=review_rows_list,
    )

    return Database(
        [review_relation, business_relation, user_relation, checkin_relation],
        name="yelp",
    )


def yelp_query() -> ConjunctiveQuery:
    return ConjunctiveQuery(["Reviews", "Business", "Users", "Checkins"], name="yelp_join")
