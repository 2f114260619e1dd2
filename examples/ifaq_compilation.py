"""Section 5.3: multi-stage compilation of a gradient-descent program.

The same linear-regression program over the join S(i,s,u) ⋈ R(s,c) ⋈ I(i,p)
is run at five compilation stages — naive, memoised, after loop-invariant code
motion, after schema specialisation, and lowered — and the interpreter's
operation counters show what every rewrite buys.  The last stage is derived
from the fourth by ``lower_to_batch``: M and C become one aggregate batch the
LMFAO engine evaluates over the base relations, and the interpreter runs only
the convergence loop.

Run with:  python examples/ifaq_compilation.py
"""

import random

from repro.data import Database, Relation, Schema
from repro.ifaq import compile_and_run
from repro.query import ConjunctiveQuery


def build_example_database(sales: int = 300, stores: int = 8, items: int = 25) -> Database:
    rng = random.Random(42)
    s_rows = []
    for _ in range(sales):
        item = rng.randrange(items)
        store = rng.randrange(stores)
        units = round(5.0 + 0.8 * item - 0.5 * store + rng.gauss(0, 1), 3)
        s_rows.append((item, store, units))
    sales_relation = Relation("S", Schema.from_names(["i", "s", "u"]), rows=s_rows)
    stores_relation = Relation(
        "R", Schema.from_names(["s", "c"]), rows=[(s, round(3 + 0.4 * s, 2)) for s in range(stores)]
    )
    items_relation = Relation(
        "I", Schema.from_names(["i", "p"]), rows=[(i, round(1 + 0.25 * i, 2)) for i in range(items)]
    )
    return Database([sales_relation, stores_relation, items_relation], name="ifaq_example")


def main() -> None:
    database = build_example_database()
    query = ConjunctiveQuery(["S", "R", "I"], name="Q")
    report = compile_and_run(database, query, iterations=20, learning_rate=2e-6)

    sizes = {relation.name: len(relation) for relation in database}
    print(f"join size: {report.join_size} tuples; base relations: {sizes}")
    print(f"all stages compute the same parameters: {report.parameters_agree()}\n")

    print(f"{'stage':16s} {'arithmetic':>12s} {'dyn lookups':>12s} {'total ops':>12s} {'needs join?':>12s}")
    for outcome in report.stages:
        print(
            f"{outcome.name:16s} {outcome.operations['arithmetic']:12d} "
            f"{outcome.operations['dynamic_lookups']:12d} {outcome.operations['total']:12d} "
            f"{'yes' if outcome.needs_join else 'no':>12s}"
        )

    final = report.stages[-1].parameters
    print("\nlearned parameters (identical at every stage):")
    for feature, value in final.items():
        print(f"  theta[{feature}] = {value:+.6f}")


if __name__ == "__main__":
    main()
