"""Figure 3 (left): dataset characteristics — relation sizes vs the join.

Regenerates the table of per-relation cardinalities/arities and the size of
the materialised join, plus the factorised-representation size the footnote of
Section 1.2 mentions (factorised joins can be much smaller than the flat
result, unlike the 10x larger CSV of the materialised join).
"""

from __future__ import annotations

from repro.engine import MaterializedJoinEngine
from repro.factorized import factorize_join


def _characteristics(database, query):
    joined = MaterializedJoinEngine(database, query).materialize()
    factorization = factorize_join(query, database)
    rows = [
        (relation.name, len(relation), relation.arity)
        for relation in database
    ]
    rows.append(("Join", len(joined), joined.arity))
    return {
        "relations": rows,
        "join_tuples": len(joined),
        "join_values": len(joined) * joined.arity,
        "factorized_values": factorization.size(),
        "compression": factorization.compression_ratio(),
        "input_tuples": sum(len(relation) for relation in database),
    }


def test_figure3_dataset_characteristics(benchmark, retailer_bench):
    database, query, _spec = retailer_bench
    stats = benchmark.pedantic(_characteristics, args=(database, query), rounds=1, iterations=1)

    print("\n=== Figure 3 (left): retailer dataset characteristics ===")
    print(f"{'relation':14s} {'tuples':>10s} {'attrs':>6s}")
    for name, tuples, arity in stats["relations"]:
        print(f"{name:14s} {tuples:10d} {arity:6d}")
    blow_up = stats["join_values"] / max(stats["input_tuples"], 1)
    print(f"\njoin blow-up: {stats['join_tuples']} tuples x {stats['relations'][-1][2]} attrs "
          f"= {stats['join_values']} values ({blow_up:.1f}x the input tuple count)")
    print(f"factorised join: {stats['factorized_values']} values "
          f"({stats['compression']:.1f}x smaller than the flat join)")

    assert stats["join_tuples"] > 0
    assert stats["factorized_values"] < stats["join_values"]
