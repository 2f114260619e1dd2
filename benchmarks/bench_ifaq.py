"""Section 5.3: operation counts of the IFAQ compilation stages.

Regenerates the walk-through's bottom line: successive rewrites (static
memoisation, loop-invariant code motion, schema specialisation, aggregate
pushdown) turn a per-iteration scan over the join into a one-off aggregate
computation.  The final stage is stage 3 lowered by ``lower_to_batch``: M and
C are one aggregate batch on the LMFAO engine, so it no longer needs the join
dictionary and interprets only the convergence loop.  A second row lowers the
same program at 100k ``S`` rows and holds M and C to ``compute_sigma``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.data import Database, Relation, Schema
from repro.ifaq import compile_and_run, lower_to_batch
from repro.ifaq.gradient_program import specialised_program
from repro.ml import compute_sigma
from repro.query import ConjunctiveQuery


def _ifaq_database(sales: int) -> Database:
    rng = random.Random(3)
    sales_rows = []
    for _ in range(sales):
        item = rng.randrange(30)
        store = rng.randrange(10)
        units = round(4.0 + 0.6 * item - 0.2 * store + rng.gauss(0, 1), 3)
        sales_rows.append((item, store, units))
    database = Database(
        [
            Relation("S", Schema.from_names(["i", "s", "u"]), rows=sales_rows),
            Relation("R", Schema.from_names(["s", "c"]),
                     rows=[(s, round(2 + 0.3 * s, 2)) for s in range(10)]),
            Relation("I", Schema.from_names(["i", "p"]),
                     rows=[(i, round(1 + 0.15 * i, 2)) for i in range(30)]),
        ],
        name="ifaq_bench",
    )
    return database


@pytest.fixture(scope="module")
def ifaq_database():
    return _ifaq_database(400), ConjunctiveQuery(["S", "R", "I"], name="Q")


def test_ifaq_compilation_stages(benchmark, ifaq_database):
    database, query = ifaq_database
    report = benchmark.pedantic(
        compile_and_run,
        args=(database, query),
        kwargs=dict(iterations=20, learning_rate=1e-6),
        rounds=1,
        iterations=1,
    )

    print("\n=== Section 5.3: IFAQ stage operation counts ===")
    print(f"{'stage':16s} {'arithmetic':>12s} {'dyn lookups':>12s} {'total':>12s} {'needs join':>12s}")
    for outcome in report.stages:
        print(
            f"{outcome.name:16s} {outcome.operations['arithmetic']:12d} "
            f"{outcome.operations['dynamic_lookups']:12d} {outcome.operations['total']:12d} "
            f"{'yes' if outcome.needs_join else 'no':>12s}"
        )

    assert report.parameters_agree(1e-6)
    by_name = {outcome.name: outcome for outcome in report.stages}
    # Code motion is the big win; specialisation trades dynamic lookups for
    # static accesses; pushdown removes the join dependency entirely.
    assert by_name["2_hoisted"].operations["total"] < by_name["0_naive"].operations["total"] / 3
    assert (
        by_name["3_specialised"].operations["dynamic_lookups"]
        < by_name["2_hoisted"].operations["dynamic_lookups"]
    )
    assert not by_name["4_pushed_down"].needs_join
    # Lowering leaves the interpreter only the convergence loop.
    assert (
        by_name["4_pushed_down"].operations["total"]
        < by_name["3_specialised"].operations["total"]
    )


def test_ifaq_lowered_at_scale(benchmark):
    """The lowered program at 100k S rows: M and C are compute_sigma's entries."""
    database = _ifaq_database(100_000)
    query = ConjunctiveQuery(["S", "R", "I"], name="Q")
    started = time.perf_counter()
    lowered = benchmark.pedantic(
        lower_to_batch,
        args=(specialised_program(20, 1e-6), database, query),
        rounds=1,
        iterations=1,
    )
    seconds = time.perf_counter() - started
    covariance, correlation = lowered.bound.value, lowered.body.bound.value
    print(f"\n=== Section 5.3: stage 4 lowered at 100k S rows: {seconds * 1e3:.1f} ms ===")

    sigma = compute_sigma(database, query, ["i", "s", "u", "c", "p"])
    for left in ("i", "s", "c", "p"):
        assert correlation[left] == pytest.approx(sigma.entry(left, "u"), rel=1e-12)
        for right in ("i", "s", "c", "p"):
            assert covariance[left][right] == pytest.approx(sigma.entry(left, right), rel=1e-12)
