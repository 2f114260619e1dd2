"""Figure 6: ablation of the engine optimisations for the covariance batch.

Starting from the AC/DC-like baseline (aggregate pushdown only), the
optimisations are added in the paper's order — specialisation, then sharing,
then multi-root, then parallelisation — and the speedup relative to the
baseline is reported for every dataset.  The shape to check: each added
optimisation does not slow the engine down, and specialisation + sharing give
a multiplicative win.  (Multi-root moves a group of aggregates only where the
plan estimate says the batch gets cheaper, so on a batch it leaves alone the
step costs the comparison and nothing else.  Parallelisation uses threads and
is GIL-bound in pure Python: on ``train_models``' own work it measured x0.96
against one thread (measured where the engine's pool was deleted, in
docs/archive/benchmarks-history.md), which is why the engine has no pool and
the step is printed here without a bound on the clock.)

The engine itself has no switches for the steps it ablates: the staircase is
assembled here.  The two scan-based steps drive the planner bottom-up with a
per-node scan — the interpreted one below, and the tuple scan the engine's
views are tested against (``repro.engine.naive.scan_node_views``) — and the
no-sharing steps evaluate one aggregate at a
time, each on a fresh engine, so nothing is shared across aggregates.  Every
step up to ``+sharing`` pins the engine's cost-picked root; ``+multi-root``
stops forcing it, which hands the root of each aggregate to the plan; and
``+parallelisation`` takes that plan and runs the directions of each level
side by side on a thread pool of its own (``evaluate_level_parallel``).
"""

from __future__ import annotations

import gc
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.aggregates import AggregateBatch, covariance_batch
from repro.engine import BatchResult, LMFAOEngine, plan_batch
from repro.engine.executor import EMPTY_GROUP, compute_node_views, restrict_signature
from repro.engine.naive import scan_node_views
from repro.query import build_join_tree


def interpreted_node_views(node, relation, signatures, designation, child_views):
    """Row-dict based scan: the unspecialised (interpretation-heavy) code path.

    This models an engine without workload compilation: every row is converted
    to a dictionary and every attribute access resolves names at runtime.
    """
    names = relation.schema.names
    here = node.relation_name
    conn_attributes = sorted(node.connection_attributes())
    results = {}
    for signature in signatures:
        children = [
            (
                sorted(child.attributes & node.attributes),
                child_views[
                    (child.relation_name, here, restrict_signature(signature, child, designation))
                ],
            )
            for child in node.children
        ]
        result = results[signature] = {}
        for row, multiplicity in relation.items():
            row_dict = dict(zip(names, row))
            if not all(
                condition.test(row_dict[condition.attribute])
                for condition in signature.filters
                if designation[condition.attribute] == here
            ):
                continue
            factor = float(multiplicity)
            for attribute, exponent in signature.product:
                if designation[attribute] == here:
                    factor *= float(row_dict[attribute]) ** exponent
            local_group = tuple(
                (attribute, row_dict[attribute])
                for attribute in signature.group_by
                if designation[attribute] == here
            )
            partial = [(local_group, factor)]
            for child_attributes, child_view in children:
                entries = child_view.get(
                    tuple(row_dict[attribute] for attribute in child_attributes)
                )
                if not entries:
                    partial = []
                    break
                partial = [
                    (group_pairs + child_pairs, value * child_value)
                    for group_pairs, value in partial
                    for child_pairs, child_value in entries.items()
                ]
            if not partial:
                continue
            conn_key = tuple(row_dict[attribute] for attribute in conn_attributes)
            groups = result.setdefault(conn_key, {})
            for group_pairs, value in partial:
                key = tuple(sorted(group_pairs)) if group_pairs else EMPTY_GROUP
                groups[key] = groups.get(key, 0.0) + value
    return results


def _root_values(plan, views, read):
    """Each aggregate's value, from ``read(root view)``: its entries and attributes."""
    return {
        decomposition.aggregate.name: LMFAOEngine._extract(
            decomposition.aggregate,
            *read(views[(decomposition.root, None, decomposition.root_signature)]),
        )
        for decomposition in plan.decompositions
    }


def _scanned_entries(view):
    return view.get((), {}).items(), None


def _columnar_entries(view):
    return view.group_items(), view.group_attrs


def evaluate_by_scan(database, join_tree, batch, node_views):
    """Evaluate ``batch`` bottom-up, ``node_views`` computing each node's views."""
    plan = plan_batch(batch, join_tree)
    views = {}
    for node in join_tree.post_order():
        direction = (node.relation_name, node.parent.relation_name if node.parent else None)
        computed = node_views(
            node, database.relation(direction[0]), plan.views[direction], plan.designation, views
        )
        for signature, view in computed.items():
            views[direction + (signature,)] = view
    return _root_values(plan, views, _scanned_entries)


def evaluate_level_parallel(engine, batch, pool):
    """Evaluate ``engine``'s plan of ``batch``, each level's directions on ``pool``.

    Directions of one level read only the views of the levels below, so they
    are independent; each gets its own stats dictionary, summed afterwards.
    """
    plan = engine.plan(batch)
    views, stats = {}, {}
    for directions in engine._levels(plan.views):
        submitted = []
        for direction in directions:
            node_stats = {}
            future = pool.submit(
                compute_node_views,
                engine.join_tree.oriented(*direction),
                engine.database.relation(direction[0]),
                plan.views[direction],
                plan.designation,
                views,
                stats=node_stats,
            )
            submitted.append((direction, future, node_stats))
        for direction, future, node_stats in submitted:
            for signature, view in future.result().items():
                views[direction + (signature,)] = view
            for name, count in node_stats.items():
                stats[name] = stats.get(name, 0) + count
    return BatchResult(
        batch, _root_values(plan, views, _columnar_entries), plan.summary(), executor_stats=stats
    )


def _one_at_a_time(batch):
    return [AggregateBatch(aggregate.name, [aggregate]) for aggregate in batch]


def _scan_step(node_views):
    def run(database, query, root, batch):
        join_tree = build_join_tree(query.hypergraph(database), root=root)
        for single in _one_at_a_time(batch):
            evaluate_by_scan(database, join_tree, single, node_views)

    return run


def _engine_step(share, multi_root=False):
    def run(database, query, root, batch):
        return [
            LMFAOEngine(database, query, None if multi_root else root).evaluate(part)
            for part in ([batch] if share else _one_at_a_time(batch))
        ]

    return run


def _parallel_step(database, query, root, batch):
    # The pool lives as long as one evaluation, as the engine's own did.
    with ThreadPoolExecutor(max_workers=max(2, os.cpu_count() or 2)) as pool:
        return [evaluate_level_parallel(LMFAOEngine(database, query), batch, pool)]


#: The staircase: ``(name, run(database, query, root, batch))``.  Every step
#: evaluates over the same (cost-picked) root so only the technique varies.
CONFIGURATIONS = [
    ("baseline", _scan_step(interpreted_node_views)),
    ("+specialisation", _scan_step(scan_node_views)),
    ("+columnar", _engine_step(share=False)),
    ("+sharing", _engine_step(share=True)),
    ("+multi-root", _engine_step(share=True, multi_root=True)),
    ("+parallelisation", _parallel_step),
]

#: The two scan steps are per-row Python: timing them on large data only
#: measures the interpreter overhead the columnar path exists to avoid.
#: Sweeps skip them for databases above this many total base rows — the
#: bench scales stay under it, so the Figure-6 staircase is unchanged where
#: it is asserted on.
ORACLE_ROW_CAP = 5000

ORACLE_CONFIGURATIONS = ("baseline", "+specialisation")

#: The steps that take seconds at the bench scales.
SCAN_OR_UNSHARED = ORACLE_CONFIGURATIONS + ("+columnar",)


def oracle_capped(name: str, database) -> bool:
    """True when a scan configuration should be skipped for ``database``."""
    if name not in ORACLE_CONFIGURATIONS:
        return False
    return sum(len(relation) for relation in database) > ORACLE_ROW_CAP


def cost_root(database, query) -> str:
    """The root every step evaluates over: the engine's cost-based pick."""
    return LMFAOEngine(database, query).join_tree.root.relation_name


def _run_configuration(database, query, root, batch, run, rounds=2):
    # Best-of-n: single-round timings on a busy machine flake the staircase
    # assertions below.
    return _run_interleaved(database, query, root, batch, {"only": run}, rounds)["only"]


def _run_interleaved(database, query, root, batch, runs, rounds):
    """Best-of-``rounds`` per step of ``runs``, the steps taking turns.

    Steps a few milliseconds long that are compared at 5 % cannot be timed one
    after the other: whatever the machine does meanwhile lands on one of them.
    """
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(rounds):
        for name, run in runs.items():
            gc.collect()    # a round must not pay for the garbage of the one before
            started = time.perf_counter()
            run(database, query, root, batch)
            best[name] = min(best[name], time.perf_counter() - started)
    return best


@pytest.mark.parametrize("dataset_name", ["retailer", "favorita", "yelp", "tpcds"])
def test_figure6_optimisation_ablation(benchmark, bench_datasets, dataset_name):
    database, query, spec = bench_datasets[dataset_name]
    batch = covariance_batch(spec.continuous_features, spec.categorical_features)
    root = cost_root(database, query)

    def run_all():
        timings = {
            name: _run_configuration(database, query, root, batch, run)
            for name, run in CONFIGURATIONS
            if name in SCAN_OR_UNSHARED and not oracle_capped(name, database)
        }
        shared = {name: run for name, run in CONFIGURATIONS if name not in SCAN_OR_UNSHARED}
        timings.update(_run_interleaved(database, query, root, batch, shared, rounds=15))
        return timings

    timings = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # The bench scales sit under ORACLE_ROW_CAP, so the full staircase ran.
    baseline = timings["baseline"]

    print(f"\n=== Figure 6 ({dataset_name}): covariance batch, {len(batch)} aggregates ===")
    for name, _run in CONFIGURATIONS:
        if name not in timings:
            continue
        speedup = baseline / max(timings[name], 1e-9)
        print(f"  {name:18s} {timings[name]:8.3f}s   speedup {speedup:5.1f}x")

    # Specialisation, the columnar layout and sharing must each help; the
    # full configuration must beat the baseline clearly.
    assert timings["+specialisation"] < baseline
    assert timings["+columnar"] < timings["+specialisation"] * 1.05
    assert timings["+sharing"] < timings["+columnar"] * 1.05
    assert baseline / timings["+sharing"] > 1.5

    # Handing the roots to the plan changes where aggregates are evaluated,
    # never what they evaluate to, and never adds work: the plan moves a group
    # of aggregates only where that lowers its estimate, so it computes no
    # more views than the pinned root does.  That count is exact; the clock
    # is not.  Where the plan keeps the whole batch at one root — every
    # covariance batch at these scales — the step is ``+sharing`` plus picking
    # the default root at construction and weighing the alternatives in the
    # plan: 0.3-0.8 ms, 3-10 % of these 4-13 ms runs (measured where the plan
    # took over the root, in docs/archive/benchmarks-history.md), which the
    # 5 % the other steps are held to cannot accommodate.
    steps = dict(CONFIGURATIONS)
    (pinned,) = steps["+sharing"](database, query, root, batch)
    (planned,) = steps["+multi-root"](database, query, root, batch)
    assert set(planned.values) == set(pinned.values)
    for name, value in pinned.values.items():
        assert planned.values[name] == pytest.approx(value), name
    assert planned.executor_stats["views_columnar"] <= pinned.executor_stats["views_columnar"]
    assert planned.plan_summary["estimated_cost"] <= planned.plan_summary["single_root_cost"]
    assert timings["+multi-root"] < timings["+sharing"] * 1.15

    # Threads change who computes a direction, not what it computes: the bits
    # and the counts stay.  The clock is printed, not asserted.
    (threaded,) = steps["+parallelisation"](database, query, root, batch)
    assert threaded.values == planned.values
    assert threaded.executor_stats["views_columnar"] == planned.executor_stats["views_columnar"]


def test_scan_steps_agree_with_the_engine(bench_datasets):
    """The bench-local oracles compute what the engine computes."""
    database, query, spec = bench_datasets["retailer"]
    batch = covariance_batch(spec.continuous_features[:3], spec.categorical_features[:1])
    engine = LMFAOEngine(database, query)
    expected = engine.evaluate(batch).values
    for node_views in (interpreted_node_views, scan_node_views):
        values = evaluate_by_scan(database, engine.join_tree, batch, node_views)
        assert set(values) == set(expected)
        for name, value in expected.items():
            assert values[name] == pytest.approx(value)
