"""Tests for the end-to-end pipelines, the IFAQ compiler and the dataset generators."""

import numpy as np
import pytest

from repro.data import Database, Relation, Schema
from repro.datasets import DATASETS, load_dataset, orders_database, orders_query
from repro.ifaq import (
    BinOp,
    Const,
    DictOver,
    IterateLoop,
    Let,
    Lookup,
    MakeRecord,
    OperationCounter,
    Record,
    SumOver,
    Var,
    compile_and_run,
    evaluate,
    hoist_invariant_lets,
    join_as_dictionary,
    lower_to_batch,
)
from repro.ifaq.gradient_program import specialised_program
from repro.ifaq.transforms import specialize_field_access
from repro.pipelines import StructureAgnosticPipeline, StructureAwarePipeline
from repro.query import ConjunctiveQuery, is_acyclic


# -- pipelines ------------------------------------------------------------------------------------


def test_pipelines_produce_comparable_models(small_retailer, small_retailer_query):
    continuous = ["inventoryunits", "prize", "maxtemp", "rain"]
    categorical = ["category"]
    joined = small_retailer_query.evaluate(small_retailer)
    rows = [dict(zip(joined.schema.names, row)) for row in joined.sample_rows(150, seed=8)]

    aware = StructureAwarePipeline("inventoryunits", continuous, categorical, closed_form=True)
    aware_report = aware.run(small_retailer, small_retailer_query)
    agnostic = StructureAgnosticPipeline("inventoryunits", continuous, categorical, epochs=3)
    agnostic_report = agnostic.run(small_retailer, small_retailer_query)

    assert aware_report.aggregate_count > 0
    assert aware_report.sigma_dimension == 1 + 4 + 5
    assert agnostic_report.join_rows == len(joined)
    assert agnostic_report.data_matrix_shape[0] == len(joined)

    aware_rmse = aware.rmse(rows)
    agnostic_rmse = agnostic.rmse(rows)
    # The aggregate-trained model is at least as accurate as one-pass SGD.
    assert aware_rmse <= agnostic_rmse * 1.1
    assert aware_report.sigma_bytes < agnostic_report.data_matrix_bytes


def test_pipeline_stage_reports_are_complete(small_retailer, small_retailer_query):
    aware = StructureAwarePipeline("inventoryunits", ["inventoryunits", "prize"], [])
    report = aware.run(small_retailer, small_retailer_query)
    stages = dict(report.as_rows())
    assert set(stages) == {"query batch", "gradient descent", "total"}
    assert report.total_seconds == pytest.approx(
        report.batch_seconds + report.train_seconds
    )
    with pytest.raises(ValueError):
        StructureAwarePipeline("not_listed", ["prize"], [])


def test_structure_agnostic_requires_run_before_predict(small_retailer, small_retailer_query):
    pipeline = StructureAgnosticPipeline("inventoryunits", ["inventoryunits", "prize"], [])
    with pytest.raises(RuntimeError):
        pipeline.predict([{"prize": 1.0}])


# -- IFAQ interpreter -------------------------------------------------------------------------------


def test_ifaq_evaluation_of_sums_and_dicts():
    program = SumOver("x", Const({1: None, 2: None, 3: None}), BinOp("*", Var("x"), Const(2.0)))
    counter = OperationCounter()
    assert evaluate(program, {}, counter) == 12.0
    assert counter.arithmetic > 0

    dictionary = DictOver("k", Const(["a", "b"]), Const(1.0))
    assert evaluate(dictionary, {}) == {"a": 1.0, "b": 1.0}


def test_ifaq_record_access_counts_operations():
    record = Record({"x": 1.0, "y": 2.0})
    counter = OperationCounter()
    value = evaluate(Lookup(Var("r"), Const("y")), {"r": record}, counter)
    assert value == 2.0
    assert counter.dynamic_lookups == 1


def test_ifaq_let_and_loop():
    program = Let(
        "base",
        Const(10.0),
        IterateLoop("state", Const(0.0), 3, BinOp("+", Var("state"), Var("base"))),
    )
    counter = OperationCounter()
    assert evaluate(program, {}, counter) == 30.0
    assert counter.loop_iterations == 3


def test_ifaq_unbound_variable_raises():
    with pytest.raises(NameError):
        evaluate(Var("missing"), {})


def test_hoist_invariant_lets_moves_binding_out_of_loop():
    loop = IterateLoop(
        "state",
        Const(0.0),
        4,
        Let("c", Const(5.0), BinOp("+", Var("state"), Var("c"))),
    )
    hoisted = hoist_invariant_lets(loop)
    assert isinstance(hoisted, Let)
    assert isinstance(hoisted.body, IterateLoop)
    before, after = OperationCounter(), OperationCounter()
    assert evaluate(loop, {}, before) == evaluate(hoisted, {}, after)
    assert after.total <= before.total


def test_hoist_keeps_state_dependent_lets_inside():
    loop = IterateLoop(
        "state",
        Const(1.0),
        2,
        Let("c", BinOp("*", Var("state"), Const(2.0)), Var("c")),
    )
    assert isinstance(hoist_invariant_lets(loop), IterateLoop)


def test_specialize_field_access_changes_lookup_kind():
    record = Record({"u": 7.0, "v": 8.0})
    program = SumOver("x", Const([record]), Lookup(Var("x"), Const("v")))
    specialised = specialize_field_access(program, ["u", "v"], ["x"])
    before, after = OperationCounter(), OperationCounter()
    assert evaluate(program, {}, before) == evaluate(specialised, {}, after)
    assert after.dynamic_lookups < before.dynamic_lookups
    assert after.static_accesses > before.static_accesses


def test_ifaq_compilation_stages_agree(sri_database, sri_query):
    report = compile_and_run(sri_database, sri_query, iterations=8, learning_rate=1e-4)
    assert report.parameters_agree(1e-6)
    by_name = {outcome.name: outcome for outcome in report.stages}
    assert by_name["2_hoisted"].operations["total"] < by_name["0_naive"].operations["total"]
    assert not by_name["4_pushed_down"].needs_join
    assert by_name["0_naive"].needs_join
    assert report.join_size > 0
    table = report.operation_table()
    assert len(table) == 5


def test_ifaq_pushed_down_matches_engine_sigma(sri_database, sri_query):
    """Stage 4 is stage 3 lowered: M and C are constants holding the engine's
    sigma entries, and only the loop still reads anything."""
    from repro.ml import compute_sigma

    lowered = lower_to_batch(specialised_program(1, 0.0), sri_database, sri_query)
    covariance, correlation = lowered, lowered.body
    assert (covariance.name, correlation.name) == ("M", "C")
    assert isinstance(covariance.bound, Const) and isinstance(correlation.bound, Const)
    assert isinstance(correlation.body, IterateLoop)
    assert "Q" not in lowered.free_variables()
    sigma = compute_sigma(sri_database, sri_query, ["i", "s", "u", "c", "p"], [])
    for left in ("i", "s", "c", "p"):
        assert correlation.bound.value[left] == pytest.approx(sigma.entry(left, "u"), rel=1e-12)
        for right in ("i", "s", "c", "p"):
            assert covariance.bound.value[left][right] == pytest.approx(
                sigma.entry(left, right), rel=1e-12)


def test_lower_to_batch_keeps_what_the_interpreter_computes(sri_database, sri_query):
    """A lowered sum-product binding evaluates to what the interpreter sums
    over Q; a binding that is not a weighted sum over Q stays as it is."""
    weighted = SumOver("x", Var("Q"), BinOp(
        "*", BinOp("*", Lookup(Var("x"), Const("u")), Lookup(Var("Q"), Var("x"))),
        Lookup(Var("x"), Var("f"))))
    unweighted = DictOver("f", Const(["c"]), SumOver("x", Var("Q"), Lookup(Var("x"), Var("f"))))
    program = Let("V", DictOver("f", Const(["c", "p", "u"]), weighted),
                  Let("W", unweighted, MakeRecord({"V": Var("V"), "W": Var("W")})))
    lowered = lower_to_batch(program, sri_database, sri_query)
    assert isinstance(lowered.bound, Const)
    assert lowered.body == program.body

    environment = {"Q": join_as_dictionary(sri_database, sri_query)}
    expected = evaluate(program, environment).as_dict()
    result = evaluate(lowered, environment).as_dict()
    assert result["W"] == expected["W"]
    assert result["V"] == pytest.approx(expected["V"], rel=1e-12)


# -- datasets ---------------------------------------------------------------------------------------


def test_toy_database_matches_paper_figures():
    database = orders_database()
    assert len(database["Orders"]) == 4
    assert len(database["Dish"]) == 6
    assert len(database["Items"]) == 4
    joined = orders_query().evaluate(database)
    assert len(joined) == 12


@pytest.mark.parametrize("name", list(DATASETS))
def test_dataset_generators_produce_acyclic_joinable_schemas(name):
    database, query, spec = load_dataset(name, **_small_scale(name))
    hypergraph = query.hypergraph(database)
    assert is_acyclic(hypergraph)
    joined = query.evaluate(database)
    assert len(joined) > 0
    # Every declared feature must occur in the join schema.
    for feature in spec.continuous_features + spec.categorical_features + [spec.target]:
        assert feature in joined.schema.names


def _small_scale(name):
    return {
        "retailer": dict(inventory_rows=200, stores=4, items=10, dates=5),
        "favorita": dict(sales_rows=200, stores=4, items=10, dates=8),
        "yelp": dict(review_rows=200, businesses=20, users=30),
        "tpcds": dict(sales_rows=200, items=15, customers=20, stores=4, dates=10),
    }[name]


def test_dataset_generation_is_deterministic():
    first = load_dataset("retailer", inventory_rows=100, stores=3, items=5, dates=4)[0]
    second = load_dataset("retailer", inventory_rows=100, stores=3, items=5, dates=4)[0]
    for relation in first:
        assert relation == second[relation.name]


def test_unknown_dataset_name_raises():
    with pytest.raises(KeyError):
        load_dataset("imaginary")
