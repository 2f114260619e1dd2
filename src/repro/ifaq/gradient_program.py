"""The Section 5.3 gradient-descent program at its successive compilation stages.

The running example learns a linear regression model over the join
``Q = S(i, s, u) ⋈ R(s, c) ⋈ I(i, p)`` with features ``{i, s, c, p}`` and
response ``u``.  Five stages of the same program are provided; every stage is
an IR expression that evaluates to the parameter dictionary θ.  Stage 1 does
more interpreter work than stage 0 (it rebuilds M and C in every iteration);
each later stage does less than the one before:

0. ``naive``            — every gradient-descent iteration scans sup(Q);
1. ``memoised``         — the covariance dictionary M and the correlation
                          vector C are named (static memoisation) but still
                          recomputed inside the loop;
2. ``hoisted``          — loop-invariant code motion moves M and C out of the
                          loop (derived from stage 1 by
                          :func:`repro.ifaq.transforms.hoist_invariant_lets`);
3. ``specialised``      — record accesses become static field accesses
                          (derived from stage 2 by
                          :func:`repro.ifaq.transforms.specialize_field_access`);
4. ``pushed_down``      — M and C are one aggregate batch the LMFAO engine
                          evaluates over the base relations, so sup(Q) is
                          never enumerated and only the convergence loop is
                          interpreted (derived from stage 3 by
                          :func:`repro.ifaq.transforms.lower_to_batch`;
                          :func:`repro.ifaq.compile.compile_and_run` does it,
                          as lowering evaluates the batch over the database).

Q itself, for stages 0-3, is the engine's ``COUNT(*) GROUP BY`` over the
fields (:func:`join_as_dictionary`), not a Python tuple join.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.data.database import Database
from repro.ifaq.expr import (
    BinOp,
    Const,
    DictOver,
    Expr,
    IterateLoop,
    Let,
    Lookup,
    Record,
    SumOver,
    Var,
)
from repro.ifaq.transforms import hoist_invariant_lets, specialize_field_access
from repro.ml.statistics import join_counts
from repro.query.conjunctive import ConjunctiveQuery

#: The features of the Section 5.3 example (the response ``u`` is excluded).
EXAMPLE_FEATURES: Tuple[str, ...] = ("i", "s", "c", "p")
EXAMPLE_RESPONSE: str = "u"
EXAMPLE_FIELD_ORDER: Tuple[str, ...] = ("i", "s", "u", "c", "p")


def join_as_dictionary(
    database: Database, query: ConjunctiveQuery, fields: Sequence[str] = EXAMPLE_FIELD_ORDER
) -> Dict[Record, int]:
    """The join as an IFAQ dictionary mapping records to multiplicities: one
    ``COUNT(*) GROUP BY fields`` on the engine (:func:`join_counts`)."""
    return {
        Record({field: float(value) for field, value in zip(fields, key)}): int(count)
        for key, count in join_counts(database, query, fields).items()
    }


# -- building blocks --------------------------------------------------------------------------------


def _lookup(container: str, key: Expr) -> Lookup:
    return Lookup(Var(container), key)


def _x(field: str) -> Expr:
    """Dynamic record access ``x(field)``."""
    return Lookup(Var("x"), Const(field))


def _error_term(features: Sequence[str], response: str) -> Expr:
    """``Σ_{f2} θ(f2) * x(f2) - x(response)`` — the residual of one tuple."""
    weighted = SumOver(
        "f2",
        Const(list(features)),
        BinOp("*", Lookup(Var("theta"), Var("f2")), Lookup(Var("x"), Var("f2"))),
    )
    return BinOp("-", weighted, _x(response))


def _theta_update(gradient_of_f1: Expr, learning_rate: float) -> DictOver:
    """``θ = λ_{f1∈F} θ(f1) - α * gradient(f1)``."""
    return DictOver(
        "f1",
        Const(list(EXAMPLE_FEATURES)),
        BinOp(
            "-",
            Lookup(Var("theta"), Var("f1")),
            BinOp("*", Const(learning_rate), gradient_of_f1),
        ),
    )


def _initial_theta() -> Const:
    return Const({feature: 0.0 for feature in EXAMPLE_FEATURES})


# -- stage constructors --------------------------------------------------------------------------------


def naive_program(iterations: int, learning_rate: float) -> Expr:
    """Stage 0: every iteration scans sup(Q) and recomputes the inner sums."""
    gradient = SumOver(
        "x",
        Var("Q"),
        BinOp(
            "*",
            BinOp("*", _lookup("Q", Var("x")), _error_term(EXAMPLE_FEATURES, EXAMPLE_RESPONSE)),
            _x_dynamic_f1(),
        ),
    )
    return IterateLoop("theta", _initial_theta(), iterations, _theta_update(gradient, learning_rate))


def _x_dynamic_f1() -> Expr:
    return Lookup(Var("x"), Var("f1"))


def _covariance_dictionary() -> DictOver:
    """``M = λ f1 λ f2 Σ_x Q(x) * x(f1) * x(f2)``."""
    return DictOver(
        "f1",
        Const(list(EXAMPLE_FEATURES)),
        DictOver(
            "f2",
            Const(list(EXAMPLE_FEATURES)),
            SumOver(
                "x",
                Var("Q"),
                BinOp(
                    "*",
                    BinOp("*", _lookup("Q", Var("x")), Lookup(Var("x"), Var("f1"))),
                    Lookup(Var("x"), Var("f2")),
                ),
            ),
        ),
    )


def _correlation_dictionary() -> DictOver:
    """``C = λ f1 Σ_x Q(x) * x(f1) * x(u)``."""
    return DictOver(
        "f1",
        Const(list(EXAMPLE_FEATURES)),
        SumOver(
            "x",
            Var("Q"),
            BinOp(
                "*",
                BinOp("*", _lookup("Q", Var("x")), Lookup(Var("x"), Var("f1"))),
                _x(EXAMPLE_RESPONSE),
            ),
        ),
    )


def _gradient_from_statistics() -> Expr:
    """``Σ_{f2} θ(f2) * M(f1)(f2) - C(f1)`` — the gradient built from M and C."""
    return BinOp(
        "-",
        SumOver(
            "f2",
            Const(list(EXAMPLE_FEATURES)),
            BinOp(
                "*",
                Lookup(Var("theta"), Var("f2")),
                Lookup(Lookup(Var("M"), Var("f1")), Var("f2")),
            ),
        ),
        Lookup(Var("C"), Var("f1")),
    )


def memoised_program(iterations: int, learning_rate: float) -> Expr:
    """Stage 1: M and C are named but still live inside the convergence loop."""
    step = Let(
        "M",
        _covariance_dictionary(),
        Let("C", _correlation_dictionary(), _theta_update(_gradient_from_statistics(), learning_rate)),
    )
    return IterateLoop("theta", _initial_theta(), iterations, step)


def hoisted_program(iterations: int, learning_rate: float) -> Expr:
    """Stage 2: derived from stage 1 by loop-invariant code motion."""
    return hoist_invariant_lets(memoised_program(iterations, learning_rate))


def specialised_program(iterations: int, learning_rate: float) -> Expr:
    """Stage 3: derived from stage 2 by static field-access specialisation.

    Only the accesses with statically known field names (``x(u)``) specialise;
    the accesses keyed by the loop variables ``f1``/``f2`` stay dynamic, as in
    the paper they are removed by loop unrolling, which the interpreter models
    with the same dictionary layout.
    """
    return specialize_field_access(
        hoisted_program(iterations, learning_rate),
        EXAMPLE_FIELD_ORDER,
        record_variables=["x"],
    )


# -- stage registry ----------------------------------------------------------------------------------------


def build_stage_programs(iterations: int = 10, learning_rate: float = 0.05) -> Dict[str, Expr]:
    """Stages 0-3 of the gradient-descent program, by name (stage 4 lowers
    stage 3 over a database: :func:`repro.ifaq.transforms.lower_to_batch`)."""
    return {
        "0_naive": naive_program(iterations, learning_rate),
        "1_memoised": memoised_program(iterations, learning_rate),
        "2_hoisted": hoisted_program(iterations, learning_rate),
        "3_specialised": specialised_program(iterations, learning_rate),
    }
