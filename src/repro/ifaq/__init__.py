"""IFAQ: a miniature iterative-functional-aggregate-queries compiler (Section 5.3).

Programs mixing database and ML workloads (here: gradient descent for linear
regression over a join) are expressed in a small functional IR over
dictionaries, sums and loops.  Equivalence-preserving transformations —
loop-invariant code motion, static memoisation, schema specialisation and
aggregate pushdown — rewrite the program from a per-iteration scan over the
join into a one-off aggregate batch followed by a cheap convergence loop.
The last rewrite, :func:`lower_to_batch`, hands that batch to the LMFAO
engine, which evaluates it over the base relations; the interpreter then runs
only the loop.  An instrumented interpreter counts operations so the effect
of every stage is measurable.  The join dictionary Q of the earlier stages is
the engine's ``COUNT(*) GROUP BY`` (:func:`join_as_dictionary`).
"""

from repro.ifaq.expr import (
    BinOp,
    Const,
    DictOver,
    FieldOf,
    IterateLoop,
    Let,
    Lookup,
    MakeRecord,
    OperationCounter,
    Record,
    SumOver,
    Var,
    evaluate,
)
from repro.ifaq.transforms import (
    hoist_invariant_lets,
    lower_to_batch,
    specialize_field_access,
)
from repro.ifaq.gradient_program import (
    build_stage_programs,
    join_as_dictionary,
)
from repro.ifaq.compile import CompilationReport, compile_and_run

__all__ = [
    "Const",
    "Var",
    "Record",
    "MakeRecord",
    "FieldOf",
    "Lookup",
    "BinOp",
    "SumOver",
    "DictOver",
    "Let",
    "IterateLoop",
    "OperationCounter",
    "evaluate",
    "hoist_invariant_lets",
    "specialize_field_access",
    "lower_to_batch",
    "build_stage_programs",
    "join_as_dictionary",
    "CompilationReport",
    "compile_and_run",
]
