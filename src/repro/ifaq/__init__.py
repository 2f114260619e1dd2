"""IFAQ: a miniature iterative-functional-aggregate-queries compiler (Section 5.3).

Programs mixing database and ML workloads (here: gradient descent for linear
regression over a join) are expressed in a small functional IR over
dictionaries, sums and loops.  Equivalence-preserving transformations —
loop-invariant code motion, static memoisation, loop unrolling / schema
specialisation, aggregate pushdown and fusion — rewrite the program from a
per-iteration scan over the join into a one-off aggregate batch followed by a
cheap convergence loop.  An instrumented interpreter counts operations so the
effect of every stage is measurable.
"""

from repro.ifaq.expr import (
    BinOp,
    Const,
    DictOver,
    FieldOf,
    GroupSum,
    IterateLoop,
    Let,
    Lookup,
    MakeDict,
    MakeRecord,
    OperationCounter,
    Record,
    SumOver,
    Var,
    evaluate,
)
from repro.ifaq.transforms import (
    hoist_invariant_lets,
    specialize_field_access,
)
from repro.ifaq.gradient_program import (
    GradientProgramStages,
    build_stage_programs,
    join_as_dictionary,
)
from repro.ifaq.compile import CompilationReport, compile_and_run

__all__ = [
    "Const",
    "Var",
    "Record",
    "MakeRecord",
    "MakeDict",
    "GroupSum",
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
    "GradientProgramStages",
    "build_stage_programs",
    "join_as_dictionary",
    "CompilationReport",
    "compile_and_run",
]
