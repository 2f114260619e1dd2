"""Running the IFAQ compilation stages and measuring their cost.

``compile_and_run`` evaluates every stage of the Section 5.3 gradient-descent
program on the same database, checks that all stages compute the same model
parameters, and reports the interpreter's operation counters per stage — the
quantitative effect of each rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.data.database import Database
from repro.ifaq.expr import OperationCounter, evaluate
from repro.ifaq.gradient_program import (
    EXAMPLE_FIELD_ORDER,
    build_stage_programs,
    join_as_dictionary,
)
from repro.ifaq.transforms import JOIN_VARIABLE, lower_to_batch
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class StageOutcome:
    """Result and cost of one compilation stage."""

    name: str
    parameters: Dict[str, float]
    operations: Dict[str, int]
    needs_join: bool


@dataclass
class CompilationReport:
    """All stage outcomes plus the size of the join dictionary Q."""

    stages: List[StageOutcome] = field(default_factory=list)
    join_size: int = 0

    def stage(self, name: str) -> StageOutcome:
        for outcome in self.stages:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def operation_table(self) -> List[Tuple[str, int, int, int]]:
        """Rows of (stage, arithmetic, dynamic lookups, total) for reporting."""
        return [
            (
                outcome.name,
                outcome.operations["arithmetic"],
                outcome.operations["dynamic_lookups"],
                outcome.operations["total"],
            )
            for outcome in self.stages
        ]

    def parameters_agree(self, tolerance: float = 1e-6) -> bool:
        if not self.stages:
            return True
        reference = self.stages[0].parameters
        for outcome in self.stages[1:]:
            for feature, value in reference.items():
                if abs(outcome.parameters.get(feature, float("nan")) - value) > tolerance:
                    return False
        return True


def compile_and_run(
    database: Database,
    query: ConjunctiveQuery,
    iterations: int = 10,
    learning_rate: float = 1e-6,
) -> CompilationReport:
    """Evaluate every stage of the gradient program over ``database``.

    Stage 4 is stage 3 lowered over ``database`` (:func:`lower_to_batch`): its
    M and C are already constants, so it interprets only the loop.
    """
    stages = build_stage_programs(iterations, learning_rate)
    stages["4_pushed_down"] = lower_to_batch(stages["3_specialised"], database, query)

    join_dictionary = join_as_dictionary(database, query, EXAMPLE_FIELD_ORDER)
    report = CompilationReport(join_size=len(join_dictionary))
    for name, program in stages.items():
        needs_join = JOIN_VARIABLE in program.free_variables()
        environment = {JOIN_VARIABLE: join_dictionary} if needs_join else {}
        counter = OperationCounter()
        parameters = evaluate(program, environment, counter)
        report.stages.append(
            StageOutcome(
                name=name,
                parameters={feature: float(value) for feature, value in parameters.items()},
                operations=counter.as_dict(),
                needs_join=needs_join,
            )
        )
    return report
