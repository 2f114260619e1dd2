"""LMFAO-style layered aggregate engine (the paper's core systems contribution).

The engine evaluates a *batch* of group-by sum-product aggregates directly
over the input relations, never materialising the feature-extraction join.
Each aggregate is decomposed top-down over a join tree into per-node views
(partial aggregates); views with identical structure are shared across the
batch; and views at the same node share the scan of the node's relation
(Section 4).
"""

from repro.engine.plan import AggregateDecomposition, ViewSignature, plan_batch
from repro.engine.lmfao import BatchResult, LMFAOEngine
from repro.engine.naive import MaterializedJoinEngine
from repro.engine.statistics import (
    RelationStatistics,
    RootChoice,
    choose_root,
    collect_statistics,
    estimate_root_costs,
)

__all__ = [
    "LMFAOEngine",
    "BatchResult",
    "MaterializedJoinEngine",
    "ViewSignature",
    "AggregateDecomposition",
    "plan_batch",
    "RelationStatistics",
    "RootChoice",
    "choose_root",
    "collect_statistics",
    "estimate_root_costs",
]
