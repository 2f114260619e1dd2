"""(Semi)ring toolbox (Section 3.1 and 5.2 of the paper).

Rings capture the algebraic structure of relational data processing: relations
are sum-product expressions, aggregates are evaluated by mapping values into a
ring and folding unions with ``+`` and products with ``*``.  The covariance
ring shares computation across the whole covariance-matrix batch.
"""

from repro.rings.base import Ring, Semiring, check_ring_axioms, check_semiring_axioms
from repro.rings.numeric import (
    CountingSemiring,
    IntegerRing,
    MaxPlusSemiring,
    RealRing,
)
from repro.rings.covariance import CovarianceRing, CovariancePayload
from repro.rings.groupby import GroupByRing

__all__ = [
    "GroupByRing",
    "Ring",
    "Semiring",
    "check_ring_axioms",
    "check_semiring_axioms",
    "CountingSemiring",
    "IntegerRing",
    "RealRing",
    "MaxPlusSemiring",
    "CovarianceRing",
    "CovariancePayload",
]
