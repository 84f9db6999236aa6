"""Test support: fault injection and the reference loops (``repro.testing``).

The production counterpart of :mod:`repro.testing.faults` lives in
:mod:`repro.runtime.resilience`; this package holds the *adversary* —
seeded fault plans that make Table-I kernels fail on purpose so the
recovery machinery can be exercised and regression-tested — and the
*oracle*, :func:`~repro.testing.reference.reference_cholesky`, the tile
algorithm as straight loops that every executor's factor must equal bit
for bit.  Importing it never changes library behaviour: faults only fire
when a plan is explicitly passed to an executor.
"""

from .faults import FaultClause, FaultInjector, FaultKind, FaultPlan
from .reference import reference_cholesky

__all__ = [
    "FaultClause", "FaultInjector", "FaultKind", "FaultPlan",
    "reference_cholesky",
]
