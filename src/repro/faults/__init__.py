"""Seeded fault injection for chaos-testing the feedback path.

`FaultPlan` composes per-class injectors behind one seeded RNG; the
`Faulty*` wrappers apply the plan around an unmodified link, policy, or
classifier so existing scenarios run under injected chaos. See
``docs/robustness.md`` for the fault taxonomy.
"""

from repro.faults.plan import (
    CORRUPTION_MODES,
    AckLoss,
    ClassifierFault,
    FaultLog,
    FaultPlan,
    FaultRecord,
    MetricCorruption,
    StaleReplay,
    SweepFailure,
)
from repro.faults.wrappers import (
    METRIC_AGE_KEY,
    FaultyClassifier,
    FaultyLink,
    FaultyPolicy,
)

__all__ = [
    "AckLoss",
    "ClassifierFault",
    "CORRUPTION_MODES",
    "FaultLog",
    "FaultPlan",
    "FaultRecord",
    "FaultyClassifier",
    "FaultyLink",
    "FaultyPolicy",
    "METRIC_AGE_KEY",
    "MetricCorruption",
    "StaleReplay",
    "SweepFailure",
]
