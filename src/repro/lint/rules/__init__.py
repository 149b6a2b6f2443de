"""Rule registry: one module per rule family.

Every rule's ``Evidence:`` names a commit whose change removed one of its
findings, or a numbered crash mutant it flags (both listed in DESIGN.md
"Invariants & static checks").  Codes are never reused: LSVD001, 006,
008, 012, 013 and 015 had neither and were deleted, leaving gaps.
"""

from repro.lint.rules.barrier_commit import BarrierCoalescingRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.durability import DurabilityOrderingRule
from repro.lint.rules.hotpath import HotPathRule
from repro.lint.rules.obs import ObservabilityRule
from repro.lint.rules.placement import PlacementConfinementRule
from repro.lint.rules.recovery import RecoveryHandlerRule
from repro.lint.rules.sequence import SequenceHygieneRule
from repro.lint.rules.settlement import SettlementLeakRule
from repro.lint.rules.tenant_isolation import TenantIsolationRule
from repro.lint.rules.units import UnitConfusionRule

#: every shipped rule, in code order
ALL_RULES = [
    SequenceHygieneRule,
    DeterminismRule,
    RecoveryHandlerRule,
    UnitConfusionRule,
    ObservabilityRule,
    HotPathRule,
    SettlementLeakRule,
    DurabilityOrderingRule,
    BarrierCoalescingRule,
    TenantIsolationRule,
    PlacementConfinementRule,
]
