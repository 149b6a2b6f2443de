"""Rule registry: one module per rule family."""

from repro.lint.rules.async_safety import AsyncBanRule
from repro.lint.rules.barrier_commit import BarrierCoalescingRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.durability import DurabilityOrderingRule
from repro.lint.rules.hotpath import HotPathRule
from repro.lint.rules.immutability import ImmutabilityRule
from repro.lint.rules.obs import ObservabilityRule
from repro.lint.rules.placement import PlacementConfinementRule
from repro.lint.rules.recovery import RecoveryHandlerRule
from repro.lint.rules.recovery_order import RecoveryMutationOrderRule
from repro.lint.rules.sequence import SequenceHygieneRule
from repro.lint.rules.settlement import SettlementLeakRule
from repro.lint.rules.sharding import ShardOwnershipRule
from repro.lint.rules.span_hygiene import SpanHygieneRule
from repro.lint.rules.structs import StructConsistencyRule
from repro.lint.rules.tenant_isolation import TenantIsolationRule
from repro.lint.rules.units import UnitConfusionRule

#: every shipped rule, in code order
ALL_RULES = [
    ImmutabilityRule,
    SequenceHygieneRule,
    DeterminismRule,
    RecoveryHandlerRule,
    UnitConfusionRule,
    StructConsistencyRule,
    ObservabilityRule,
    ShardOwnershipRule,
    HotPathRule,
    SettlementLeakRule,
    DurabilityOrderingRule,
    RecoveryMutationOrderRule,
    AsyncBanRule,
    BarrierCoalescingRule,
    SpanHygieneRule,
    TenantIsolationRule,
    PlacementConfinementRule,
]
