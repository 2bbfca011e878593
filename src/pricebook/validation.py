"""Validity rules for parsed pricings.

Structural problems never reach this module: a ``Pricing`` refuses
exactly what a document cannot say, by the parser's own rules, save a
blank limit metric. What is checked here is whether a well-formed pricing
makes sense as a product catalog:

* R1 — no two plans may resolve to the same features and limits; price
  alone is not a difference.
* R2 — every published feature must be reachable: resolved truthy in at
  least one plan, or granted truthy by at least one add-on.
* R3a — no usage-limit window may outlast the contractual period, taken
  here as the pricing's billing period (the subscription engine re-checks
  against the actual contract period when one is created).
* R3b — every limit needs a real metric. The parser refuses a blank one;
  a ``Pricing`` built in code may hold it, and this rule reports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .model import Pricing, enabled_features, plan_switches, truthy_defaults, truthy_grants

__all__ = ["Rule", "Violation", "ValidationReport", "validate"]


class Rule(Enum):
    R1_DUPLICATE_PLANS = "R1_DUPLICATE_PLANS"
    R2_ORPHAN_FEATURE = "R2_ORPHAN_FEATURE"
    R3A_PERIOD_EXCEEDS_CONTRACT = "R3A_PERIOD_EXCEEDS_CONTRACT"
    R3B_MISSING_METRIC = "R3B_MISSING_METRIC"


@dataclass(frozen=True)
class Violation:
    rule: Rule
    subjects: tuple[str, ...]
    message: str

    def to_dict(self) -> dict:
        return {"rule": self.rule.value, "subjects": list(self.subjects), "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {"valid": self.valid, "violations": [v.to_dict() for v in self.violations]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def validate(pricing: Pricing) -> ValidationReport:
    """Pure rule check; the same pricing always yields the same report."""
    violations: list[Violation] = []

    # A plan keeps only the overrides that differ from the catalog default,
    # so two plans resolve alike exactly when their override maps are equal.
    alike: dict[tuple, list[str]] = {}
    for name, plan in pricing.plans.items():
        key = (frozenset(plan.feature_overrides.items()), frozenset(plan.limit_overrides.items()))
        alike.setdefault(key, []).append(name)
    for names in alike.values():
        for a, b in combinations(names, 2):
            violations.append(Violation(
                Rule.R1_DUPLICATE_PLANS,
                (a, b),
                f"plans {a!r} and {b!r} resolve to identical features and usage limits",
            ))

    defaults = truthy_defaults(pricing)
    reachable = set().union(
        *(enabled_features(defaults, plan_switches(plan)) for plan in pricing.plans.values()),
        *(truthy_grants(add_on) for add_on in pricing.add_ons.values()),
    )
    for name in pricing.features:
        if name not in reachable:
            violations.append(Violation(
                Rule.R2_ORPHAN_FEATURE,
                (name,),
                f"feature {name!r} is truthy in no plan and granted by no add-on",
            ))

    contract_days = pricing.billing_period.canonical_days
    for limit in pricing.usage_limits.values():
        if limit.period is not None and limit.period.canonical_days > contract_days:
            violations.append(Violation(
                Rule.R3A_PERIOD_EXCEEDS_CONTRACT,
                (limit.name,),
                f"usage limit {limit.name!r} window "
                f"({limit.period.canonical_days} canonical days) outlasts the billing period "
                f"({contract_days} canonical days)",
            ))
        if not limit.metric.strip():
            violations.append(Violation(
                Rule.R3B_MISSING_METRIC,
                (limit.name,),
                f"usage limit {limit.name!r} has no objective metric",
            ))

    violations.sort(key=lambda v: (v.rule.value, v.subjects[0]))
    return ValidationReport(valid=not violations, violations=tuple(violations))
