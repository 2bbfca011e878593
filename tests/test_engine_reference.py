"""The subscription engine and ``impact`` against their whole-catalog algorithm.

The engine reads each value it needs from a per-pricing index. The
reference below is the algorithm it replaced, written the slow way: resolve
the whole plan with ``resolve_plan``, scan every add-on in catalog order,
and step every periodic window with ``latest_window_index``. Agreement
covers values and their exponents, the order of linked limits, and which
of several grants wins.
"""

import random
from dataclasses import replace
from datetime import timedelta
from decimal import Decimal

from pricebook import (
    ChangeKind,
    ChangeSet,
    EvaluationResult,
    LimitStatus,
    Period,
    PeriodUnit,
    UsageState,
    create_subscription,
    diff,
    effective_limit,
    evaluate_feature,
    evaluation_context,
    impact,
    parse_instant,
    resolve_plan,
)
from pricebook.periods import advance, latest_window_index

from support import engine_replay, mutate_pricing, random_events, random_pricing

T0 = parse_instant("2024-01-31T12:00:00Z")


def reference_effective_limit(pricing, subscription, limit_name):
    total = resolve_plan(pricing, subscription.plan_name).limit_values[limit_name]
    for add_on in pricing.add_ons.values():
        if add_on.name in subscription.add_on_names:
            total += add_on.limit_extensions.get(limit_name, Decimal(0))
    return total


def reference_lapse(pricing, subscription, now):
    usage = {}
    for name, state in subscription.usage.items():
        limit = pricing.usage_limits.get(name)
        if limit is None or limit.period is None or state.window_index is None:
            usage[name] = state
            continue
        k = latest_window_index(subscription.start_instant, limit.period, now)
        if k > state.window_index:
            state = UsageState(Decimal(0), advance(subscription.start_instant, limit.period, k), k)
        usage[name] = state
    return replace(subscription, usage=usage)


def reference_evaluate(pricing, subscription, feature_name, now):
    lapsed = reference_lapse(pricing, subscription, now)
    plan_value = resolve_plan(pricing, subscription.plan_name).feature_values[feature_name]
    grants = [add_on.feature_grants[feature_name] for add_on in pricing.add_ons.values()
              if add_on.name in lapsed.add_on_names and feature_name in add_on.feature_grants]
    statuses = []
    for limit in pricing.usage_limits.values():
        if feature_name in limit.linked_features:
            effective = reference_effective_limit(pricing, lapsed, limit.name)
            used = lapsed.usage[limit.name].used
            statuses.append(LimitStatus(limit.name, effective, used,
                                        max(Decimal(0), effective - used)))
    return EvaluationResult(
        feature=feature_name,
        enabled=plan_value.truthy or any(g.truthy for g in grants),
        value=grants[-1] if grants else plan_value,
        limits=tuple(statuses),
    )


def reference_impact(pricing, subscription, changes):
    resolved = resolve_plan(pricing, subscription.plan_name)
    reachable_features = {
        name for name in pricing.features
        if resolved.feature_values[name].truthy or any(
            add_on.name in subscription.add_on_names
            and name in add_on.feature_grants and add_on.feature_grants[name].truthy
            for add_on in pricing.add_ons.values())
    }
    reachable_limits = {
        name for name, limit in pricing.usage_limits.items()
        if not limit.linked_features or set(limit.linked_features) & reachable_features
    }

    def keep(change) -> bool:
        kind, name = change.kind, change.subjects[0]
        if kind is ChangeKind.METADATA_CHANGED:
            return name in ("currency", "billingPeriod")
        if kind is ChangeKind.FEATURE_ADDED:
            payload = change.definition["defaultValue"]
            value = payload["value"]
            return Decimal(value) > 0 if payload["type"] == "NUMERIC" else bool(value)
        if kind.name.startswith("FEATURE_"):
            return name in reachable_features
        if kind is ChangeKind.LIMIT_ADDED:
            linked = change.definition["linkedFeatures"]
            return not linked or bool(set(linked) & reachable_features)
        if kind is ChangeKind.LIMIT_THRESHOLD_CHANGED:
            scope, limit_name = change.subjects
            if scope == "default":
                return limit_name in reachable_limits
            return scope == subscription.plan_name
        if kind.name.startswith("LIMIT_"):
            return name in reachable_limits
        if kind in (ChangeKind.PLAN_ADDED, ChangeKind.ADD_ON_ADDED):
            return False
        if kind.name.startswith("PLAN_"):
            return name == subscription.plan_name
        return name in subscription.add_on_names

    return ChangeSet(tuple(change for change in changes if keep(change)))


def _random_subscriptions(rng, pricing, count):
    """Subscriptions with random plans, available add-ons and replayed usage."""
    for _ in range(count):
        plan = rng.choice(sorted(pricing.plans))
        add_ons = [name for name, add_on in pricing.add_ons.items()
                   if (not add_on.available_for or plan in add_on.available_for)
                   and rng.random() < 0.7]
        # A yearly contract admits every window the generator draws.
        sub = create_subscription(pricing, plan, add_ons, T0, Period(1, PeriodUnit.YEAR))
        if pricing.usage_limits:
            events = random_events(rng, pricing, T0, count=20, years=1)
            sub = engine_replay(pricing, sub, events)
            now = max(e.at for e in events) + timedelta(seconds=rng.randint(0, 90 * 86400))
        else:
            now = T0 + timedelta(seconds=rng.randint(0, 90 * 86400))
        yield sub, now


def test_engine_equals_whole_catalog_reference():
    rng = random.Random(601)
    contested = 0  # evaluations where two or more subscribed add-ons grant the feature
    for _ in range(80):
        pricing = random_pricing(rng, min_plans=1)
        for sub, now in _random_subscriptions(rng, pricing, 3):
            for limit in pricing.usage_limits:
                got = effective_limit(pricing, sub, limit)
                want = reference_effective_limit(pricing, sub, limit)
                assert (got, str(got)) == (want, str(want))
            context = evaluation_context(pricing, sub, now)
            assert list(context) == list(pricing.features)
            for feature in pricing.features:
                want = reference_evaluate(pricing, sub, feature, now)
                assert evaluate_feature(pricing, sub, feature, now) == want
                assert context[feature] == want
                contested += sum(feature in pricing.add_ons[a].feature_grants
                                 for a in sub.add_on_names) >= 2
    assert contested > 20


def test_impact_equals_whole_catalog_reference():
    rng = random.Random(602)
    for _ in range(40):
        pricing = random_pricing(rng, rule_clean=True, min_plans=1)
        changes = diff(pricing, mutate_pricing(rng, pricing, rng.randint(1, 4)))
        for sub, _ in _random_subscriptions(rng, pricing, 3):
            assert impact(pricing, sub, changes) == reference_impact(pricing, sub, changes)
