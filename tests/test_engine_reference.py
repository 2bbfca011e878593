"""The subscription engine, ``impact``, R1, R2, the stats counts and
``classify_features`` against their whole-catalog algorithm.

The engine reads each value it needs from a per-pricing index,
reachability is set algebra over the features each plan and add-on makes
truthy, and R1 and ``classify_features`` compare plans' override maps. The references below are the algorithms they replaced, written the
slow way: resolve the whole plan with ``resolve_plan``, scan every feature
and every add-on in catalog order, and step every periodic window with
``latest_window_index``. Agreement covers values and their exponents, the
order of linked limits, and which of several grants wins. Renewal and the
state-file load work out each distinct (period, window index) once; their
references do the window arithmetic again for every counter. ``diff``
compares each plan only at its overrides and at the catalog defaults that
moved; its reference compares every catalog entry for every plan.
"""

import calendar
import copy
import json
import random
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from itertools import combinations, cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pricebook.subscriptions as subscriptions

from pricebook import (
    AddOn,
    Change,
    ChangeKind,
    ChangeSet,
    EvaluationResult,
    Feature,
    FeatureClass,
    FeatureType,
    FeatureValue,
    LimitKind,
    LimitStatus,
    Period,
    PeriodUnit,
    Plan,
    Pricing,
    Rule,
    UsageLimit,
    UsageState,
    ValidationReport,
    Subscription,
    ValueKind,
    Violation,
    classify_features,
    create_subscription,
    diff,
    effective_limit,
    evaluate_feature,
    evaluation_context,
    impact,
    lapse_windows,
    parse_instant,
    pricing_stats,
    validate,
)
from pricebook.errors import ModelError, UnknownPlanError
from pricebook.model import _CATALOG_ATTR, FIELDS, MAX_EXPONENT, out_of_range, to_json
from pricebook.periods import advance, latest_window_index, window_started
from pricebook.subscriptions import _check_add_ons, subscription_from_state

from support import (DECIMALS, _random_value, _remove_feature_refs, _remove_limit_refs,
                     engine_replay, from_raw, mutate_pricing, random_events, random_pricing,
                     resolve_plan, subscription_to_state, to_raw)

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


# -- reachability edge cases ---------------------------------------------------

TRUE, FALSE = FeatureValue.boolean(True), FeatureValue.boolean(False)


def _edge_pricing():
    """Plan ``P`` with add-on ``held`` is the subscriber of every edge case."""
    defaults = {
        "offThenGranted": TRUE,
        "onDespiteFalsyGrant": FALSE,
        "grantedByAnother": FALSE,
        "numericZero": FeatureValue.numeric(0),
        "textEmpty": FeatureValue.text(""),
        "numericZeroedByPlan": FeatureValue.numeric(5),
        "textEmptiedByPlan": FeatureValue.text("gold"),
        "numericGranted": FeatureValue.numeric(0),
    }
    features = {name: Feature(name, FeatureType.DOMAIN, value.kind, value)
                for name, value in defaults.items()}
    links = {"unlinked": (), "onGranted": ("offThenGranted",),
             "onFalsy": ("numericZero", "textEmpty"),
             "onMixed": ("numericZero", "onDespiteFalsyGrant")}
    limits = {name: UsageLimit(name, LimitKind.NON_RENEWABLE, "calls", Decimal(10),
                               linked_features=linked) for name, linked in links.items()}
    plans = {
        "P": Plan("P", Decimal(1), feature_overrides={
            "offThenGranted": FALSE, "onDespiteFalsyGrant": TRUE,
            "numericZeroedByPlan": FeatureValue.numeric(0),
            "textEmptiedByPlan": FeatureValue.text("")}),
        "Q": Plan("Q", Decimal(2)),
    }
    add_ons = {
        "held": AddOn("held", Decimal(1), feature_grants={
            "offThenGranted": TRUE, "onDespiteFalsyGrant": FALSE,
            "numericGranted": FeatureValue.numeric(3)}),
        "notHeld": AddOn("notHeld", Decimal(1), feature_grants={"grantedByAnother": TRUE}),
    }
    return Pricing("Edges", "1", "USD", Period(1, PeriodUnit.MONTH),
                   features, limits, plans, add_ons)


# Whether the subscriber reaches each feature or limit.
EDGE_CASES = {
    "offThenGranted": True,  # truthy default, falsy in the plan, granted back by a held add-on
    "onDespiteFalsyGrant": True,  # a falsy grant leaves the plan's truthy value reachable
    "grantedByAnother": False,  # granted truthy only by an add-on the subscriber lacks
    "numericZero": False,  # NUMERIC 0 and TEXT "" are falsy, as defaults ...
    "textEmpty": False,
    "numericZeroedByPlan": False,  # ... and as plan overrides
    "textEmptiedByPlan": False,
    "numericGranted": True,
    "unlinked": True,  # a limit linked to no feature applies to every subscriber
    "onGranted": True,
    "onFalsy": False,
    "onMixed": True,  # one reachable linked feature is enough
    "ghost": False,  # a limit the old pricing does not have
}


@pytest.mark.parametrize("subject", list(EDGE_CASES))
def test_impact_reachability_edge_case(subject):
    pricing = _edge_pricing()
    sub = create_subscription(pricing, "P", ["held"], T0)
    if subject in pricing.features:
        changes = [Change(ChangeKind.FEATURE_DEFAULT_CHANGED, (subject,))]
    else:  # a limit change, and a change of its catalog ("default" scope) threshold
        changes = [Change(ChangeKind.LIMIT_METRIC_CHANGED, (subject,), "calls", "GB"),
                   Change(ChangeKind.LIMIT_THRESHOLD_CHANGED, ("default", subject),
                          Decimal(10), Decimal(20))]
    changes = ChangeSet(tuple(changes))
    kept = impact(pricing, sub, changes)
    assert kept == reference_impact(pricing, sub, changes)
    assert kept == (changes if EDGE_CASES[subject] else ChangeSet(()))


def test_impact_reads_truthy_only_on_the_plan_overrides(monkeypatch):
    # Once the index is built, a verdict costs the plan's overrides, not the catalog.
    rng = random.Random(604)
    values = [TRUE, FALSE, FeatureValue.numeric(0), FeatureValue.numeric(5),
              FeatureValue.text(""), FeatureValue.text("on")]
    names = [f"feature{i}" for i in range(1200)]
    features = {name: Feature(name, FeatureType.DOMAIN, value.kind, value)
                for name, value in zip(names, cycle(values))}

    def any_value(name):
        return rng.choice([v for v in values if v.kind is features[name].value_kind])

    limits = {f"limit{i}": UsageLimit(f"limit{i}", LimitKind.NON_RENEWABLE, "calls", Decimal(5),
                                      linked_features=tuple(rng.sample(names, rng.randint(0, 3))))
              for i in range(100)}
    plans = {"P": Plan("P", Decimal(1),
                       feature_overrides={name: any_value(name) for name in rng.sample(names, 60)})}
    add_ons = {f"a{i}": AddOn(f"a{i}", Decimal(1), feature_grants={
        name: any_value(name) for name in rng.sample(names, 40)}) for i in range(6)}
    pricing = Pricing("Wide", "1", "USD", Period(1, PeriodUnit.MONTH),
                      features, limits, plans, add_ons)
    sub = create_subscription(pricing, "P", ["a0", "a2", "a3"], T0)
    changes = ChangeSet(tuple(
        [Change(ChangeKind.FEATURE_DEFAULT_CHANGED, (name,)) for name in names[::7]]
        + [Change(ChangeKind.LIMIT_METRIC_CHANGED, (name,), "calls", "GB") for name in limits]
        + [Change(ChangeKind.LIMIT_THRESHOLD_CHANGED, ("default", name), Decimal(5), Decimal(6))
           for name in limits]))
    want = reference_impact(pricing, sub, changes)
    assert impact(pricing, sub, changes) == want  # builds the index

    calls = 0
    truthy = FeatureValue.truthy

    def counted(value):
        nonlocal calls
        calls += 1
        return truthy.fget(value)

    monkeypatch.setattr(FeatureValue, "truthy", property(counted))
    assert TRUE.truthy and calls == 1  # the counter sees every read
    calls = 0
    assert impact(pricing, sub, changes) == want
    assert calls <= len(pricing.plans["P"].feature_overrides)


# -- grant order and linked limits, named cases --------------------------------

def _grant_order_pricing():
    """Plan ``P`` with add-ons ``zFirst`` and ``aLast``, declared in that order
    (not by name), is the subscriber of every case."""
    defaults = {
        "laterFalsyGrant": FALSE,
        "laterNumericGrant": FeatureValue.numeric(0),
        "grantedBack": TRUE,
        "switchedOff": TRUE,
        "unlinked": TRUE,
        "sharedA": TRUE,
        "sharedB": FALSE,
        "sharedC": FeatureValue.numeric(2),
    }
    features = {name: Feature(name, FeatureType.DOMAIN, value.kind, value)
                for name, value in defaults.items()}
    limits = {"shared": UsageLimit("shared", LimitKind.NON_RENEWABLE, "calls", Decimal(10),
                                   linked_features=("sharedA", "sharedB", "sharedC"))}
    plans = {"P": Plan("P", Decimal(1), feature_overrides={"grantedBack": FALSE,
                                                           "switchedOff": FALSE},
                       limit_overrides={"shared": Decimal(4)})}
    add_ons = {
        "zFirst": AddOn("zFirst", Decimal(1), feature_grants={
            "laterFalsyGrant": TRUE, "laterNumericGrant": FeatureValue.numeric(7),
            "grantedBack": TRUE}),
        "aLast": AddOn("aLast", Decimal(1), feature_grants={
            "laterFalsyGrant": FALSE, "laterNumericGrant": FeatureValue.numeric(3)},
            limit_extensions={"shared": Decimal(2)}),
    }
    return Pricing("Grants", "1", "USD", Period(1, PeriodUnit.MONTH),
                   features, limits, plans, add_ons)


# (enabled, value, linked limits) of each feature for the subscriber.
GRANT_ORDER_CASES = {
    # the later subscribed add-on's falsy grant is the value; the earlier
    # truthy grant keeps the feature enabled
    "laterFalsyGrant": (True, FALSE, ()),
    "laterNumericGrant": (True, FeatureValue.numeric(3), ()),
    "grantedBack": (True, TRUE, ()),  # a falsy plan override on a truthy default, granted back
    "switchedOff": (False, FALSE, ()),  # the same override with no grant
    "unlinked": (True, TRUE, ()),  # a feature linked to no limit
    "sharedA": (True, TRUE, ("shared",)),  # a limit linked to three features
    "sharedB": (False, FALSE, ("shared",)),
    "sharedC": (True, FeatureValue.numeric(2), ("shared",)),
}


@pytest.mark.parametrize("feature", list(GRANT_ORDER_CASES))
def test_grant_order_case(feature):
    pricing = _grant_order_pricing()
    sub = create_subscription(pricing, "P", ["aLast", "zFirst"], T0)
    sub = subscriptions.record_usage(pricing, sub, "shared", Decimal(5), T0)
    want = reference_evaluate(pricing, sub, feature, T0)
    context = evaluation_context(pricing, sub, T0)
    assert evaluate_feature(pricing, sub, feature, T0) == context[feature] == want
    enabled, value, limits = GRANT_ORDER_CASES[feature]
    assert (want.enabled, want.value, tuple(s.limit for s in want.limits)) == \
        (enabled, value, limits)
    if limits:  # plan 4 plus aLast's 2, of which 5 used
        assert want.limits == (LimitStatus("shared", Decimal(6), Decimal(5), Decimal(1)),)
        assert len({id(context[name].limits[0]) for name in ("sharedA", "sharedB",
                                                             "sharedC")}) == 1


# -- R2 and the stats counts ---------------------------------------------------

def reference_orphans(pricing):
    """R2 violations the slow way: each feature against every resolved plan and add-on."""
    resolved = [resolve_plan(pricing, name) for name in pricing.plans]
    return [
        Violation(Rule.R2_ORPHAN_FEATURE, (name,),
                  f"feature {name!r} is truthy in no plan and granted by no add-on")
        for name in pricing.features
        if not any(r.feature_values[name].truthy for r in resolved)
        and not any(name in add_on.feature_grants and add_on.feature_grants[name].truthy
                    for add_on in pricing.add_ons.values())
    ]


def reference_managed_counts(pricing):
    """The managed-feature counts of ``pricing_stats``, the slow way."""
    resolved = [resolve_plan(pricing, name) for name in pricing.plans]
    return {
        "planManagedFeatures": sum(
            any(r.feature_values[name].truthy for r in resolved) for name in pricing.features),
        "addOnManagedFeatures": sum(
            any(add_on.feature_grants.get(name) is not None and add_on.feature_grants[name].truthy
                for add_on in pricing.add_ons.values())
            for name in pricing.features),
        "addOnFeatureCounts": {
            name: sum(value.truthy for value in add_on.feature_grants.values())
            for name, add_on in pricing.add_ons.items()},
    }


def test_r2_and_stats_equal_whole_catalog_reference():
    rng = random.Random(603)
    seen = Counter()
    for _ in range(120):
        pricing = random_pricing(rng)
        report = validate(pricing)
        orphans = reference_orphans(pricing)
        want = sorted([v for v in report.violations if v.rule is not Rule.R2_ORPHAN_FEATURE]
                      + orphans, key=lambda v: (v.rule.value, v.subjects[0]))
        assert report == ValidationReport(valid=not want, violations=tuple(want))
        stats = pricing_stats(pricing).to_dict()
        assert json.dumps(stats) == json.dumps({**stats, **reference_managed_counts(pricing)})
        seen["no add-ons"] += not pricing.add_ons
        seen["no plans"] += not pricing.plans
        seen["a plan without overrides"] += any(
            not plan.feature_overrides for plan in pricing.plans.values())
        seen["orphans"] += bool(orphans)
    assert min(seen.values()) >= 5, seen


# -- R1 and classification -----------------------------------------------------

def reference_duplicates(pricing):
    """R1 violations the slow way: every pair of plans, resolved in full."""
    resolved = {name: resolve_plan(pricing, name) for name in pricing.plans}
    return [
        Violation(Rule.R1_DUPLICATE_PLANS, (a, b),
                  f"plans {a!r} and {b!r} resolve to identical features and usage limits")
        for a, b in combinations(pricing.plans, 2)
        if resolved[a].feature_values == resolved[b].feature_values
        and resolved[a].limit_values == resolved[b].limit_values
    ]


def reference_classes(pricing):
    """``classify_features`` the slow way: each feature across every resolved plan."""
    resolved = [resolve_plan(pricing, name) for name in pricing.plans]
    return {
        name: FeatureClass.COMMON
        if all(r.feature_values[name] == resolved[0].feature_values[name] for r in resolved)
        else FeatureClass.SPECIFIC
        for name in pricing.features
    }


def _respelled(plan, name):
    """A copy of ``plan`` named ``name`` whose numbers gain a trailing zero: 5 reads 5.0."""
    def respell(value):
        text = format(value, "f")
        return Decimal(text + ("0" if "." in text else ".0"))

    features = {f: FeatureValue.numeric(respell(v.value)) if v.kind is ValueKind.NUMERIC else v
                for f, v in plan.feature_overrides.items()}
    return Plan(name, plan.price, features,
                {limit: respell(v) for limit, v in plan.limit_overrides.items()})


def _spelling_and_kind_pricing():
    """Plans whose overrides differ only in spelling (5, 5.0), or hold the same
    payload in two kinds (true, 1), which Python alone counts as equal."""
    features = {"flag": Feature("flag", FeatureType.DOMAIN),
                "amount": Feature("amount", FeatureType.DOMAIN, ValueKind.NUMERIC),
                "everywhere": Feature("everywhere", FeatureType.DOMAIN, ValueKind.NUMERIC)}
    limits = {"calls": UsageLimit("calls", LimitKind.NON_RENEWABLE, "call", Decimal(1))}

    def plan(name, limit=None, **values):
        values = {"everywhere": FeatureValue.numeric("5" + ".0" * (len(name) % 2)), **values}
        return Plan(name, Decimal(1), values, {"calls": Decimal(limit)} if limit else {})

    plans = {
        "FIVE": plan("FIVE", "5", amount=FeatureValue.numeric("5")),
        "FIVE_0": plan("FIVE_0", "5.00", amount=FeatureValue.numeric("5.0")),
        "FLAG": plan("FLAG", flag=TRUE),
        "AMOUNT_ONE": plan("AMOUNT_ONE", amount=FeatureValue.numeric(1)),
        "DEFAULTS": plan("DEFAULTS", "1", amount=FeatureValue.numeric(0), flag=FALSE),
        "PLAIN": plan("PLAIN"),
    }
    return Pricing("Spellings", "1", "USD", Period(1, PeriodUnit.MONTH), features, limits, plans)


def test_r1_and_classes_equal_whole_catalog_reference():
    pricing = _spelling_and_kind_pricing()
    duplicates = [v for v in validate(pricing).violations if v.rule is Rule.R1_DUPLICATE_PLANS]
    assert [v.subjects for v in duplicates] == [("DEFAULTS", "PLAIN"), ("FIVE", "FIVE_0")]
    assert duplicates == sorted(reference_duplicates(pricing), key=lambda v: v.subjects)
    assert classify_features(pricing) == reference_classes(pricing) == {
        "flag": FeatureClass.SPECIFIC, "amount": FeatureClass.SPECIFIC,
        "everywhere": FeatureClass.COMMON}

    rng = random.Random(604)
    seen = Counter()
    for _ in range(150):
        pricing = random_pricing(rng)
        if pricing.plans and rng.random() < 0.6:  # a copy of a plan, its numbers respelled
            plan = rng.choice(list(pricing.plans.values()))
            pricing = replace(pricing, plans={**pricing.plans,
                                              "RESPELLED": _respelled(plan, "RESPELLED")})
            seen["respelled"] += 1
        report = validate(pricing)
        duplicates = reference_duplicates(pricing)
        want = sorted([v for v in report.violations if v.rule is not Rule.R1_DUPLICATE_PLANS]
                      + duplicates, key=lambda v: (v.rule.value, v.subjects[0]))
        assert report == ValidationReport(valid=not want, violations=tuple(want))
        if pricing.plans:
            classes = classify_features(pricing)
            assert list(classes.items()) == list(reference_classes(pricing).items())
            seen["common"] += FeatureClass.COMMON in classes.values()
            seen["specific"] += FeatureClass.SPECIFIC in classes.values()
        seen["duplicates"] += bool(duplicates)
    assert min(seen.values()) >= 5, seen


# -- windows shared by counters ------------------------------------------------

def per_counter_lapse(pricing, subscription, now):
    """``lapse_windows`` with each periodic counter checking its own window."""
    start = subscription.start_instant
    usage = dict(subscription.usage)
    for name, state in subscription.usage.items():
        limit = pricing.usage_limits.get(name)
        if limit is None or limit.period is None or state.window_index is None:
            continue
        if window_started(start, limit.period, state.window_index, now):
            k = latest_window_index(start, limit.period, now)
            usage[name] = UsageState(Decimal(0), advance(start, limit.period, k), k)
    return replace(subscription, usage=usage)


def per_counter_from_state(pricing, state):
    """``subscription_from_state`` of a well-formed state, one ``advance`` per counter."""
    start = parse_instant(state["startInstant"])
    usage = {}
    for name, limit in pricing.usage_limits.items():
        entry = state["usage"][name]
        used = Decimal(entry["used"])
        if limit.period is None:
            usage[name] = UsageState(used)
        else:
            index = entry["windowIndex"]
            usage[name] = UsageState(used, advance(start, limit.period, index), index)
    contract = state["contractPeriod"]
    return Subscription(state["plan"], frozenset(state["addOns"]), start,
                        Period(contract["value"], PeriodUnit(contract["unit"])), usage)


def _counters(subscription):
    return [(name, repr(state.used), repr(state.window_start), state.window_index)
            for name, state in subscription.usage.items()]


_LAST = parse_instant("9999-12-31T23:59:59Z")


@st.composite
def _shared_window_cases(draw):
    """A pricing whose periodic limits outnumber its distinct periods, each limit
    holding its own ``Period`` object, and a subscription to it with counters in
    windows 0-3 and around the current one; anchors at month ends and near the
    end of the calendar."""
    pool = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(list(PeriodUnit))),
                         min_size=1, max_size=3, unique=True))
    periodic = draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1, max_size=9))
    shapes = draw(st.permutations(periodic + [None] * draw(st.integers(0, 2))))
    limits = {}
    for i, shape in enumerate(shapes):
        name = f"limit{i}"
        limits[name] = (UsageLimit(name, LimitKind.NON_RENEWABLE, "calls", Decimal(5))
                        if shape is None else
                        UsageLimit(name, LimitKind.RENEWABLE, "calls", Decimal(5),
                                   period=Period(*shape)))
    pricing = Pricing("Shared", "1", "USD", Period(1, PeriodUnit.YEAR), {}, limits,
                      {"P": Plan("P", Decimal(1))}, {})
    year = draw(st.sampled_from([2023, 2024, 9998, 9999]))
    month, day = draw(st.sampled_from([(1, 31), (2, 28), (2, 29), (4, 30), (12, 31), (3, 15)]))
    seconds = draw(st.integers(0, 86399))
    start = datetime(year, month, min(day, calendar.monthrange(year, month)[1]),
                     seconds // 3600, seconds // 60 % 60, seconds % 60, tzinfo=timezone.utc)
    span = draw(st.sampled_from([2 * 86400, 40 * 86400, 400 * 86400, 4 * 366 * 86400]))
    now = start + min(timedelta(seconds=draw(st.integers(0, span))), _LAST - start)
    usage = {}
    for name, limit in limits.items():
        used = draw(st.sampled_from([Decimal(0), Decimal("2.50"), Decimal("1E+2")]))
        if limit.period is None:
            usage[name] = UsageState(used)
            continue
        latest = latest_window_index(start, limit.period, now)
        index = draw(st.sampled_from(sorted({0, 1, 2, 3, latest, latest + 1})))
        try:
            window_start = advance(start, limit.period, index)
        except (OverflowError, ValueError):  # a window past the calendar
            index, window_start = 0, start
        usage[name] = UsageState(used, window_start, index)
    subscription = Subscription("P", frozenset(), start, Period(3, PeriodUnit.YEAR), usage)
    return pricing, subscription, now


@settings(max_examples=200, deadline=None)
@given(_shared_window_cases())
def test_shared_windows_equal_per_counter_reference(case):
    pricing, sub, now = case
    lapsed = lapse_windows(pricing, sub, now)
    want = per_counter_lapse(pricing, sub, now)
    assert lapsed == want == reference_lapse(pricing, sub, now)
    assert _counters(lapsed) == _counters(want)
    for subscription in (sub, lapsed):
        state = json.loads(json.dumps(subscription_to_state(pricing, subscription)))
        loaded = subscription_from_state(pricing, state)
        want = per_counter_from_state(pricing, state)
        assert loaded == want == subscription
        assert _counters(loaded) == _counters(want)


def test_window_arithmetic_runs_once_per_distinct_window(monkeypatch):
    # 60 periodic limits over three periods, each limit holding its own Period.
    periods = [(1, PeriodUnit.DAY), (1, PeriodUnit.WEEK), (1, PeriodUnit.MONTH)]
    limits = {f"limit{i}": UsageLimit(f"limit{i}", LimitKind.RENEWABLE, "calls", Decimal(5),
                                      period=Period(*periods[i % 3]))
              for i in range(60)}
    limits["total"] = UsageLimit("total", LimitKind.NON_RENEWABLE, "calls", Decimal(5))
    pricing = Pricing("Wide", "1", "USD", Period(1, PeriodUnit.MONTH), {}, limits,
                      {"P": Plan("P", Decimal(1))}, {})
    sub = create_subscription(pricing, "P", [], T0)
    # Windows 0-3 of each period: twelve distinct (period, window index) keys.
    sub = replace(sub, usage={
        name: state if state.window_index is None else
        UsageState(Decimal(1), advance(T0, pricing.usage_limits[name].period, i // 3 % 4),
                   i // 3 % 4)
        for i, (name, state) in enumerate(sub.usage.items())})
    keys = {(pricing.usage_limits[name].period, state.window_index)
            for name, state in sub.usage.items() if state.window_index is not None}
    assert len(keys) == 12
    state = subscription_to_state(pricing, sub)
    want_loaded = per_counter_from_state(pricing, state)

    calls = Counter()

    def counted(name):
        function = getattr(subscriptions, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(subscriptions, name, wrapper)

    for name in ("window_started", "latest_window_index", "advance"):
        counted(name)
    for days in (0, 9, 100):  # no window, some and every window renewed
        now = T0 + timedelta(days=days)
        calls.clear()
        assert lapse_windows(pricing, sub, now) == per_counter_lapse(pricing, sub, now)
        assert 0 < calls["window_started"] <= len(keys)
        assert calls["latest_window_index"] == calls["advance"] <= len(keys)
    assert calls["advance"] > 0  # the last instant renewed windows
    calls.clear()
    assert subscription_from_state(pricing, state) == want_loaded == sub
    assert 0 < calls["advance"] <= len(keys)
    assert calls["window_started"] == calls["latest_window_index"] == 0


# -- whole-subscription work done once per call --------------------------------

def _count_calls(monkeypatch, calls, *names):
    """Count the engine's calls to ``subscriptions``' own names."""
    for name in names:
        function = getattr(subscriptions, name)

        def wrapper(*args, _name=name, _function=function):
            calls[_name] += 1
            return _function(*args)
        monkeypatch.setattr(subscriptions, name, wrapper)


def _distinct_windows(subscription):
    return {(subscription.start_instant, state.window_start, state.window_index)
            for state in subscription.usage.values() if state.window_index is not None}


def test_context_works_out_each_linked_limit_once(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, "_effective")
    rng = random.Random(603)
    shared = 0  # contexts in which some limit is linked to two or more features
    for _ in range(40):
        pricing = random_pricing(rng, min_plans=1, min_limits=1)
        links = [limit for limits in pricing._index.linked_limits.values() for limit in limits]
        for sub, now in _random_subscriptions(rng, pricing, 2):
            calls.clear()
            context = evaluation_context(pricing, sub, now)
            assert calls["_effective"] <= len(set(links))
            assert context == {feature: reference_evaluate(pricing, sub, feature, now)
                               for feature in pricing.features}
            shared += len(links) > len(set(links))
    assert shared > 10


def test_save_formats_each_distinct_window_start_once(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, "format_instant")
    rng = random.Random(604)
    shared = 0  # saves in which two or more counters share a window start
    for _ in range(40):
        pricing = random_pricing(rng, min_plans=1, min_limits=1)
        for sub, _ in _random_subscriptions(rng, pricing, 2):
            starts = {state.window_start for state in sub.usage.values()
                      if state.window_index is not None}
            calls.clear()
            text = subscriptions.subscription_to_json(pricing, sub)
            assert calls["format_instant"] <= len(starts) + 1
            assert text == json.dumps(subscription_to_state(pricing, sub), indent=2) + "\n"
            shared += sum(state.window_index is not None
                          for state in sub.usage.values()) > len(starts)
    assert shared > 10


def test_lapse_with_no_window_ended_checks_each_window_once(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, "window_started", "latest_window_index", "advance")
    rng = random.Random(605)
    shared = 0  # subscriptions in which two or more counters share a window
    for _ in range(40):
        pricing = random_pricing(rng, min_plans=1, min_limits=1)
        for sub, now in _random_subscriptions(rng, pricing, 2):
            lapsed = lapse_windows(pricing, sub, now)
            keys = {(pricing.usage_limits[name].period, state.window_index)
                    for name, state in lapsed.usage.items() if state.window_index is not None}
            calls.clear()
            assert lapse_windows(pricing, lapsed, now) is lapsed
            assert calls == Counter({"window_started": len(keys)} if keys else {})
            shared += sum(state.window_index is not None
                          for state in lapsed.usage.values()) > len(keys)
    assert shared > 10


# -- diff at the cost of what changed ------------------------------------------

def reference_diff(old, new):
    """``diff`` resolving, for every plan, every entry of the new catalog."""
    changes = []
    add = changes.append
    for key, attr, _, kind, _ in FIELDS[Pricing]:
        before, after = getattr(old, attr), getattr(new, attr)
        if not isinstance(after, dict):
            if before != after:
                add(Change(kind, (key,), before, after))
            continue
        added, removed = kind
        for name in before:
            if name not in after:
                add(Change(removed, (name,)))
        for name, entry in after.items():
            if name not in before:
                add(Change(added, (name,), definition=to_json(entry)))
            else:
                _reference_diff_entry(old, new, name, before[name], entry, add)
    changes.sort(key=Change.sort_key)
    return ChangeSet(tuple(changes))


def _reference_diff_entry(old, new, name, before, after, add):
    for _, attr, holds, kind, _ in FIELDS[type(after)]:
        o, n = getattr(before, attr), getattr(after, attr)
        if not isinstance(n, dict):
            if o != n:
                scope = ("default",) if kind is ChangeKind.LIMIT_THRESHOLD_CHANGED else ()
                add(Change(kind, (*scope, name), o, n))
        elif type(after) is Plan:
            catalog = _CATALOG_ATTR[holds.entry]
            old_catalog, new_catalog = getattr(old, catalog), getattr(new, catalog)
            for ref, entry in new_catalog.items():
                if ref in old_catalog:
                    ov = o.get(ref, old_catalog[ref].default_value)
                    nv = n.get(ref, entry.default_value)
                    if ov != nv:
                        add(Change(kind, (name, ref), ov, nv))
                elif ref in n:
                    add(Change(kind, (name, ref), None, n[ref]))
        else:
            for ref in o.keys() | n.keys():
                ov, nv = o.get(ref), n.get(ref)
                if ov != nv:
                    add(Change(kind, (name, ref), ov, nv))


_SIDES = ("old", "new", "both", "neither")  # where a plan overrides the entry


def _value_like(rng, value):
    """A value of the kind of ``value``: a feature value or a threshold."""
    if isinstance(value, FeatureValue):
        return _random_value(rng, value.kind)
    return Decimal(rng.choice(DECIMALS + ["5.0", "1E+1"]))


def _moved_default(rng, pricing, key):
    """(old, new, sides): one entry of catalog ``key`` ("features" or
    "usageLimits") changes its default (or respells it), and each plan
    overrides it on the side ``sides`` names for it."""
    old_raw, new_raw = to_raw(pricing), to_raw(pricing)
    name = rng.choice(sorted(old_raw[key]))
    default = old_raw[key][name]["defaultValue"]
    new_raw[key][name]["defaultValue"] = _value_like(rng, default)
    sides = {}
    for plan in old_raw["plans"]:
        side = sides[plan] = rng.choice(_SIDES)
        for raw, on in ((old_raw, ("old", "both")), (new_raw, ("new", "both"))):
            overrides = raw["plans"][plan][key]
            if side in on:
                overrides[name] = _value_like(rng, default)
            else:
                overrides.pop(name, None)
    return from_raw(old_raw), from_raw(new_raw), sides


def _replaced_entry(rng, pricing, key):
    """(old, new): an entry of catalog ``key`` that plans override in the old
    pricing leaves the catalog, and a copy under a new name that plans
    override in the new one joins it."""
    raw = to_raw(pricing)
    name = rng.choice(sorted(raw[key]))
    default = raw[key][name]["defaultValue"]
    for plan in raw["plans"].values():
        if rng.random() < 0.7:
            plan[key][name] = _value_like(rng, default)
    old = from_raw(raw)
    raw = to_raw(old)
    joined = copy.deepcopy(raw[key][name])
    del raw[key][name]
    (_remove_feature_refs if key == "features" else _remove_limit_refs)(raw, name)
    raw[key][name + "Joined"] = joined
    for plan in raw["plans"].values():
        if rng.random() < 0.7:
            plan[key][name + "Joined"] = _value_like(rng, default)
    return old, from_raw(raw)


def _assert_diff_equals_reference(old, new):
    for a, b in ((old, new), (new, old)):
        got, want = diff(a, b), reference_diff(a, b)
        assert got.to_json_lines() == want.to_json_lines()
        assert got == want


def test_diff_equals_whole_catalog_reference():
    rng = random.Random(606)
    seen = Counter()
    for _ in range(150):
        pricing = random_pricing(rng, rule_clean=True, min_plans=1)
        _assert_diff_equals_reference(pricing, mutate_pricing(rng, pricing, rng.randint(1, 4)))
        again = from_raw(to_raw(pricing))
        assert not diff(pricing, again) and not reference_diff(pricing, again)
        seen["equal"] += 1
        for key, kind in (("features", ChangeKind.PLAN_FEATURE_VALUE_CHANGED),
                          ("usageLimits", ChangeKind.LIMIT_THRESHOLD_CHANGED)):
            if not to_raw(pricing)[key]:
                continue
            old, new, sides = _moved_default(rng, pricing, key)
            _assert_diff_equals_reference(old, new)
            moved = {change.subjects[0] for change in diff(old, new)
                     if change.kind is kind and change.subjects[0] in sides}
            seen.update(f"{key} {sides[plan]}" for plan in moved)
            try:
                old, new = _replaced_entry(rng, pricing, key)
            except ModelError:  # an add-on left granting and extending nothing
                continue
            _assert_diff_equals_reference(old, new)
            seen[f"{key} replaced"] += 1
    # Plans whose resolved value moved, by where they override the entry.
    assert min(seen.values()) >= 20, seen
    assert len(seen) == 11, seen


# -- the state load, counter by counter ----------------------------------------

def reference_from_state(pricing, state):
    """``subscription_from_state`` as one loop over the catalog's limits: every
    check and one ``advance`` per counter, with the same messages."""
    if not isinstance(state, dict):
        raise ValueError("subscription state must be a JSON object")
    try:
        saas_name, plan, add_ons = state["saasName"], state["plan"], state["addOns"]
        start_text, contract, usage_doc = (state["startInstant"], state["contractPeriod"],
                                           state["usage"])
    except (KeyError, TypeError):
        raise ValueError("subscription state is missing required fields") from None
    if saas_name != pricing.saas_name:
        raise ValueError(
            f"state refers to {saas_name!r}, not to this pricing ({pricing.saas_name!r})")
    if not isinstance(plan, str) or not isinstance(start_text, str):
        raise ValueError("plan and startInstant must be strings")
    if plan not in pricing.plans:
        raise UnknownPlanError(plan)
    if not isinstance(add_ons, list) or not all(isinstance(name, str) for name in add_ons):
        raise ValueError("addOns must be a list of names")
    _check_add_ons(pricing, plan, add_ons)
    start = parse_instant(start_text)
    try:
        period = Period(contract["value"], PeriodUnit(contract["unit"]))
    except (KeyError, TypeError, ValueError, ModelError):
        period = None
    if period is None or out_of_range(Period, period) is not None:
        raise ValueError("contractPeriod must be {value, unit}")
    if not isinstance(usage_doc, dict) or set(usage_doc) != set(pricing.usage_limits):
        raise ValueError("usage map does not match this pricing's usage limits")
    usage = {}
    for name, limit in pricing.usage_limits.items():
        entry = usage_doc[name]
        if not isinstance(entry, dict) or "used" not in entry:
            raise ValueError(f"usage entry for {name!r} is malformed")
        try:
            used = Decimal(str(entry["used"]))
        except ArithmeticError:
            raise ValueError(f"usage entry for {name!r} has a bad counter") from None
        if not used.is_finite() or used < 0:
            raise ValueError(f"usage entry for {name!r} has a bad counter")
        if not -MAX_EXPONENT <= used.adjusted() <= MAX_EXPONENT:
            raise ValueError(f"usage entry for {name!r} has a counter exponent "
                             f"outside -{MAX_EXPONENT}..{MAX_EXPONENT}")
        if limit.period is None:
            usage[name] = UsageState(used)
            continue
        index = entry.get("windowIndex")
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise ValueError(f"usage entry for {name!r} needs a windowIndex")
        try:
            usage[name] = UsageState(used, advance(start, limit.period, index), index)
        except (OverflowError, ValueError):
            raise ValueError(f"usage entry for {name!r} has a windowIndex past the calendar"
                             ) from None
    return Subscription(plan, frozenset(add_ons), start, period, usage)


# (field, value) put into one counter's entry; ``None`` as the field replaces
# the entry, and a missing value deletes the field.
_BAD_COUNTERS = [
    (None, []), (None, "0"), (None, None), ("used",), ("windowIndex",),
    ("used", "abc"), ("used", ""), ("used", "-1"), ("used", "-0.5"), ("used", "NaN"),
    ("used", "sNaN"), ("used", "-Infinity"), ("used", "1E+1001"), ("used", "1E-1001"),
    ("used", [1]), ("used", None), ("used", 7), ("used", "1E+1000"),
    ("windowIndex", None), ("windowIndex", True), ("windowIndex", -1), ("windowIndex", "0"),
    ("windowIndex", 0.0), ("windowIndex", [0]), ("windowIndex", 10**6), ("windowIndex", 10**12),
]


@st.composite
def _state_cases(draw):
    """A saved state of a ``_shared_window_cases`` subscription whose counter
    texts repeat or are all distinct, with up to two bad counters at random
    catalog positions, an entry missing or extra now and then, and the usage
    map in catalog or reversed order."""
    pricing, sub, _ = draw(_shared_window_cases())
    state = json.loads(json.dumps(subscription_to_state(pricing, sub)))
    names = list(pricing.usage_limits)
    repeated = draw(st.booleans())
    for i, name in enumerate(names):
        state["usage"][name]["used"] = (
            draw(st.sampled_from(["0", "2.50", "1E+2"])) if repeated else f"{i}.{i + 1}")
    for position, bad in draw(st.lists(st.tuples(st.integers(0, len(names) - 1),
                                                 st.sampled_from(_BAD_COUNTERS)), max_size=2)):
        entry = state["usage"][names[position]]
        if not isinstance(entry, dict):  # replaced already
            continue
        if bad[0] is None:
            state["usage"][names[position]] = bad[1]
        elif len(bad) == 1:
            entry.pop(bad[0], None)
        else:
            entry[bad[0]] = bad[1]
    keys = draw(st.sampled_from(["same", "missing", "extra"]) if draw(st.integers(0, 9)) == 0
                else st.just("same"))
    if keys == "missing":
        del state["usage"][draw(st.sampled_from(names))]
    elif keys == "extra":
        state["usage"]["stray"] = {"used": "0"}
    if draw(st.booleans()):
        state["usage"] = dict(reversed(state["usage"].items()))
    return pricing, state


@settings(max_examples=400, deadline=None)
@given(_state_cases())
def test_load_equals_counter_by_counter_reference(case):
    pricing, state = case
    try:
        want = reference_from_state(pricing, copy.deepcopy(state))
    except Exception as expected:  # the load raises the same error, with the same message
        with pytest.raises(type(expected)) as caught:
            subscription_from_state(pricing, state)
        assert type(caught.value) is type(expected)
        assert str(caught.value) == str(expected)
        return
    loaded = subscription_from_state(pricing, state)
    assert loaded == want
    assert _counters(loaded) == _counters(want)
    if all(isinstance(entry["used"], str) for entry in state["usage"].values()):
        assert loaded == per_counter_from_state(pricing, state)
    for name, counter in loaded.usage.items():
        built = UsageState(counter.used, counter.window_start, counter.window_index)
        assert type(counter) is UsageState
        assert counter == built and hash(counter) == hash(built)
