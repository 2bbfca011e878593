"""Seeded generators and independent oracles shared by the test suite.

Everything here is deliberately written the slow, obvious way — linear
window scans, dict-level resolution, raw replays — so that agreement with
the library is evidence, not tautology.
"""

from __future__ import annotations

import calendar
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from decimal import Decimal

from pricebook import (
    AddOn,
    Change,
    ChangeKind,
    ChangeSet,
    Feature,
    FeatureType,
    FeatureValue,
    LimitKind,
    Period,
    PeriodUnit,
    Plan,
    Pricing,
    QuotaExceededError,
    UnknownPlanError,
    UsageLimit,
    ValueKind,
    format_instant,
    lapse_windows,
    record_usage,
    reset_usage,
    validate,
)

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "tau", "lambda_", "kappa", "zeta"]

DESCRIPTIONS = [
    "",
    "plain words here",
    "with, punctuation. and (parens)",
    "naïve café text",
    "line\nbreak and\ttab",
    "true",
    "100",
    "1e5",
    "  padded  ",
    "- leading dash",
    "[flowish]",
    "{mapish}",
    "a: b # c",
    'quotes " and backslash \\',
    "emoji ✨ and 中文",
    "null",
]

DECIMALS = ["0", "1", "2", "3", "5", "10", "40", "100", "250", "0.5", "1.25", "99.99", "1000"]
POSITIVE_DECIMALS = ["1", "2", "5", "10", "50", "100", "900", "0.5", "2.25"]
TEXTS = ["", "basic", "premium", "24/7", "gold tier", "café", "yes: quoted"]
METRICS = ["calls", "GB", "tokens", "minutes", "seats", "messages"]
CURRENCIES = ["USD", "EUR", "GBP", "JPY"]
BILLING_PERIODS = [(1, PeriodUnit.MONTH), (1, PeriodUnit.YEAR), (2, PeriodUnit.WEEK),
                   (3, PeriodUnit.MONTH), (1, PeriodUnit.WEEK)]
LIMIT_PERIODS = [(1, PeriodUnit.DAY), (1, PeriodUnit.WEEK), (2, PeriodUnit.WEEK),
                 (1, PeriodUnit.MONTH), (3, PeriodUnit.MONTH), (1, PeriodUnit.YEAR)]


def _random_value(rng: random.Random, kind: ValueKind) -> FeatureValue:
    if kind is ValueKind.BOOLEAN:
        return FeatureValue.boolean(rng.random() < 0.5)
    if kind is ValueKind.NUMERIC:
        return FeatureValue.numeric(Decimal(rng.choice(DECIMALS)))
    return FeatureValue.text(rng.choice(TEXTS))


def _truthy_value(rng: random.Random, kind: ValueKind) -> FeatureValue:
    if kind is ValueKind.BOOLEAN:
        return FeatureValue.boolean(True)
    if kind is ValueKind.NUMERIC:
        return FeatureValue.numeric(Decimal(rng.choice(["1", "5", "100"])))
    return FeatureValue.text(rng.choice(["on", "gold", "yes"]))


def random_pricing(rng: random.Random, *, rule_clean: bool = False,
                   min_limits: int = 0, min_plans: int = 0) -> Pricing:
    """A structurally valid random pricing; rule_clean also passes validate()."""
    for _ in range(200):
        pricing = _random_pricing_once(rng, rule_clean=rule_clean,
                                       min_limits=min_limits, min_plans=min_plans)
        if pricing is None:
            continue
        if not rule_clean or validate(pricing).valid:
            return pricing
    raise AssertionError("generator failed to produce a pricing")


def _random_pricing_once(rng, *, rule_clean, min_limits, min_plans):
    n_features = rng.randint(0, 10)
    n_limits = rng.randint(min_limits, 5)
    n_plans = rng.randint(min_plans, 4)
    n_add_ons = rng.randint(0, 3)
    if n_features == 0 and n_limits == 0:
        n_add_ons = 0  # an add-on must grant or extend something
    if n_plans == 0 and n_add_ons == 0:
        n_plans = 1
    if rule_clean and n_features == 0 and n_limits == 0:
        n_plans = 1  # two empty plans can never differ (R1)

    billing = Period(*rng.choice(BILLING_PERIODS))
    fitting_periods = [p for p in LIMIT_PERIODS
                       if Period(*p).canonical_days <= billing.canonical_days]

    features: dict[str, Feature] = {}
    for i in range(n_features):
        name = f"{rng.choice(WORDS)}Feature{i}"
        kind = rng.choice([ValueKind.BOOLEAN, ValueKind.BOOLEAN, ValueKind.NUMERIC,
                           ValueKind.TEXT])
        features[name] = Feature(
            name=name,
            feature_type=rng.choice(list(FeatureType)),
            value_kind=kind,
            default_value=_random_value(rng, kind),
            description=rng.choice(DESCRIPTIONS),
        )

    limits: dict[str, UsageLimit] = {}
    for i in range(n_limits):
        name = f"{rng.choice(WORDS)}Limit{i}"
        kind = rng.choice(list(LimitKind))
        period = None
        if kind is LimitKind.RENEWABLE:
            period = Period(*rng.choice(fitting_periods if rule_clean else LIMIT_PERIODS))
        elif kind is not LimitKind.NON_RENEWABLE and rng.random() < 0.5:
            period = Period(*rng.choice(fitting_periods if rule_clean else LIMIT_PERIODS))
        linked = rng.sample(sorted(features), k=min(len(features), rng.randint(0, 2)))
        limits[name] = UsageLimit(
            name=name,
            kind=kind,
            metric=rng.choice(METRICS),
            default_value=Decimal(rng.choice(DECIMALS)),
            period=period,
            linked_features=tuple(linked),
            description=rng.choice(DESCRIPTIONS),
        )

    plans: dict[str, Plan] = {}
    for i in range(n_plans):
        name = f"Plan{i}"
        overrides = {
            f: _random_value(rng, feat.value_kind)
            for f, feat in features.items() if rng.random() < 0.4
        }
        limit_overrides = {
            l: Decimal(rng.choice(DECIMALS))
            for l in limits if rng.random() < 0.4
        }
        plans[name] = Plan(name=name, price=Decimal(rng.choice(DECIMALS)),
                           feature_overrides=overrides, limit_overrides=limit_overrides)

    add_ons: dict[str, AddOn] = {}
    for i in range(n_add_ons):
        name = f"addon{i}"
        grants = {
            f: _random_value(rng, feat.value_kind)
            for f, feat in features.items() if rng.random() < 0.3
        }
        extensions = {
            l: Decimal(rng.choice(POSITIVE_DECIMALS))
            for l in limits if rng.random() < 0.3
        }
        if not grants and not extensions:
            if features and (rng.random() < 0.5 or not limits):
                f = rng.choice(sorted(features))
                grants[f] = _truthy_value(rng, features[f].value_kind)
            elif limits:
                extensions[rng.choice(sorted(limits))] = Decimal(rng.choice(POSITIVE_DECIMALS))
            else:
                continue
        available = ()
        if plans and rng.random() < 0.5:
            available = tuple(rng.sample(sorted(plans), k=rng.randint(1, len(plans))))
        add_ons[name] = AddOn(name=name, price=Decimal(rng.choice(DECIMALS)),
                              available_for=available, feature_grants=grants,
                              limit_extensions=extensions)

    if rule_clean:
        # R2 fix-up: make every feature truthy somewhere.
        for f, feat in features.items():
            plan_truthy = any(
                p.feature_overrides.get(f, feat.default_value).truthy for p in plans.values()
            )
            grant_truthy = any(
                f in a.feature_grants and a.feature_grants[f].truthy for a in add_ons.values()
            )
            if plan_truthy or grant_truthy:
                continue
            if plans:
                target = plans[rng.choice(sorted(plans))]
                target.feature_overrides[f] = _truthy_value(rng, feat.value_kind)
            elif add_ons:
                target = add_ons[rng.choice(sorted(add_ons))]
                target.feature_grants[f] = _truthy_value(rng, feat.value_kind)

    try:
        return Pricing(
            saas_name=rng.choice(["Notely", "Meetly", "Shiply", "Mailbird"]),
            version=rng.choice(["1.0", "2.3.1", "2026-01", "v7"]),
            currency=rng.choice(CURRENCIES),
            billing_period=billing,
            features=features,
            usage_limits=limits,
            plans=plans,
            add_ons=add_ons,
        )
    except Exception:
        return None


# -- raw form used by the mutation generator and the patch oracle -----------

def to_raw(p: Pricing) -> dict:
    return {
        "saasName": p.saas_name,
        "version": p.version,
        "currency": p.currency,
        "billingPeriod": p.billing_period,
        "features": {
            name: {
                "type": f.feature_type,
                "valueType": f.value_kind,
                "defaultValue": f.default_value,
                "description": f.description,
            }
            for name, f in p.features.items()
        },
        "usageLimits": {
            name: {
                "type": l.kind,
                "metric": l.metric,
                "period": l.period,
                "defaultValue": l.default_value,
                "linkedFeatures": list(l.linked_features),
                "description": l.description,
            }
            for name, l in p.usage_limits.items()
        },
        "plans": {
            name: {
                "price": pl.price,
                "features": dict(pl.feature_overrides),
                "usageLimits": dict(pl.limit_overrides),
            }
            for name, pl in p.plans.items()
        },
        "addOns": {
            name: {
                "price": a.price,
                "availableFor": list(a.available_for),
                "features": dict(a.feature_grants),
                "usageLimitExtensions": dict(a.limit_extensions),
            }
            for name, a in p.add_ons.items()
        },
    }


def from_raw(raw: dict) -> Pricing:
    return Pricing(
        saas_name=raw["saasName"],
        version=raw["version"],
        currency=raw["currency"],
        billing_period=raw["billingPeriod"],
        features={
            name: Feature(name=name, feature_type=f["type"], value_kind=f["valueType"],
                          default_value=f["defaultValue"], description=f["description"])
            for name, f in raw["features"].items()
        },
        usage_limits={
            name: UsageLimit(name=name, kind=l["type"], metric=l["metric"],
                             default_value=l["defaultValue"], period=l["period"],
                             linked_features=tuple(l["linkedFeatures"]),
                             description=l["description"])
            for name, l in raw["usageLimits"].items()
        },
        plans={
            name: Plan(name=name, price=pl["price"], feature_overrides=pl["features"],
                       limit_overrides=pl["usageLimits"])
            for name, pl in raw["plans"].items()
        },
        add_ons={
            name: AddOn(name=name, price=a["price"],
                        available_for=tuple(a["availableFor"]),
                        feature_grants=a["features"],
                        limit_extensions=a["usageLimitExtensions"])
            for name, a in raw["addOns"].items()
        },
    )


# -- mutations ---------------------------------------------------------------

def _remove_feature_refs(raw: dict, name: str) -> None:
    for plan in raw["plans"].values():
        plan["features"].pop(name, None)
    for add_on in raw["addOns"].values():
        add_on["features"].pop(name, None)
    for limit in raw["usageLimits"].values():
        limit["linkedFeatures"] = [f for f in limit["linkedFeatures"] if f != name]


def _remove_limit_refs(raw: dict, name: str) -> None:
    for plan in raw["plans"].values():
        plan["usageLimits"].pop(name, None)
    for add_on in raw["addOns"].values():
        add_on["usageLimitExtensions"].pop(name, None)


def _mutate_once(rng: random.Random, raw: dict) -> bool:
    """Apply one random taxonomy mutation in place; False if inapplicable."""
    features = raw["features"]
    limits = raw["usageLimits"]
    plans = raw["plans"]
    add_ons = raw["addOns"]
    billing: Period = raw["billingPeriod"]
    fitting = [p for p in LIMIT_PERIODS if Period(*p).canonical_days <= billing.canonical_days]
    kind = rng.choice([
        "metadata", "feature_default", "feature_type", "feature_description",
        "feature_add", "feature_remove", "limit_threshold_default", "limit_threshold_plan",
        "limit_metric", "limit_period", "limit_linked", "limit_add", "limit_remove",
        "plan_price", "plan_feature", "plan_add", "plan_remove",
        "addon_price", "addon_availability", "addon_grant", "addon_extension",
        "addon_add", "addon_remove",
    ])

    if kind == "metadata":
        field = rng.choice(["saasName", "version", "currency", "billingPeriod"])
        if field == "billingPeriod":
            raw[field] = Period(*rng.choice(BILLING_PERIODS))
        elif field == "currency":
            raw[field] = rng.choice([c for c in CURRENCIES if c != raw[field]])
        else:
            raw[field] = raw[field] + "x"
        return True
    if kind == "feature_default" and features:
        name = rng.choice(sorted(features))
        feat = features[name]
        for _ in range(10):
            value = _random_value(rng, feat["valueType"])
            if value != feat["defaultValue"]:
                feat["defaultValue"] = value
                return True
        return False
    if kind == "feature_type" and features:
        name = rng.choice(sorted(features))
        feat = features[name]
        feat["type"] = rng.choice([t for t in FeatureType if t is not feat["type"]])
        return True
    if kind == "feature_description" and features:
        name = rng.choice(sorted(features))
        features[name]["description"] = features[name]["description"] + " changed"
        return True
    if kind == "feature_add":
        name = f"addedFeature{len(features)}"
        if name in features or name in limits:
            return False
        value_kind = rng.choice(list(ValueKind))
        features[name] = {
            "type": rng.choice(list(FeatureType)),
            "valueType": value_kind,
            "defaultValue": _truthy_value(rng, value_kind),
            "description": rng.choice(DESCRIPTIONS),
        }
        return True
    if kind == "feature_remove" and features:
        removable = [
            f for f in features
            if not any(
                set(a["features"]) == {f} and not a["usageLimitExtensions"]
                for a in add_ons.values()
            )
        ]
        if not removable:
            return False
        name = rng.choice(sorted(removable))
        del features[name]
        _remove_feature_refs(raw, name)
        return True
    if kind == "limit_threshold_default" and limits:
        name = rng.choice(sorted(limits))
        for _ in range(10):
            value = Decimal(rng.choice(DECIMALS))
            if value != limits[name]["defaultValue"]:
                limits[name]["defaultValue"] = value
                return True
        return False
    if kind == "limit_threshold_plan" and limits and plans:
        plan = plans[rng.choice(sorted(plans))]
        name = rng.choice(sorted(limits))
        if name in plan["usageLimits"] and rng.random() < 0.3:
            del plan["usageLimits"][name]
            return True
        current = plan["usageLimits"].get(name, limits[name]["defaultValue"])
        for _ in range(10):
            value = Decimal(rng.choice(DECIMALS))
            if value != current:
                plan["usageLimits"][name] = value
                return True
        return False
    if kind == "limit_metric" and limits:
        name = rng.choice(sorted(limits))
        limits[name]["metric"] = limits[name]["metric"] + "x"
        return True
    if kind == "limit_period" and limits:
        candidates = [l for l in limits if limits[l]["type"] is not LimitKind.NON_RENEWABLE]
        if not candidates:
            return False
        name = rng.choice(sorted(candidates))
        limit = limits[name]
        if limit["type"] is not LimitKind.RENEWABLE and limit["period"] is not None \
                and rng.random() < 0.3:
            limit["period"] = None
            return True
        for _ in range(10):
            period = Period(*rng.choice(fitting))
            if period != limit["period"]:
                limit["period"] = period
                return True
        return False
    if kind == "limit_linked" and limits and features:
        name = rng.choice(sorted(limits))
        linked = rng.sample(sorted(features), k=rng.randint(0, min(2, len(features))))
        if linked == limits[name]["linkedFeatures"]:
            return False
        limits[name]["linkedFeatures"] = linked
        return True
    if kind == "limit_add":
        name = f"addedLimit{len(limits)}"
        if name in limits or name in features:
            return False
        limit_kind = rng.choice(list(LimitKind))
        period = None
        if limit_kind is LimitKind.RENEWABLE:
            period = Period(*rng.choice(fitting))
        limits[name] = {
            "type": limit_kind,
            "metric": rng.choice(METRICS),
            "period": period,
            "defaultValue": Decimal(rng.choice(DECIMALS)),
            "linkedFeatures": rng.sample(sorted(features), k=min(len(features), rng.randint(0, 1))),
            "description": rng.choice(DESCRIPTIONS),
        }
        return True
    if kind == "limit_remove" and limits:
        removable = [
            l for l in limits
            if not any(
                set(a["usageLimitExtensions"]) == {l} and not a["features"]
                for a in add_ons.values()
            )
        ]
        if not removable:
            return False
        name = rng.choice(sorted(removable))
        del limits[name]
        _remove_limit_refs(raw, name)
        return True
    if kind == "plan_price" and plans:
        name = rng.choice(sorted(plans))
        plans[name]["price"] = plans[name]["price"] + Decimal("7")
        return True
    if kind == "plan_feature" and plans and features:
        plan = plans[rng.choice(sorted(plans))]
        name = rng.choice(sorted(features))
        if name in plan["features"] and rng.random() < 0.3:
            del plan["features"][name]
            return True
        current = plan["features"].get(name, features[name]["defaultValue"])
        for _ in range(10):
            value = _random_value(rng, features[name]["valueType"])
            if value != current:
                plan["features"][name] = value
                return True
        return False
    if kind == "plan_add":
        name = f"AddedPlan{len(plans)}"
        if name in plans:
            return False
        overrides = {}
        if features and rng.random() < 0.8:
            f = rng.choice(sorted(features))
            overrides[f] = _truthy_value(rng, features[f]["valueType"])
        plans[name] = {"price": Decimal(rng.choice(DECIMALS)), "features": overrides,
                       "usageLimits": {}}
        return True
    if kind == "plan_remove" and plans:
        if len(plans) + len(add_ons) < 2:
            return False
        name = rng.choice(sorted(plans))
        restricted = [a for a in add_ons.values() if a["availableFor"]
                      and all(p == name for p in a["availableFor"])]
        if restricted:
            return False  # would silently flip availableFor to "all plans"
        del plans[name]
        for add_on in add_ons.values():
            add_on["availableFor"] = [p for p in add_on["availableFor"] if p != name]
        return True
    if kind == "addon_price" and add_ons:
        name = rng.choice(sorted(add_ons))
        add_ons[name]["price"] = add_ons[name]["price"] + Decimal("3")
        return True
    if kind == "addon_availability" and add_ons and plans:
        name = rng.choice(sorted(add_ons))
        available = sorted(rng.sample(sorted(plans), k=rng.randint(0, len(plans))))
        if available == sorted(add_ons[name]["availableFor"]):
            return False
        add_ons[name]["availableFor"] = available
        return True
    if kind == "addon_grant" and add_ons and features:
        add_on = add_ons[rng.choice(sorted(add_ons))]
        name = rng.choice(sorted(features))
        if name in add_on["features"] and rng.random() < 0.3:
            if len(add_on["features"]) == 1 and not add_on["usageLimitExtensions"]:
                return False
            del add_on["features"][name]
            return True
        current = add_on["features"].get(name)
        for _ in range(10):
            value = _random_value(rng, features[name]["valueType"])
            if value != current:
                add_on["features"][name] = value
                return True
        return False
    if kind == "addon_extension" and add_ons and limits:
        add_on = add_ons[rng.choice(sorted(add_ons))]
        name = rng.choice(sorted(limits))
        if name in add_on["usageLimitExtensions"] and rng.random() < 0.3:
            if len(add_on["usageLimitExtensions"]) == 1 and not add_on["features"]:
                return False
            del add_on["usageLimitExtensions"][name]
            return True
        current = add_on["usageLimitExtensions"].get(name)
        for _ in range(10):
            value = Decimal(rng.choice(POSITIVE_DECIMALS))
            if value != current:
                add_on["usageLimitExtensions"][name] = value
                return True
        return False
    if kind == "addon_add" and (features or limits):
        name = f"addedAddon{len(add_ons)}"
        if name in add_ons:
            return False
        grants = {}
        extensions = {}
        if features and (rng.random() < 0.6 or not limits):
            f = rng.choice(sorted(features))
            grants[f] = _truthy_value(rng, features[f]["valueType"])
        else:
            extensions[rng.choice(sorted(limits))] = Decimal(rng.choice(POSITIVE_DECIMALS))
        add_ons[name] = {"price": Decimal(rng.choice(DECIMALS)), "availableFor": [],
                         "features": grants, "usageLimitExtensions": extensions}
        return True
    if kind == "addon_remove" and add_ons:
        if len(plans) + len(add_ons) < 2:
            return False
        del add_ons[rng.choice(sorted(add_ons))]
        return True
    return False


def mutate_pricing(rng: random.Random, pricing: Pricing, count: int) -> Pricing:
    """A validator-clean variant of ``pricing`` with up to ``count`` mutations."""
    for _ in range(200):
        raw = to_raw(pricing)
        applied = 0
        for _ in range(count * 8):
            if applied >= count:
                break
            if _mutate_once(rng, raw):
                applied += 1
        if applied == 0:
            continue
        try:
            mutated = from_raw(raw)
        except Exception:
            continue
        if validate(mutated).valid:
            return mutated
    raise AssertionError("mutation generator failed to produce a valid variant")


# -- mechanical patch application (the diff adequacy oracle) -----------------

def _value_from_json(payload: dict) -> FeatureValue:
    if payload["type"] == "BOOLEAN":
        return FeatureValue.boolean(payload["value"])
    if payload["type"] == "NUMERIC":
        return FeatureValue.numeric(Decimal(payload["value"]))
    return FeatureValue.text(payload["value"])


def _period_from_json(payload: dict | None) -> Period | None:
    if payload is None:
        return None
    return Period(payload["value"], PeriodUnit(payload["unit"]))


def apply_changes(old: Pricing, changes: ChangeSet) -> Pricing:
    """Rebuild the new pricing from the old one plus a change list."""
    raw = to_raw(old)
    by_kind: dict[ChangeKind, list[Change]] = {}
    for change in changes:
        by_kind.setdefault(change.kind, []).append(change)

    def each(kind: ChangeKind):
        return by_kind.get(kind, [])

    for c in each(ChangeKind.METADATA_CHANGED):
        raw[c.subjects[0]] = c.new

    for c in each(ChangeKind.FEATURE_REMOVED):
        del raw["features"][c.subjects[0]]
        _remove_feature_refs(raw, c.subjects[0])
    for c in each(ChangeKind.FEATURE_ADDED):
        d = c.definition
        raw["features"][c.subjects[0]] = {
            "type": FeatureType(d["type"]),
            "valueType": ValueKind(d["valueType"]),
            "defaultValue": _value_from_json(d["defaultValue"]),
            "description": d["description"],
        }
    for c in each(ChangeKind.FEATURE_TYPE_CHANGED):
        raw["features"][c.subjects[0]]["type"] = c.new
    for c in each(ChangeKind.FEATURE_VALUE_TYPE_CHANGED):
        raw["features"][c.subjects[0]]["valueType"] = c.new
    for c in each(ChangeKind.FEATURE_DESCRIPTION_CHANGED):
        raw["features"][c.subjects[0]]["description"] = c.new
    for c in each(ChangeKind.FEATURE_DEFAULT_CHANGED):
        raw["features"][c.subjects[0]]["defaultValue"] = c.new

    for c in each(ChangeKind.LIMIT_REMOVED):
        del raw["usageLimits"][c.subjects[0]]
        _remove_limit_refs(raw, c.subjects[0])
    for c in each(ChangeKind.LIMIT_ADDED):
        d = c.definition
        raw["usageLimits"][c.subjects[0]] = {
            "type": LimitKind(d["type"]),
            "metric": d["metric"],
            "period": _period_from_json(d["period"]),
            "defaultValue": Decimal(d["defaultValue"]),
            "linkedFeatures": list(d["linkedFeatures"]),
            "description": d["description"],
        }
    for c in each(ChangeKind.LIMIT_KIND_CHANGED):
        raw["usageLimits"][c.subjects[0]]["type"] = c.new
    for c in each(ChangeKind.LIMIT_METRIC_CHANGED):
        raw["usageLimits"][c.subjects[0]]["metric"] = c.new
    for c in each(ChangeKind.LIMIT_PERIOD_CHANGED):
        raw["usageLimits"][c.subjects[0]]["period"] = c.new
    for c in each(ChangeKind.LIMIT_DESCRIPTION_CHANGED):
        raw["usageLimits"][c.subjects[0]]["description"] = c.new
    for c in each(ChangeKind.LIMIT_LINKED_FEATURES_CHANGED):
        raw["usageLimits"][c.subjects[0]]["linkedFeatures"] = list(c.new)
    for c in each(ChangeKind.LIMIT_THRESHOLD_CHANGED):
        if c.subjects[0] != "default":
            continue
        raw["usageLimits"][c.subjects[1]]["defaultValue"] = c.new

    for c in each(ChangeKind.PLAN_REMOVED):
        del raw["plans"][c.subjects[0]]
        for add_on in raw["addOns"].values():
            add_on["availableFor"] = [p for p in add_on["availableFor"] if p != c.subjects[0]]
    for c in each(ChangeKind.PLAN_ADDED):
        d = c.definition
        raw["plans"][c.subjects[0]] = {
            "price": Decimal(d["price"]),
            "features": {f: _value_from_json(v) for f, v in d["features"].items()},
            "usageLimits": {l: Decimal(v) for l, v in d["usageLimits"].items()},
        }
    for c in each(ChangeKind.PLAN_PRICE_CHANGED):
        raw["plans"][c.subjects[0]]["price"] = c.new
    for c in each(ChangeKind.PLAN_FEATURE_VALUE_CHANGED):
        plan_name, feature = c.subjects
        default = raw["features"][feature]["defaultValue"]
        overrides = raw["plans"][plan_name]["features"]
        if c.new == default:
            overrides.pop(feature, None)
        else:
            overrides[feature] = c.new
    for c in each(ChangeKind.LIMIT_THRESHOLD_CHANGED):
        scope, limit = c.subjects
        if scope == "default":
            continue
        default = raw["usageLimits"][limit]["defaultValue"]
        overrides = raw["plans"][scope]["usageLimits"]
        if c.new == default:
            overrides.pop(limit, None)
        else:
            overrides[limit] = c.new

    for c in each(ChangeKind.ADD_ON_REMOVED):
        del raw["addOns"][c.subjects[0]]
    for c in each(ChangeKind.ADD_ON_ADDED):
        d = c.definition
        raw["addOns"][c.subjects[0]] = {
            "price": Decimal(d["price"]),
            "availableFor": list(d["availableFor"]),
            "features": {f: _value_from_json(v) for f, v in d["features"].items()},
            "usageLimitExtensions": {l: Decimal(v) for l, v in d["usageLimitExtensions"].items()},
        }
    for c in each(ChangeKind.ADD_ON_PRICE_CHANGED):
        raw["addOns"][c.subjects[0]]["price"] = c.new
    for c in each(ChangeKind.ADD_ON_AVAILABILITY_CHANGED):
        raw["addOns"][c.subjects[0]]["availableFor"] = list(c.new)
    for c in each(ChangeKind.ADD_ON_GRANT_CHANGED):
        add_on, feature = c.subjects
        if c.new is None:
            raw["addOns"][add_on]["features"].pop(feature, None)
        else:
            raw["addOns"][add_on]["features"][feature] = c.new
    for c in each(ChangeKind.ADD_ON_EXTENSION_CHANGED):
        add_on, limit = c.subjects
        if c.new is None:
            raw["addOns"][add_on]["usageLimitExtensions"].pop(limit, None)
        else:
            raw["addOns"][add_on]["usageLimitExtensions"][limit] = c.new

    return from_raw(raw)


# -- whole-plan resolution oracle ----------------------------------------------

@dataclass(frozen=True)
class ResolvedPlanConfig:
    """Total feature and limit values for one plan: override else default."""

    plan_name: str
    feature_values: dict[str, FeatureValue]
    limit_values: dict[str, Decimal]


def resolve_plan(pricing: Pricing, plan_name: str) -> ResolvedPlanConfig:
    """Total configuration of one plan: every feature and limit gets a value,
    its override if the plan has one, else the catalog default."""
    if plan_name not in pricing.plans:
        raise UnknownPlanError(plan_name)
    plan = pricing.plans[plan_name]
    feature_values = {
        name: plan.feature_overrides.get(name, feat.default_value)
        for name, feat in pricing.features.items()
    }
    limit_values = {
        name: plan.limit_overrides.get(name, limit.default_value)
        for name, limit in pricing.usage_limits.items()
    }
    return ResolvedPlanConfig(plan_name, feature_values, limit_values)


# -- the state file's reference writer -----------------------------------------

def subscription_to_state(pricing: Pricing, subscription) -> dict:
    """The map a state file holds; ``subscription_to_json`` must write
    ``json.dumps`` of it with ``indent=2`` and a newline, byte for byte."""
    usage = {}
    for name in pricing.usage_limits:
        state = subscription.usage[name]
        entry: dict = {"used": format(state.used, "f")}
        if state.window_index is not None:
            entry["windowStart"] = format_instant(state.window_start)
            entry["windowIndex"] = state.window_index
        usage[name] = entry
    period = subscription.contract_period
    return {
        "saasName": pricing.saas_name,
        "plan": subscription.plan_name,
        "addOns": sorted(subscription.add_on_names),
        "startInstant": format_instant(subscription.start_instant),
        "contractPeriod": {"value": period.value, "unit": period.unit.value},
        "usage": usage,
    }


# -- independent R2 oracle ----------------------------------------------------

def brute_orphans(pricing: Pricing) -> set[str]:
    """Features truthy in no plan and granted truthy by no add-on."""
    def is_truthy(value: FeatureValue) -> bool:
        if isinstance(value.value, bool):
            return value.value
        if isinstance(value.value, Decimal):
            return value.value > 0
        return len(value.value) > 0

    orphans = set()
    for name, feature in pricing.features.items():
        reachable = False
        for plan in pricing.plans.values():
            if is_truthy(plan.feature_overrides.get(name, feature.default_value)):
                reachable = True
        for add_on in pricing.add_ons.values():
            if name in add_on.feature_grants and is_truthy(add_on.feature_grants[name]):
                reachable = True
        if not reachable:
            orphans.add(name)
    return orphans


# -- independent usage replay oracle ------------------------------------------

@dataclass
class UsageEvent:
    kind: str  # "record" | "reset" | "lapse"
    limit: str
    amount: Decimal
    at: datetime


def oracle_window_start(anchor: datetime, period: Period, index: int) -> datetime:
    """Window start computed the slow way, independent of the library."""
    if period.unit is PeriodUnit.DAY:
        return anchor + timedelta(days=period.value * index)
    if period.unit is PeriodUnit.WEEK:
        return anchor + timedelta(weeks=period.value * index)
    months = period.value * index * (12 if period.unit is PeriodUnit.YEAR else 1)
    month_number = (anchor.year * 12 + anchor.month - 1) + months
    year = month_number // 12
    month = month_number % 12 + 1
    day = min(anchor.day, calendar.monthrange(year, month)[1])
    return anchor.replace(year=year, month=month, day=day)


def oracle_window_index(anchor: datetime, period: Period, now: datetime) -> int:
    index = 0
    while oracle_window_start(anchor, period, index + 1) <= now:
        index += 1
    return index


def oracle_replay(pricing: Pricing, plan: str, add_ons: set[str], anchor: datetime,
                  events: list[UsageEvent]) -> dict[str, dict]:
    """Final usage state from scratch: sort all events and replay them."""
    def effective(limit_name: str) -> Decimal:
        limit = pricing.usage_limits[limit_name]
        base = pricing.plans[plan].limit_overrides.get(limit_name, limit.default_value)
        for name in add_ons:
            base += pricing.add_ons[name].limit_extensions.get(limit_name, Decimal(0))
        return base

    state = {
        name: {"used": Decimal(0), "index": 0 if limit.period is not None else None}
        for name, limit in pricing.usage_limits.items()
    }

    # The window index is a pure function of time, and events replay in
    # time order, so each limit's scan can resume where it left off. This
    # stays a plain linear scan, just not restarted from zero every event.
    cursors = {name: 0 for name, limit in pricing.usage_limits.items()
               if limit.period is not None}

    def index_at(name: str, at: datetime) -> int:
        period = pricing.usage_limits[name].period
        k = cursors[name]
        while oracle_window_start(anchor, period, k + 1) <= at:
            k += 1
        cursors[name] = k
        return k

    def lapse_all(at: datetime, target: dict) -> None:
        for name in cursors:
            index = index_at(name, at)
            if index > target[name]["index"]:
                target[name] = {"used": Decimal(0), "index": index}

    for event in sorted(events, key=lambda e: e.at):
        if event.kind == "lapse":
            lapse_all(event.at, state)
        elif event.kind == "reset":
            state[event.limit]["used"] = Decimal(0)
        else:
            trial = {name: dict(entry) for name, entry in state.items()}
            lapse_all(event.at, trial)
            if trial[event.limit]["used"] + event.amount <= effective(event.limit):
                trial[event.limit]["used"] += event.amount
                state = trial
            # rejected recordings change nothing, not even window advances
    return state


def engine_replay(pricing: Pricing, subscription, events: list[UsageEvent]):
    """Feed the same events through the library's incremental engine."""
    current = subscription
    for event in sorted(events, key=lambda e: e.at):
        if event.kind == "lapse":
            current = lapse_windows(pricing, current, event.at)
        elif event.kind == "reset":
            current = reset_usage(current, event.limit)
        else:
            try:
                current = record_usage(pricing, current, event.limit, event.amount, event.at)
            except QuotaExceededError:
                pass
    return current


def random_events(rng: random.Random, pricing: Pricing, anchor: datetime,
                  count: int, years: int = 3) -> list[UsageEvent]:
    limits = sorted(pricing.usage_limits)
    span = int(timedelta(days=365 * years).total_seconds())
    stamps = sorted(rng.randint(0, span) for _ in range(count))
    events = []
    for offset in stamps:
        kind = rng.choices(["record", "reset", "lapse"], weights=[70, 15, 15])[0]
        events.append(UsageEvent(
            kind=kind,
            limit=rng.choice(limits),
            amount=Decimal(rng.choice(["1", "2", "5", "10", "0.5", "25", "100"])),
            at=anchor + timedelta(seconds=offset),
        ))
    return events


# A pricing with one daily window, for calendar-edge cases.
DAILY_DOC = """saasName: Daily
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features:
  calls:
    type: DOMAIN
usageLimits:
  callsPerDay:
    type: RENEWABLE
    metric: calls
    period:
      value: 1
      unit: DAY
    defaultValue: 10
    linkedFeatures: [calls]
plans:
  P:
    price: 1
"""


# A pricing whose 2nd, 5th and 6th usage limits share a monthly window
# (equal periods, each read into its own object), between a daily, a
# non-renewable and a weekly one; catalog order is not alphabetical order.
SHARED_PERIODS_DOC = """saasName: Shared
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: YEAR
features:
  calls:
    type: DOMAIN
    defaultValue: true
usageLimits:
  daily:
    type: RENEWABLE
    metric: calls
    period: {value: 1, unit: DAY}
    defaultValue: 10
  monthlyB:
    type: RENEWABLE
    metric: calls
    period: {value: 1, unit: MONTH}
    defaultValue: 10
  total:
    type: NON_RENEWABLE
    metric: calls
    defaultValue: 10
  weekly:
    type: RENEWABLE
    metric: calls
    period: {value: 1, unit: WEEK}
    defaultValue: 10
  monthlyA:
    type: RENEWABLE
    metric: calls
    period: {value: 1, unit: MONTH}
    defaultValue: 10
  monthlyC:
    type: RENEWABLE
    metric: calls
    period: {value: 1, unit: MONTH}
    defaultValue: 10
plans:
  P:
    price: 1
"""
