"""Semantic comparison of two pricing versions, and subscriber impact.

``diff`` matches entities by name (a rename shows up as removed + added)
and reports field-level changes. Catalog edits and subscriber-facing
deltas are both reported: a feature's default changing shows up once as
``FeatureDefaultChanged`` and once per plan whose resolved value moved.
Added entities carry their full definition so a change list is enough to
reconstruct the new document from the old one.

An empty change list means the two pricings are equal after
canonicalization, so the change kinds cover every field of the model,
including metadata. Output order is deterministic: by change kind, then
by subject names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from .errors import UnknownPlanError
from .model import (
    AddOn,
    Feature,
    FeatureValue,
    Plan,
    Pricing,
    UsageLimit,
    add_on_to_json,
    feature_to_json,
    limit_to_json,
    period_to_json,
    plan_to_json,
    resolve_plan,
    value_to_json,
)
from .periods import Period
from .subscriptions import Subscription

__all__ = ["ChangeKind", "Change", "ChangeSet", "diff", "impact"]


class ChangeKind(Enum):
    FEATURE_ADDED = "FeatureAdded"
    FEATURE_REMOVED = "FeatureRemoved"
    FEATURE_TYPE_CHANGED = "FeatureTypeChanged"
    FEATURE_VALUE_TYPE_CHANGED = "FeatureValueTypeChanged"
    FEATURE_DESCRIPTION_CHANGED = "FeatureDescriptionChanged"
    FEATURE_DEFAULT_CHANGED = "FeatureDefaultChanged"
    LIMIT_ADDED = "LimitAdded"
    LIMIT_REMOVED = "LimitRemoved"
    LIMIT_KIND_CHANGED = "LimitKindChanged"
    LIMIT_METRIC_CHANGED = "LimitMetricChanged"
    LIMIT_PERIOD_CHANGED = "LimitPeriodChanged"
    LIMIT_DESCRIPTION_CHANGED = "LimitDescriptionChanged"
    LIMIT_LINKED_FEATURES_CHANGED = "LimitLinkedFeaturesChanged"
    LIMIT_THRESHOLD_CHANGED = "LimitThresholdChanged"
    PLAN_ADDED = "PlanAdded"
    PLAN_REMOVED = "PlanRemoved"
    PLAN_PRICE_CHANGED = "PlanPriceChanged"
    PLAN_FEATURE_VALUE_CHANGED = "PlanFeatureValueChanged"
    ADD_ON_ADDED = "AddOnAdded"
    ADD_ON_REMOVED = "AddOnRemoved"
    ADD_ON_PRICE_CHANGED = "AddOnPriceChanged"
    ADD_ON_AVAILABILITY_CHANGED = "AddOnAvailabilityChanged"
    ADD_ON_GRANT_CHANGED = "AddOnGrantChanged"
    ADD_ON_EXTENSION_CHANGED = "AddOnExtensionChanged"
    METADATA_CHANGED = "MetadataChanged"


_KIND_ORDER = {kind: index for index, kind in enumerate(ChangeKind)}

# JSON field names for each kind's subject tuple.
_SUBJECT_FIELDS = {
    ChangeKind.LIMIT_THRESHOLD_CHANGED: ("scope", "limit"),
    ChangeKind.PLAN_FEATURE_VALUE_CHANGED: ("plan", "feature"),
    ChangeKind.ADD_ON_GRANT_CHANGED: ("addOn", "feature"),
    ChangeKind.ADD_ON_EXTENSION_CHANGED: ("addOn", "limit"),
    ChangeKind.METADATA_CHANGED: ("field",),
}


def _subject_fields(kind: ChangeKind) -> tuple[str, ...]:
    if kind in _SUBJECT_FIELDS:
        return _SUBJECT_FIELDS[kind]
    name = kind.name
    if name.startswith("FEATURE_"):
        return ("feature",)
    if name.startswith("LIMIT_"):
        return ("limit",)
    if name.startswith("PLAN_"):
        return ("plan",)
    return ("addOn",)


def _encode(value):
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, Decimal):
        return format(value, "f")
    if isinstance(value, FeatureValue):
        return value_to_json(value)
    if isinstance(value, Period):
        return period_to_json(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    raise TypeError(f"cannot encode {value!r}")


@dataclass(frozen=True)
class Change:
    kind: ChangeKind
    subjects: tuple[str, ...]
    old: object = None
    new: object = None
    definition: dict | None = None

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.subjects)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        for field_name, subject in zip(_subject_fields(self.kind), self.subjects):
            out[field_name] = subject
        if self.definition is not None:
            out["definition"] = self.definition
        if self.kind.name.endswith("_CHANGED"):
            out["old"] = _encode(self.old)
            out["new"] = _encode(self.new)
        return out


@dataclass(frozen=True)
class ChangeSet:
    changes: tuple[Change, ...]

    def __iter__(self):
        return iter(self.changes)

    def __len__(self) -> int:
        return len(self.changes)

    def __bool__(self) -> bool:
        return bool(self.changes)

    def to_json_lines(self) -> str:
        if not self.changes:
            return ""
        return "\n".join(json.dumps(c.to_dict()) for c in self.changes) + "\n"


def diff(old: Pricing, new: Pricing) -> ChangeSet:
    """Field-level change list taking ``old`` to ``new``; empty iff equal."""
    changes: list[Change] = []
    add = changes.append

    for field_name, o, n in (
        ("saasName", old.saas_name, new.saas_name),
        ("version", old.version, new.version),
        ("currency", old.currency, new.currency),
        ("billingPeriod", old.billing_period, new.billing_period),
    ):
        if o != n:
            add(Change(ChangeKind.METADATA_CHANGED, (field_name,), o, n))

    _diff_features(old, new, add)
    _diff_limits(old, new, add)
    _diff_plans(old, new, add)
    _diff_add_ons(old, new, add)

    changes.sort(key=Change.sort_key)
    return ChangeSet(tuple(changes))


def _diff_features(old: Pricing, new: Pricing, add) -> None:
    for name in old.features:
        if name not in new.features:
            add(Change(ChangeKind.FEATURE_REMOVED, (name,)))
    for name, feature in new.features.items():
        if name not in old.features:
            add(Change(ChangeKind.FEATURE_ADDED, (name,), definition=feature_to_json(feature)))
            continue
        before: Feature = old.features[name]
        if before.feature_type is not feature.feature_type:
            add(Change(ChangeKind.FEATURE_TYPE_CHANGED, (name,),
                       before.feature_type, feature.feature_type))
        if before.value_kind is not feature.value_kind:
            add(Change(ChangeKind.FEATURE_VALUE_TYPE_CHANGED, (name,),
                       before.value_kind, feature.value_kind))
        if before.description != feature.description:
            add(Change(ChangeKind.FEATURE_DESCRIPTION_CHANGED, (name,),
                       before.description, feature.description))
        if before.default_value != feature.default_value:
            add(Change(ChangeKind.FEATURE_DEFAULT_CHANGED, (name,),
                       before.default_value, feature.default_value))


def _diff_limits(old: Pricing, new: Pricing, add) -> None:
    for name in old.usage_limits:
        if name not in new.usage_limits:
            add(Change(ChangeKind.LIMIT_REMOVED, (name,)))
    for name, limit in new.usage_limits.items():
        if name not in old.usage_limits:
            add(Change(ChangeKind.LIMIT_ADDED, (name,), definition=limit_to_json(limit)))
            continue
        before: UsageLimit = old.usage_limits[name]
        if before.kind is not limit.kind:
            add(Change(ChangeKind.LIMIT_KIND_CHANGED, (name,), before.kind, limit.kind))
        if before.metric != limit.metric:
            add(Change(ChangeKind.LIMIT_METRIC_CHANGED, (name,), before.metric, limit.metric))
        if before.period != limit.period:
            add(Change(ChangeKind.LIMIT_PERIOD_CHANGED, (name,), before.period, limit.period))
        if before.description != limit.description:
            add(Change(ChangeKind.LIMIT_DESCRIPTION_CHANGED, (name,),
                       before.description, limit.description))
        if before.linked_features != limit.linked_features:
            add(Change(ChangeKind.LIMIT_LINKED_FEATURES_CHANGED, (name,),
                       before.linked_features, limit.linked_features))
        if before.default_value != limit.default_value:
            add(Change(ChangeKind.LIMIT_THRESHOLD_CHANGED, ("default", name),
                       before.default_value, limit.default_value))


def _diff_plans(old: Pricing, new: Pricing, add) -> None:
    for name in old.plans:
        if name not in new.plans:
            add(Change(ChangeKind.PLAN_REMOVED, (name,)))
    for name, plan in new.plans.items():
        if name not in old.plans:
            add(Change(ChangeKind.PLAN_ADDED, (name,), definition=plan_to_json(plan)))
            continue
        before: Plan = old.plans[name]
        if before.price != plan.price:
            add(Change(ChangeKind.PLAN_PRICE_CHANGED, (name,), before.price, plan.price))
        resolved_old = resolve_plan(old, name)
        resolved_new = resolve_plan(new, name)
        for feature in new.features:
            if feature in old.features:
                o = resolved_old.feature_values[feature]
                n = resolved_new.feature_values[feature]
                if o != n:
                    add(Change(ChangeKind.PLAN_FEATURE_VALUE_CHANGED, (name, feature), o, n))
            elif feature in plan.feature_overrides:
                add(Change(ChangeKind.PLAN_FEATURE_VALUE_CHANGED, (name, feature),
                           None, plan.feature_overrides[feature]))
        for limit in new.usage_limits:
            if limit in old.usage_limits:
                o = resolved_old.limit_values[limit]
                n = resolved_new.limit_values[limit]
                if o != n:
                    add(Change(ChangeKind.LIMIT_THRESHOLD_CHANGED, (name, limit), o, n))
            elif limit in plan.limit_overrides:
                add(Change(ChangeKind.LIMIT_THRESHOLD_CHANGED, (name, limit),
                           None, plan.limit_overrides[limit]))


def _diff_add_ons(old: Pricing, new: Pricing, add) -> None:
    for name in old.add_ons:
        if name not in new.add_ons:
            add(Change(ChangeKind.ADD_ON_REMOVED, (name,)))
    for name, add_on in new.add_ons.items():
        if name not in old.add_ons:
            add(Change(ChangeKind.ADD_ON_ADDED, (name,), definition=add_on_to_json(add_on)))
            continue
        before: AddOn = old.add_ons[name]
        if before.price != add_on.price:
            add(Change(ChangeKind.ADD_ON_PRICE_CHANGED, (name,), before.price, add_on.price))
        if before.available_for != add_on.available_for:
            add(Change(ChangeKind.ADD_ON_AVAILABILITY_CHANGED, (name,),
                       before.available_for, add_on.available_for))
        for feature in sorted(set(before.feature_grants) | set(add_on.feature_grants)):
            o = before.feature_grants.get(feature)
            n = add_on.feature_grants.get(feature)
            if o != n:
                add(Change(ChangeKind.ADD_ON_GRANT_CHANGED, (name, feature), o, n))
        for limit in sorted(set(before.limit_extensions) | set(add_on.limit_extensions)):
            o = before.limit_extensions.get(limit)
            n = add_on.limit_extensions.get(limit)
            if o != n:
                add(Change(ChangeKind.ADD_ON_EXTENSION_CHANGED, (name, limit), o, n))


def _definition_truthy(definition: dict) -> bool:
    payload = definition["defaultValue"]
    if payload["type"] == "BOOLEAN":
        return bool(payload["value"])
    if payload["type"] == "NUMERIC":
        return Decimal(payload["value"]) > 0
    return payload["value"] != ""


def impact(pricing: Pricing, subscription: Subscription, changes: ChangeSet) -> ChangeSet:
    """Changes that touch this subscriber; always a subset of ``changes``.

    ``pricing`` must be the old version, the one the subscription refers
    to. Kept are changes to the subscriber's plan, to its subscribed
    add-ons, and to features and limits the subscriber can reach: features
    enabled for it, plus limits linked to those features (a limit linked
    to no feature applies globally and counts as reachable). New plans and
    add-ons never affect an existing subscription; new features and limits
    do when they arrive enabled or attached to something reachable.
    """
    if subscription.plan_name not in pricing.plans:
        raise UnknownPlanError(subscription.plan_name)
    plan = pricing.plans[subscription.plan_name]
    grants = pricing._index.grants

    def grants_truthy(feature: str) -> bool:
        return any(
            value.truthy
            for add_on, value in grants.get(feature, ())
            if add_on in subscription.add_on_names
        )

    reachable_features = {
        name for name, feature in pricing.features.items()
        if plan.feature_overrides.get(name, feature.default_value).truthy or grants_truthy(name)
    }
    reachable_limits = {
        name for name, limit in pricing.usage_limits.items()
        if not limit.linked_features or set(limit.linked_features) & reachable_features
    }

    kept = []
    for change in changes:
        kind = change.kind
        name = change.subjects[0]
        if kind is ChangeKind.METADATA_CHANGED:
            keep = name in ("currency", "billingPeriod")
        elif kind is ChangeKind.FEATURE_ADDED:
            keep = _definition_truthy(change.definition)
        elif kind.name.startswith("FEATURE_"):
            keep = name in reachable_features
        elif kind is ChangeKind.LIMIT_ADDED:
            linked = change.definition["linkedFeatures"]
            keep = not linked or bool(set(linked) & reachable_features)
        elif kind is ChangeKind.LIMIT_THRESHOLD_CHANGED:
            scope, limit_name = change.subjects
            if scope == "default":
                keep = limit_name in reachable_limits
            else:
                keep = scope == subscription.plan_name
        elif kind.name.startswith("LIMIT_"):
            keep = name in reachable_limits
        elif kind is ChangeKind.PLAN_ADDED:
            keep = False
        elif kind.name.startswith("PLAN_"):
            keep = name == subscription.plan_name
        elif kind is ChangeKind.ADD_ON_ADDED:
            keep = False
        else:
            keep = name in subscription.add_on_names
        if keep:
            kept.append(change)
    return ChangeSet(tuple(kept))
