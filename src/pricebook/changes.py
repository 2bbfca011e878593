"""Semantic comparison of two pricing versions, and subscriber impact.

``diff`` matches entities by name (a rename shows up as removed + added)
and reports field-level changes. Catalog edits and subscriber-facing
deltas are both reported: a feature's default changing shows up once as
``FeatureDefaultChanged`` and once per plan whose resolved value moved.
Added entities carry their full definition so a change list is enough to
reconstruct the new document from the old one.

An empty change list means the two pricings are equal after
canonicalization, so the change kinds cover every field of the model,
including metadata: ``diff`` walks the field table ``model.FIELDS``, which
names the change kind of each field, and reports values and definitions
in the table's JSON form (``model.to_json``). Output order is
deterministic: by change kind, then by subject names. ``impact`` asks
``model.enabled`` what a subscriber reaches, and needs no engine call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING

from .errors import UnknownPlanError
from .model import (_CATALOG_ATTR, FIELDS, ChangeKind, FeatureValue, Plan, Pricing, ValueKind,
                    enabled, to_json)

if TYPE_CHECKING:
    from .subscriptions import Subscription

__all__ = ["ChangeKind", "Change", "ChangeSet", "diff", "impact"]


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
            out["old"] = to_json(self.old)
            out["new"] = to_json(self.new)
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
    """Field-level change list taking ``old`` to ``new``; empty iff equal.

    A plan's resolved value can move only where the plan overrides it, on
    either side, or where the catalog default moved, so each plan is
    compared at its overrides and at the defaults that moved, worked out
    once per diff: the cost is the catalog's size plus the plans' overrides.
    """
    changes: list[Change] = []
    add = changes.append
    moved: dict[str, set[str]] = {}  # catalog attribute -> names whose default moved
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
                _diff_entry(old, new, moved, name, before[name], entry, add)
    changes.sort(key=Change.sort_key)
    return ChangeSet(tuple(changes))


def _diff_entry(old: Pricing, new: Pricing, moved: dict[str, set[str]], name: str,
                before, after, add) -> None:
    for _, attr, holds, kind, _ in FIELDS[type(after)]:
        o, n = getattr(before, attr), getattr(after, attr)
        if not isinstance(n, dict):
            if o != n:
                # A catalog threshold is the "default" scope; plans are the others.
                scope = ("default",) if kind is ChangeKind.LIMIT_THRESHOLD_CHANGED else ()
                add(Change(kind, (*scope, name), o, n))
        elif type(after) is Plan:
            # Compare what the plan resolves to, override else catalog default,
            # for the entries of the new catalog; elsewhere both sides read
            # the same unmoved default.
            catalog = _CATALOG_ATTR[holds.entry]
            old_catalog, new_catalog = getattr(old, catalog), getattr(new, catalog)
            defaults = moved.get(catalog)
            if defaults is None:
                defaults = moved[catalog] = {
                    ref for ref, entry in new_catalog.items() if ref in old_catalog
                    and old_catalog[ref].default_value != entry.default_value}
            for ref in defaults | o.keys() | n.keys():
                entry = new_catalog.get(ref)
                if entry is None:
                    continue
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


def _definition_truthy(definition: dict) -> bool:
    payload = definition["defaultValue"]
    kind = ValueKind(payload["type"])
    return FeatureValue(kind, Decimal(payload["value"]) if kind is ValueKind.NUMERIC
                        else payload["value"]).truthy


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
    index = pricing._index
    switches = index.plan_switches[subscription.plan_name]
    granted = set().union(*(index.truthy_grants.get(a, ()) for a in subscription.add_on_names))

    def reachable(feature: str) -> bool:
        return enabled(feature, index.truthy_defaults, switches, feature in granted)

    kept = []
    for change in changes:
        kind = change.kind
        name = change.subjects[0]
        if kind is ChangeKind.METADATA_CHANGED:
            keep = name in ("currency", "billingPeriod")
        elif kind is ChangeKind.FEATURE_ADDED:
            keep = _definition_truthy(change.definition)
        elif kind.name.startswith("FEATURE_"):
            keep = reachable(name)
        elif kind is ChangeKind.LIMIT_ADDED:
            linked = change.definition["linkedFeatures"]
            keep = not linked or any(map(reachable, linked))
        elif kind is ChangeKind.LIMIT_THRESHOLD_CHANGED and name != "default":
            keep = name == subscription.plan_name  # a plan's own threshold
        elif kind.name.startswith("LIMIT_"):
            limit = pricing.usage_limits.get(change.subjects[-1])  # after a threshold's scope
            keep = limit is not None and (
                not limit.linked_features or any(map(reachable, limit.linked_features)))
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
