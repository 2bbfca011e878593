"""Expected answers computed from the generator's raw data, never from pricebook.

Each function restates one rule from the README in the plainest form:
resolution is override-else-default, windows step through the calendar
one at a time, and impact applies the keep rules change by change.
"""

from __future__ import annotations

import calendar
from datetime import datetime, timedelta
from itertools import combinations

FEATURE_TYPES = ["DOMAIN", "INTEGRATION", "AUTOMATION", "MANAGEMENT",
                 "INFORMATION", "GUARANTEE", "SUPPORT", "PAYMENT"]
LIMIT_KINDS = ["RENEWABLE", "NON_RENEWABLE", "RESPONSE_DRIVEN", "TIME_DRIVEN"]
CANONICAL_DAYS = {"DAY": 1, "WEEK": 7, "MONTH": 30, "YEAR": 365}
# Change kinds in the order the README lists them, which is the diff's output order.
CHANGE_KINDS = [
    "FeatureAdded", "FeatureRemoved", "FeatureTypeChanged", "FeatureValueTypeChanged",
    "FeatureDescriptionChanged", "FeatureDefaultChanged", "LimitAdded", "LimitRemoved",
    "LimitKindChanged", "LimitMetricChanged", "LimitPeriodChanged", "LimitDescriptionChanged",
    "LimitLinkedFeaturesChanged", "LimitThresholdChanged", "PlanAdded", "PlanRemoved",
    "PlanPriceChanged", "PlanFeatureValueChanged", "AddOnAdded", "AddOnRemoved",
    "AddOnPriceChanged", "AddOnAvailabilityChanged", "AddOnGrantChanged",
    "AddOnExtensionChanged", "MetadataChanged",
]
KIND_ORDER = {kind: i for i, kind in enumerate(CHANGE_KINDS)}
SUBJECT_FIELDS = {
    "LimitThresholdChanged": ("scope", "limit"),
    "PlanFeatureValueChanged": ("plan", "feature"),
    "AddOnGrantChanged": ("addOn", "feature"),
    "AddOnExtensionChanged": ("addOn", "limit"),
    "MetadataChanged": ("field",),
}


def truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value > 0
    return value != ""


def raw_from_yaml(doc: dict) -> dict:
    """Raw catalog from ``yaml.safe_load`` output of a valid document."""
    falsy = {"BOOLEAN": False, "NUMERIC": 0, "TEXT": ""}
    features = {}
    for name, spec in doc["features"].items():
        kind = spec.get("valueType", "BOOLEAN")
        features[name] = {"type": spec["type"], "valueType": kind,
                          "default": spec.get("defaultValue", falsy[kind])}
    limits = {}
    for name, spec in (doc.get("usageLimits") or {}).items():
        period = spec.get("period")
        limits[name] = {"kind": spec["type"], "metric": spec["metric"],
                        "period": (period["value"], period["unit"]) if period else None,
                        "default": spec["defaultValue"],
                        "linked": list(spec.get("linkedFeatures", []))}

    def values(section) -> dict:
        return {k: v["value"] for k, v in (section or {}).items()}

    plans = {name: {"features": values(spec.get("features")),
                    "limits": values(spec.get("usageLimits"))}
             for name, spec in (doc.get("plans") or {}).items()}
    add_ons = {name: {"available": list(spec.get("availableFor", [])),
                      "features": values(spec.get("features")),
                      "extensions": values(spec.get("usageLimitExtensions"))}
               for name, spec in (doc.get("addOns") or {}).items()}
    return {"saasName": doc["saasName"],
            "billing": (doc["billingPeriod"]["value"], doc["billingPeriod"]["unit"]),
            "features": features, "limits": limits, "plans": plans, "addOns": add_ons}


def resolved(raw: dict, plan: str) -> tuple[dict, dict]:
    spec = raw["plans"][plan]
    features = {f: spec["features"].get(f, s["default"]) for f, s in raw["features"].items()}
    limits = {name: spec["limits"].get(name, s["default"]) for name, s in raw["limits"].items()}
    return features, limits


def expected_violations(raw: dict) -> list[tuple[str, tuple[str, ...]]]:
    """(rule, subjects) for every rule the catalog breaks, in report order."""
    out = []
    tables = {plan: resolved(raw, plan) for plan in raw["plans"]}
    for a, b in combinations(raw["plans"], 2):
        if tables[a] == tables[b]:
            out.append(("R1_DUPLICATE_PLANS", (a, b)))
    for f in raw["features"]:
        in_plan = any(truthy(t[0][f]) for t in tables.values())
        granted = any(truthy(a["features"].get(f, False)) for a in raw["addOns"].values())
        if not in_plan and not granted:
            out.append(("R2_ORPHAN_FEATURE", (f,)))
    billing_days = raw["billing"][0] * CANONICAL_DAYS[raw["billing"][1]]
    for name, spec in raw["limits"].items():
        period = spec["period"]
        if period and period[0] * CANONICAL_DAYS[period[1]] > billing_days:
            out.append(("R3A_PERIOD_EXCEEDS_CONTRACT", (name,)))
        if not spec["metric"].strip():
            out.append(("R3B_MISSING_METRIC", (name,)))
    out.sort(key=lambda v: (v[0], v[1][0]))
    return out


def expected_stats(raw: dict) -> dict:
    """``pricing_stats(...).to_dict()`` recomputed from raw data."""
    tables = [resolved(raw, plan)[0] for plan in raw["plans"]]
    types = {t: 0 for t in FEATURE_TYPES}
    for spec in raw["features"].values():
        types[spec["type"]] += 1
    kinds = {k: 0 for k in LIMIT_KINDS}
    for spec in raw["limits"].values():
        kinds[spec["kind"]] += 1
    return {
        "plans": len(raw["plans"]),
        "addOns": len(raw["addOns"]),
        "features": len(raw["features"]),
        "usageLimits": len(raw["limits"]),
        "featureTypes": types,
        "limitKinds": kinds,
        "planManagedFeatures": sum(any(truthy(t[f]) for t in tables) for f in raw["features"]),
        "addOnManagedFeatures": sum(
            any(truthy(a["features"].get(f, False)) for a in raw["addOns"].values())
            for f in raw["features"]),
        "addOnFeatureCounts": {name: sum(truthy(v) for v in a["features"].values())
                               for name, a in raw["addOns"].items()},
    }


# -- metering -------------------------------------------------------------------

def window_start(anchor: datetime, period: tuple[int, str], index: int) -> datetime:
    value, unit = period
    if unit == "DAY":
        return anchor + timedelta(days=value * index)
    if unit == "WEEK":
        return anchor + timedelta(weeks=value * index)
    months = value * index * (12 if unit == "YEAR" else 1)
    month_number = anchor.year * 12 + anchor.month - 1 + months
    year, month = month_number // 12, month_number % 12 + 1
    return anchor.replace(year=year, month=month,
                          day=min(anchor.day, calendar.monthrange(year, month)[1]))


def format_instant(instant: datetime) -> str:
    return instant.strftime("%Y-%m-%dT%H:%M:%SZ")


class Subscriber:
    """One subscription replayed by hand.

    Mirrors the engine's functional contract: a recording that is accepted
    commits every window that lapsed; a refused one, an evaluation, or a
    reset commits no window advance.
    """

    def __init__(self, raw: dict, plan: str, add_ons: list[str], start: datetime):
        self.raw, self.plan, self.add_ons, self.start = raw, plan, sorted(add_ons), start
        plan_limits = raw["plans"][plan]["limits"]
        self.effective = {}
        for name, spec in raw["limits"].items():
            total = plan_limits.get(name, spec["default"])
            for a in self.add_ons:
                total += raw["addOns"][a]["extensions"].get(name, 0)
            self.effective[name] = total
        self.periods = {name: spec["period"] for name, spec in raw["limits"].items()}
        # name -> [used, stored window index or None]
        self.state = {name: [0, 0 if period else None] for name, period in self.periods.items()}
        self.cursor = {name: 0 for name, period in self.periods.items() if period}
        self.windows_renewed = 0

    def _index(self, name: str, now: datetime) -> int:
        k = self.cursor[name]
        while window_start(self.start, self.periods[name], k + 1) <= now:
            k += 1
        self.cursor[name] = k
        return k

    def view(self, name: str, now: datetime) -> int:
        """Counter value the engine sees at ``now`` without committing it."""
        used, index = self.state[name]
        if index is not None and self._index(name, now) > index:
            return 0
        return used

    def record(self, name: str, amount: int, now: datetime) -> tuple[bool, int]:
        """(accepted, counter seen before the recording)."""
        seen = self.view(name, now)
        if seen + amount > self.effective[name]:
            return False, seen
        for limit, entry in self.state.items():
            if entry[1] is not None:
                k = self._index(limit, now)
                if k > entry[1]:
                    entry[0], entry[1] = 0, k
                    self.windows_renewed += 1
        self.state[name][0] += amount
        return True, seen

    def reset(self, name: str) -> None:
        self.state[name][0] = 0

    def evaluate(self, feature: str, now: datetime):
        """(enabled, value, [(limit, effective, used, remaining)])."""
        plan_value = self.raw["plans"][self.plan]["features"].get(
            feature, self.raw["features"][feature]["default"])
        grants = [self.raw["addOns"][a]["features"][feature]
                  for a in self.raw["addOns"]
                  if a in self.add_ons and feature in self.raw["addOns"][a]["features"]]
        enabled = truthy(plan_value) or any(truthy(g) for g in grants)
        limits = []
        for name, spec in self.raw["limits"].items():
            if feature in spec["linked"]:
                used = self.view(name, now)
                eff = self.effective[name]
                limits.append((name, eff, used, max(0, eff - used)))
        return enabled, grants[-1] if grants else plan_value, limits

    def to_state(self) -> dict:
        """The persisted JSON document the README specifies."""
        usage = {}
        for name, (used, index) in self.state.items():
            entry = {"used": str(used)}
            if index is not None:
                entry["windowStart"] = format_instant(
                    window_start(self.start, self.periods[name], index))
                entry["windowIndex"] = index
            usage[name] = entry
        return {
            "saasName": self.raw["saasName"],
            "plan": self.plan,
            "addOns": self.add_ons,
            "startInstant": format_instant(self.start),
            "contractPeriod": {"value": self.raw["billing"][0], "unit": self.raw["billing"][1]},
            "usage": usage,
        }


# -- releases -------------------------------------------------------------------

def expected_diff(new_raw: dict, edits: list[dict]) -> list[tuple[str, tuple]]:
    """(kind, subjects) of every change the planted edits cause, in diff order."""
    out = [("MetadataChanged", ("version",))]
    for edit in edits:
        kind = edit["kind"]
        if kind == "plan_price":
            out.append(("PlanPriceChanged", (edit["plan"],)))
        elif kind == "limit_default":
            limit = edit["limit"]
            out.append(("LimitThresholdChanged", ("default", limit)))
            out += [("LimitThresholdChanged", (plan, limit))
                    for plan, spec in new_raw["plans"].items() if limit not in spec["limits"]]
        elif kind == "plan_feature":
            out.append(("PlanFeatureValueChanged", (edit["plan"], edit["feature"])))
        elif kind == "add_on_price":
            out.append(("AddOnPriceChanged", (edit["addOn"],)))
        elif kind == "add_on_extension":
            out.append(("AddOnExtensionChanged", (edit["addOn"], edit["limit"])))
        elif kind == "feature_description":
            out.append(("FeatureDescriptionChanged", (edit["feature"],)))
        elif kind == "add_on_removed":
            out.append(("AddOnRemoved", (edit["addOn"],)))
        elif kind == "feature_added":
            out.append(("FeatureAdded", (edit["feature"],)))
            out.append(("PlanFeatureValueChanged", (edit["plan"], edit["feature"])))
    return sorted(out, key=lambda c: (KIND_ORDER[c[0]], c[1]))


def change_from_json(line: dict) -> tuple[str, tuple]:
    kind = line["kind"]
    fields = SUBJECT_FIELDS.get(kind)
    if fields is None:
        for prefix, field in (("Feature", "feature"), ("Limit", "limit"),
                              ("Plan", "plan"), ("AddOn", "addOn")):
            if kind.startswith(prefix):
                fields = (field,)
                break
    return kind, tuple(line[f] for f in fields)


def reachable(old_raw: dict, plan: str, add_ons: list[str]) -> tuple[set, set]:
    """Features a subscriber can use, and the limits that apply to it."""
    features, _ = resolved(old_raw, plan)
    reach = {f for f in old_raw["features"]
             if truthy(features[f]) or any(
                 truthy(old_raw["addOns"][a]["features"].get(f, False)) for a in add_ons)}
    limits = {name for name, spec in old_raw["limits"].items()
              if not spec["linked"] or set(spec["linked"]) & reach}
    return reach, limits


def kept_by_impact(reach: tuple[set, set], plan: str, add_ons: list[str],
                   change: tuple[str, tuple], definition: dict | None) -> bool:
    """README keep rule for one change and one subscriber (``reach`` from ``reachable``)."""
    features, limits = reach
    kind, subjects = change
    name = subjects[0]
    if kind == "MetadataChanged":
        return name in ("currency", "billingPeriod")
    if kind == "FeatureAdded":
        default = definition["defaultValue"]
        value = default["value"]
        return truthy(int(value) if default["type"] == "NUMERIC" else value)
    if kind.startswith("Feature"):
        return name in features
    if kind == "LimitAdded":
        linked = definition["linkedFeatures"]
        return not linked or bool(set(linked) & features)
    if kind == "LimitThresholdChanged":
        return subjects[1] in limits if name == "default" else name == plan
    if kind.startswith("Limit"):
        return name in limits
    if kind in ("PlanAdded", "AddOnAdded"):
        return False
    if kind.startswith("Plan"):
        return name == plan
    return name in add_ons
