"""Seeded inputs for the benchmark, built without importing pricebook.

A catalog is generated first as *raw* data (plain dicts, ints, bools and
strings) and then emitted as canonical document text, so that the oracles
in ``oracle.py`` can compute every expected answer from the raw data alone.
Names and descriptions have fixed lengths, so a given scale yields nearly
the same number of bytes for every seed and timings compare across seeds.
"""

from __future__ import annotations

import copy
import random
from datetime import datetime, timedelta, timezone

FEATURE_TYPES = ["DOMAIN", "INTEGRATION", "AUTOMATION", "MANAGEMENT",
                 "INFORMATION", "GUARANTEE", "SUPPORT", "PAYMENT"]
WORDS = ["amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heron",
         "inlet", "juniper", "kelp", "lotus", "maple", "nectar", "orbit", "prism"]
TEXT_VALUES = ["standard", "priority", "dedicated", "extended"]
METRICS = ["calls", "GB", "tokens", "minutes", "seats", "messages"]

# (features, limits, plans, add-ons) per scale; "large" is about 80 KB.
SCALES = {
    "small": (36, 7, 4, 3),
    "medium": (115, 23, 7, 6),
    "large": (300, 60, 15, 12),
}


def _falsy(kind: str):
    return {"BOOLEAN": False, "NUMERIC": 0, "TEXT": ""}[kind]


def _truthy(rng: random.Random, kind: str):
    if kind == "BOOLEAN":
        return True
    if kind == "NUMERIC":
        return rng.randint(1, 500)
    return rng.choice(TEXT_VALUES)


def _is_truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value > 0
    return value != ""


def _other_value(rng: random.Random, kind: str, avoid):
    """A value of ``kind`` different from ``avoid``."""
    if kind == "BOOLEAN":
        return not avoid
    while True:
        value = rng.randint(0, 500) if kind == "NUMERIC" else rng.choice(TEXT_VALUES + [""])
        if value != avoid:
            return value


def _make_reachable(rng: random.Random, features: dict, plans: dict, fixers: list[str],
                    skip: str | None = None) -> None:
    """Make every feature but ``skip`` truthy in some plan, editing only ``fixers``."""
    for f, spec in features.items():
        if f == skip or any(_is_truthy(p["features"].get(f, spec["default"]))
                            for p in plans.values()):
            continue
        plan = plans[rng.choice(fixers)]
        if _is_truthy(spec["default"]):
            del plan["features"][f]
        else:
            plan["features"][f] = _truthy(rng, spec["valueType"])


def _quota(rng: random.Random, n: int, shares: list) -> list:
    """``n`` items drawn from ``shares`` ([(item, weight)]) in fixed proportions, shuffled.

    Fixed proportions keep the cost of a catalog nearly the same for every
    seed; only names, values and positions vary.
    """
    total = sum(weight for _, weight in shares)
    out, acc = [], 0.0
    for item, weight in shares:
        acc += n * weight / total
        out += [item] * (round(acc) - len(out))
    rng.shuffle(out)
    return out


def _description(rng: random.Random, index: int) -> str:
    words = " ".join(rng.choice(WORDS)[:5].ljust(5, "x") for _ in range(5))
    return f"Item {index:04d} covers {words}"


def _price(rng: random.Random) -> str:
    return f"{rng.randint(1, 99)}.{rng.randint(10, 99)}"


def generate_catalog(rng: random.Random, scale: str, name: str = "Bench") -> dict:
    """Raw catalog that validates clean: no duplicate plans, no orphans.

    Limit ``l0000`` is a tier limit every plan overrides with a distinct
    value, so no two plans ever resolve alike. Every feature is truthy in
    at least one plan without help from add-ons, so removing an add-on
    never orphans a feature.
    """
    n_features, n_limits, n_plans, n_add_ons = SCALES[scale]
    kinds = _quota(rng, n_features, [("BOOLEAN", 70), ("NUMERIC", 20), ("TEXT", 10)])
    defaults_set = _quota(rng, n_features, [(False, 60), (True, 40)])
    features = {}
    for i, (kind, default_set) in enumerate(zip(kinds, defaults_set)):
        default = _truthy(rng, kind) if default_set else _falsy(kind)
        features[f"f{i:04d}{rng.choice(WORDS)[:4]}"] = {
            "description": _description(rng, i),
            "type": rng.choice(FEATURE_TYPES),
            "valueType": kind,
            "default": default,
        }
    feature_names = list(features)

    limit_kinds = _quota(rng, n_limits, [
        (("RENEWABLE", (1, "DAY")), 13), (("RENEWABLE", (1, "WEEK")), 13),
        (("RENEWABLE", (1, "MONTH")), 14), (("NON_RENEWABLE", None), 20),
        (("TIME_DRIVEN", None), 10), (("TIME_DRIVEN", (1, "MONTH")), 10),
        (("RESPONSE_DRIVEN", None), 10), (("RESPONSE_DRIVEN", (1, "MONTH")), 10)])
    link_counts = _quota(rng, n_limits, [(0, 15), (1, 45), (2, 40)])
    zero_defaults = _quota(rng, n_limits, [(True, 30), (False, 70)])
    limits = {}
    for i, ((kind, period), links, zero) in enumerate(zip(limit_kinds, link_counts,
                                                          zero_defaults)):
        if i == 0:
            default = 5
        else:
            default = 0 if zero else rng.randint(10, 2000)
        limits[f"l{i:04d}{rng.choice(WORDS)[:4]}"] = {
            "description": _description(rng, i),
            "kind": kind,
            "metric": rng.choice(METRICS),
            "period": period,
            "default": default,
            "linked": [feature_names[j] for j in sorted(rng.sample(range(n_features), links))],
        }
    limit_names = list(limits)

    plans = {}
    for i in range(n_plans):
        overrides = {}
        for f in rng.sample(feature_names, max(1, n_features // 12)):
            spec = features[f]
            overrides[f] = _other_value(rng, spec["valueType"], spec["default"])
        limit_overrides = {limit_names[0]: 10 * (i + 1)}
        for name in rng.sample(limit_names[1:], max(1, n_limits // 6)):
            limit_overrides[name] = _other_value(rng, "NUMERIC", limits[name]["default"])
        plans[f"PLAN{i:02d}"] = {"price": _price(rng), "features": overrides,
                                 "limits": limit_overrides}
    plan_names = list(plans)

    _make_reachable(rng, features, plans, plan_names)

    add_ons = {}
    for i in range(n_add_ons):
        available = [] if rng.random() < 0.3 else sorted(
            rng.sample(plan_names, rng.randint(1, max(1, n_plans // 2))),
            key=plan_names.index)
        grants = {f: _truthy(rng, features[f]["valueType"])
                  for f in rng.sample(feature_names, rng.randint(1, 3))}
        extensions = {name: rng.randint(1, 900)
                      for name in rng.sample(limit_names, rng.randint(1, 3))}
        add_ons[f"addon{i:02d}"] = {"price": _price(rng), "available": available,
                                    "features": grants, "extensions": extensions}

    return {
        "saasName": name,
        "version": f"r{rng.randint(100, 999)}",
        "currency": "USD",
        "billing": (1, "MONTH"),
        "features": features,
        "limits": limits,
        "plans": plans,
        "addOns": add_ons,
    }


# -- canonical text ------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if value != "" else '""'


def emit(raw: dict) -> tuple[str, dict]:
    """Canonical document text plus the 1-based line of each emitted field.

    Keys of the line map are tuples such as ``("features", name, "type")``,
    ``("features", name)`` for the entry key itself, or
    ``("plans", plan, "features", feature)`` for an override key.
    """
    lines: list[str] = []
    where: dict = {}

    def put(text: str, key=None) -> None:
        lines.append(text)
        if key is not None:
            where[key] = len(lines)

    feature_order = {name: i for i, name in enumerate(raw["features"])}
    limit_order = {name: i for i, name in enumerate(raw["limits"])}
    plan_order = {name: i for i, name in enumerate(raw["plans"])}

    put(f"saasName: {raw['saasName']}")
    put(f"version: {raw['version']}")
    put(f"currency: {raw['currency']}")
    put("billingPeriod:")
    put(f"  value: {raw['billing'][0]}")
    put(f"  unit: {raw['billing'][1]}")
    put("features:")
    for name, spec in raw["features"].items():
        put(f"  {name}:", ("features", name))
        put(f"    description: {spec['description']}", ("features", name, "description"))
        put(f"    type: {spec['type']}", ("features", name, "type"))
        if spec["valueType"] != "BOOLEAN":
            put(f"    valueType: {spec['valueType']}")
        if spec["default"] != _falsy(spec["valueType"]):
            put(f"    defaultValue: {_fmt(spec['default'])}")
    if raw["limits"]:
        put("usageLimits:")
    for name, spec in raw["limits"].items():
        put(f"  {name}:", ("limits", name))
        put(f"    description: {spec['description']}", ("limits", name, "description"))
        put(f"    type: {spec['kind']}")
        put(f"    metric: {spec['metric']}", ("limits", name, "metric"))
        if spec["period"] is not None:
            put("    period:")
            put(f"      value: {spec['period'][0]}")
            put(f"      unit: {spec['period'][1]}")
        put(f"    defaultValue: {spec['default']}", ("limits", name, "defaultValue"))
        if spec["linked"]:
            linked = sorted(set(spec["linked"]), key=feature_order.__getitem__)
            put(f"    linkedFeatures: [{', '.join(linked)}]")
    if raw["plans"]:
        put("plans:")
    for name, spec in raw["plans"].items():
        put(f"  {name}:", ("plans", name))
        put(f"    price: {spec['price']}")
        if spec["features"]:
            put("    features:")
            for ref in sorted(spec["features"], key=feature_order.__getitem__):
                put(f"      {ref}:", ("plans", name, "features", ref))
                put(f"        value: {_fmt(spec['features'][ref])}")
        if spec["limits"]:
            put("    usageLimits:")
            for ref in sorted(spec["limits"], key=limit_order.__getitem__):
                put(f"      {ref}:")
                put(f"        value: {spec['limits'][ref]}")
    if raw["addOns"]:
        put("addOns:")
    for name, spec in raw["addOns"].items():
        put(f"  {name}:", ("addOns", name))
        put(f"    price: {spec['price']}")
        if spec["available"]:
            available = sorted(set(spec["available"]), key=plan_order.__getitem__)
            put(f"    availableFor: [{', '.join(available)}]")
        if spec["features"]:
            put("    features:")
            for ref in sorted(spec["features"], key=feature_order.__getitem__):
                put(f"      {ref}:")
                put(f"        value: {_fmt(spec['features'][ref])}")
        if spec["extensions"]:
            put("    usageLimitExtensions:")
            for ref in sorted(spec["extensions"], key=limit_order.__getitem__):
                put(f"      {ref}:")
                put(f"        value: {spec['extensions'][ref]}")
    return "\n".join(lines) + "\n", where


# -- planted document errors -----------------------------------------------------

ERROR_KINDS = ["UNKNOWN_KEY", "BAD_ENUM", "DANGLING_REFERENCE",
               "TYPE_MISMATCH", "MISSING_REQUIRED", "DUPLICATE_KEY"]


def plant_error(rng: random.Random, raw: dict, kind: str) -> tuple[str, tuple[int, int, str]]:
    """Document text with exactly one schema error, and its (line, column, kind)."""
    text, where = emit(raw)
    lines = text.split("\n")
    feature = rng.choice(list(raw["features"]))
    limit = rng.choice(list(raw["limits"]))
    if kind == "UNKNOWN_KEY":
        line = where[("features", feature, "type")] + 1
        lines.insert(line - 1, "    colour: blue")
        expected = (line, 5, kind)
    elif kind == "BAD_ENUM":
        line = where[("features", feature, "type")]
        lines[line - 1] += "S"
        expected = (line, 11, kind)
    elif kind == "DANGLING_REFERENCE":
        plan, ref = rng.choice([(p, f) for p, spec in raw["plans"].items()
                                for f in spec["features"]])
        line = where[("plans", plan, "features", ref)]
        lines[line - 1] = "      ghostFeature:"
        expected = (line, 7, kind)
    elif kind == "TYPE_MISMATCH":
        line = where[("limits", limit, "defaultValue")]
        lines[line - 1] = f"    defaultValue: -{raw['limits'][limit]['default'] + 1}"
        expected = (line, 19, kind)
    elif kind == "MISSING_REQUIRED":
        del lines[where[("limits", limit, "metric")] - 1]
        expected = (where[("limits", limit, "description")], 5, kind)
    elif kind == "DUPLICATE_KEY":
        line = where[("features", feature, "type")] + 1
        lines.insert(line - 1, lines[line - 2])
        expected = (line, 5, kind)
    else:
        raise ValueError(f"unknown planted error kind {kind!r}")
    return "\n".join(lines), expected


def plant_violations(rng: random.Random, raw: dict) -> dict:
    """Copy of ``raw`` with one duplicate plan pair (R1) and one orphan feature (R2)."""
    raw = copy.deepcopy(raw)
    plans = list(raw["plans"])
    a, b = rng.sample(plans, 2)
    raw["plans"][b]["features"] = dict(raw["plans"][a]["features"])
    raw["plans"][b]["limits"] = dict(raw["plans"][a]["limits"])
    orphan = rng.choice([f for f, spec in raw["features"].items()
                         if spec["valueType"] == "BOOLEAN"])
    raw["features"][orphan]["default"] = False
    for spec in raw["plans"].values():
        spec["features"].pop(orphan, None)
    for spec in raw["addOns"].values():
        spec["features"].pop(orphan, None)
    # Copying plan a over plan b can orphan features only b enabled; other
    # plans take those over, so the planted pair and orphan are all there is.
    _make_reachable(rng, raw["features"], raw["plans"],
                    [p for p in plans if p not in (a, b)], skip=orphan)
    return raw


# -- release history ---------------------------------------------------------------

EDIT_KINDS = ["plan_price", "limit_default", "plan_feature", "add_on_price",
              "add_on_extension", "feature_description", "add_on_removed", "feature_added"]


def apply_edit(rng: random.Random, raw: dict, kind: str, serial: int,
               keep_add_ons: frozenset = frozenset()) -> dict:
    """Apply one planted edit in place and return its description.

    Every edit keeps the catalog valid and canonical: new values differ
    from the catalog default they would otherwise restate.
    """
    plans = list(raw["plans"])
    limits = list(raw["limits"])[1:]  # the tier limit stays put
    if kind == "plan_price":
        plan = rng.choice(plans)
        raw["plans"][plan]["price"] = f"{serial + 100}.{rng.randint(10, 99)}"
        return {"kind": kind, "plan": plan}
    if kind == "limit_default":
        limit = rng.choice(limits)
        taken = {spec["limits"].get(limit) for spec in raw["plans"].values()}
        old = raw["limits"][limit]["default"]
        new = old
        while new == old or new in taken:
            new = rng.randint(1, 3000)
        raw["limits"][limit]["default"] = new
        return {"kind": kind, "limit": limit, "old": old}
    if kind == "plan_feature":
        plan = rng.choice(plans)
        feature = rng.choice([f for f, spec in raw["features"].items()
                              if spec["valueType"] == "NUMERIC"
                              and f in raw["plans"][plan]["features"]]
                             or [f for f, spec in raw["features"].items()
                                 if spec["valueType"] == "NUMERIC"])
        spec = raw["features"][feature]
        current = raw["plans"][plan]["features"].get(feature, spec["default"])
        new = current
        while new in (current, spec["default"]) or new == 0:
            new = rng.randint(1, 500)
        raw["plans"][plan]["features"][feature] = new
        return {"kind": kind, "plan": plan, "feature": feature}
    if kind == "add_on_price":
        add_on = rng.choice(list(raw["addOns"]))
        raw["addOns"][add_on]["price"] = f"{serial + 100}.{rng.randint(10, 99)}"
        return {"kind": kind, "addOn": add_on}
    if kind == "add_on_extension":
        add_on = rng.choice(list(raw["addOns"]))
        extensions = raw["addOns"][add_on]["extensions"]
        limit = rng.choice(list(extensions))
        extensions[limit] += rng.randint(1, 500)
        return {"kind": kind, "addOn": add_on, "limit": limit}
    if kind == "feature_description":
        feature = rng.choice(list(raw["features"]))
        raw["features"][feature]["description"] = _description(rng, 9000 + serial)
        return {"kind": kind, "feature": feature}
    if kind == "add_on_removed":
        add_on = rng.choice([a for a in raw["addOns"] if a not in keep_add_ons])
        del raw["addOns"][add_on]
        return {"kind": kind, "addOn": add_on}
    if kind == "feature_added":
        feature = f"n{serial:04d}{rng.choice(WORDS)[:4]}"
        raw["features"][feature] = {"description": _description(rng, 8000 + serial),
                                    "type": rng.choice(FEATURE_TYPES),
                                    "valueType": "BOOLEAN", "default": False}
        plan = rng.choice(plans)
        raw["plans"][plan]["features"][feature] = True
        return {"kind": kind, "feature": feature, "plan": plan}
    raise ValueError(f"unknown edit kind {kind!r}")


def release_history(rng: random.Random, base: dict, releases: int,
                    edits_per_release: int) -> list[tuple[dict, list[dict]]]:
    """Versions ``v0..vN``; each entry pairs a raw version with the edits that made it."""
    history = [(base, [])]
    serial = 0
    for _ in range(releases):
        raw = copy.deepcopy(history[-1][0])
        # A removal goes last and spares add-ons edited in the same release,
        # so that every other edit still shows in the diff.
        kinds = sorted(rng.sample(EDIT_KINDS, edits_per_release),
                       key=lambda kind: kind == "add_on_removed")
        edits = []
        for kind in kinds:
            if kind == "add_on_removed" and len(raw["addOns"]) <= 2:
                continue
            serial += 1
            touched = frozenset(edit.get("addOn") for edit in edits)
            edits.append(apply_edit(rng, raw, kind, serial, touched))
        raw["version"] = f"r{int(raw['version'][1:]) + 1}"
        history.append((raw, edits))
    return history


# -- subscribers ---------------------------------------------------------------

def start_instant(rng: random.Random) -> datetime:
    """A start in 2025; about a third are anchored on a month's last days."""
    month = rng.randint(1, 12)
    if rng.random() < 0.35:
        day = rng.choice([28, 29, 30, 31])
    else:
        day = rng.randint(1, 27)
    while True:
        try:
            date = datetime(2025, month, day, tzinfo=timezone.utc)
            break
        except ValueError:
            day -= 1
    return date + timedelta(seconds=rng.randint(0, 86399))


def available_add_ons(raw: dict, plan: str) -> list[str]:
    return [name for name, spec in raw["addOns"].items()
            if not spec["available"] or plan in spec["available"]]


def pick_subscriber(rng: random.Random, raw: dict) -> tuple[str, list[str], datetime]:
    plan = rng.choice(list(raw["plans"]))
    offered = available_add_ons(raw, plan)
    add_ons = sorted(rng.sample(offered, min(len(offered), rng.randint(0, 3))))
    return plan, add_ons, start_instant(rng)
