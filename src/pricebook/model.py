"""In-memory model of a SaaS pricing: plans, add-ons, features, usage limits.

All objects are frozen dataclasses. Each constructor checks every field
against what the field table ``FIELDS`` says it holds, by the parser's own
rules (``out_of_range``), and the rules that join an entity's fields (a
limit's period against its kind, an add-on that grants or extends nothing,
a pricing with neither plans nor add-ons) by ``joins``, where each is
written once: a constructor raises on the first one broken, and the parser
reports every one at its node. ``Pricing`` also checks what joins entries:
map keys are names, names are unique, references resolve, plan and add-on
values have their feature's kind. So a ``Pricing`` refuses exactly what a
document cannot say, save a blank limit metric, which ``validate`` reports
as R3B. It then canonicalizes (plan overrides exactly equal to the catalog
default are dropped, since they change nothing) and makes every map it
holds read-only, its own and those of its plans and add-ons, which is what
lets the subscription engine build its lookup index once per pricing, on
first use, and keep it. The entries it rebuilds are copies, not checked
again; ``Plan`` and ``AddOn`` objects built by hand keep the plain dicts
they were given.

The rule of which features a subscriber has enabled is written here too,
once (``enabled_features``), for the engine, ``impact`` and ``validate``.

Numbers are ``decimal.Decimal`` throughout. Documents round-trip exactly
and equality never suffers binary floating point surprises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .errors import ModelError, NoPlansError
from .periods import Period, PeriodUnit

__all__ = [
    "FeatureType",
    "ValueKind",
    "FeatureValue",
    "Feature",
    "LimitKind",
    "UsageLimit",
    "Plan",
    "AddOn",
    "Pricing",
    "FeatureClass",
    "StatsSummary",
    "classify_features",
    "pricing_stats",
]

# The widest exponent a number may carry, either way: the power of ten of
# its leading digit (1e3 and 1234 have 3, 0.05 has -2). Fixed-point text
# writes out every zero an exponent stands for, so 1e999999999 would take a
# gigabyte; numbers past this bound are refused where they enter: documents,
# state files and the command line.
MAX_EXPONENT = 1000


def to_decimal(value: Decimal | int | str, what: str) -> Decimal:
    """A Decimal, an int or numeric text as a Decimal; ModelError names ``what``
    for anything else. A float is refused, since it holds a binary fraction
    and not the decimal it was written as, and so is a bool."""
    if isinstance(value, bool) or not isinstance(value, (Decimal, int, str)):
        raise ModelError(f"{what} must be a Decimal, an int or text, got {type(value).__name__}")
    try:
        return Decimal(value)
    except ArithmeticError:
        raise ModelError(f"{what} is not a number, got {value!r}") from None


def exponent_in_range(value: Decimal) -> bool:
    """Whether a finite number's exponent lies within +-``MAX_EXPONENT``."""
    return -MAX_EXPONENT <= value.adjusted() <= MAX_EXPONENT


class _FrozenDict(dict):
    """A dict that refuses every change after construction.

    A ``dict`` subclass rather than ``types.MappingProxyType``, so that it
    reads at dict speed and a ``Pricing`` still pickles and deep-copies.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("pricing maps are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (_FrozenDict, (dict(self),))


class FeatureType(Enum):
    DOMAIN = "DOMAIN"
    INTEGRATION = "INTEGRATION"
    AUTOMATION = "AUTOMATION"
    MANAGEMENT = "MANAGEMENT"
    INFORMATION = "INFORMATION"
    GUARANTEE = "GUARANTEE"
    SUPPORT = "SUPPORT"
    PAYMENT = "PAYMENT"


class ValueKind(Enum):
    BOOLEAN = "BOOLEAN"
    NUMERIC = "NUMERIC"
    TEXT = "TEXT"


class LimitKind(Enum):
    RENEWABLE = "RENEWABLE"
    NON_RENEWABLE = "NON_RENEWABLE"
    RESPONSE_DRIVEN = "RESPONSE_DRIVEN"
    TIME_DRIVEN = "TIME_DRIVEN"


class ChangeKind(Enum):
    """What ``changes.diff`` reports; ``FIELDS`` names the kind of each field."""

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


@dataclass(frozen=True)
class FeatureValue:
    """A typed feature payload: a flag, a finite non-negative number, or text.

    The kind is part of identity: ``boolean true`` and ``numeric 1`` are
    different values even though Python considers ``True == 1``.
    """

    kind: ValueKind
    value: bool | Decimal | str

    def __post_init__(self) -> None:
        kind = self.kind
        payload = (bool if kind is ValueKind.BOOLEAN else Decimal if kind is ValueKind.NUMERIC
                   else str if kind is ValueKind.TEXT else None)
        problem = _problem(ValueKind, kind) if payload is None else _problem(payload, self.value)
        if problem is not None:
            raise ModelError(f"feature value: {problem}")

    @classmethod
    def boolean(cls, value: bool) -> "FeatureValue":
        return cls(ValueKind.BOOLEAN, value)

    @classmethod
    def numeric(cls, value: Decimal | int | str) -> "FeatureValue":
        """A number from a Decimal, an int or numeric text (see ``to_decimal``)."""
        return cls(ValueKind.NUMERIC, to_decimal(value, "numeric value"))

    @classmethod
    def text(cls, value: str) -> "FeatureValue":
        return cls(ValueKind.TEXT, value)

    @property
    def truthy(self) -> bool:
        """True for boolean true, a number > 0, or a non-empty string."""
        if self.kind is ValueKind.BOOLEAN:
            return bool(self.value)
        if self.kind is ValueKind.NUMERIC:
            return self.value > 0
        return self.value != ""


@dataclass(frozen=True)
class Feature:
    name: str
    feature_type: FeatureType
    value_kind: ValueKind = ValueKind.BOOLEAN
    default_value: FeatureValue | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.default_value is None and isinstance(self.value_kind, ValueKind):
            object.__setattr__(self, "default_value", _DEFAULTS[self.value_kind])
        _check_fields(self)
        if self.default_value.kind is not self.value_kind:
            raise ModelError(f"feature {self.name!r}: default value kind "
                             f"{self.default_value.kind.value} does not match declared "
                             f"{self.value_kind.value}")


@dataclass(frozen=True)
class UsageLimit:
    """A quantified cap with an objective metric; a blank one can be built (see ``_checks``)."""

    name: str
    kind: LimitKind
    metric: str
    default_value: Decimal = Decimal(0)
    period: Period | None = None
    linked_features: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        _check_fields(self)
        _check_joins(self)


@dataclass(frozen=True)
class Plan:
    """A subscription tier, expressed as deltas over the catalog defaults."""

    name: str
    price: Decimal
    feature_overrides: dict[str, FeatureValue] = field(default_factory=dict)
    limit_overrides: dict[str, Decimal] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class AddOn:
    """An optional purchasable extra; grants features and/or extends limits.

    An empty ``available_for`` means the add-on is offered with every plan.
    """

    name: str
    price: Decimal
    available_for: tuple[str, ...] = ()
    feature_grants: dict[str, FeatureValue] = field(default_factory=dict)
    limit_extensions: dict[str, Decimal] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_fields(self)
        _check_joins(self)


@dataclass(frozen=True)
class Pricing:
    """Root container for a pricing document.

    Maps preserve declaration order; that order is what the serializer and
    the diff engine report things in. Every map is read-only once
    constructed; ``hash(pricing)`` is not supported and raises
    ``TypeError``.
    """

    saas_name: str
    version: str
    currency: str
    billing_period: Period
    features: dict[str, Feature] = field(default_factory=dict)
    usage_limits: dict[str, UsageLimit] = field(default_factory=dict)
    plans: dict[str, Plan] = field(default_factory=dict)
    add_ons: dict[str, AddOn] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_fields(self)
        self._check()
        self._canonicalize()

    def _canonicalize(self) -> None:
        # Two normalizations keep "equal pricings serialize identically"
        # true: plan overrides restating the catalog default are dropped
        # (they are inert under resolution), and every cross-reference map
        # or list is rewritten in catalog declaration order, deduplicated.
        # Every map is frozen on the way, which is what makes caching
        # derived lookups (``_index``) sound. ``_check`` has run, so every
        # name these maps and lists hold is in its catalog, and the entries
        # rebuilt here are copied (``_copy``) without being checked again.
        def ordered(values: dict, catalog: dict) -> dict:
            return _FrozenDict({key: values[key] for key in catalog if key in values})

        object.__setattr__(self, "features", _FrozenDict(self.features))

        feature_position = _position_key(self.features)
        limits = {}
        for name, limit in self.usage_limits.items():
            linked = tuple(sorted(set(limit.linked_features), key=feature_position))
            if linked != limit.linked_features:
                limit = _copy(limit, linked_features=linked)
            limits[name] = limit
        object.__setattr__(self, "usage_limits", _FrozenDict(limits))

        plans = {}
        for name, plan in self.plans.items():
            fo = ordered({
                f: v for f, v in plan.feature_overrides.items()
                if self.features[f].default_value != v
            }, self.features)
            lo = ordered({
                l: v for l, v in plan.limit_overrides.items()
                if self.usage_limits[l].default_value != v
            }, self.usage_limits)
            plans[name] = _copy(plan, feature_overrides=fo, limit_overrides=lo)
        object.__setattr__(self, "plans", _FrozenDict(plans))

        plan_position = _position_key(plans)
        add_ons = {}
        for name, add_on in self.add_ons.items():
            available = tuple(sorted(set(add_on.available_for), key=plan_position))
            add_ons[name] = _copy(
                add_on,
                available_for=available,
                feature_grants=ordered(add_on.feature_grants, self.features),
                limit_extensions=ordered(add_on.limit_extensions, self.usage_limits),
            )
        object.__setattr__(self, "add_ons", _FrozenDict(add_ons))

    def _check(self) -> None:
        for entry in ENTRIES:
            for key, value in getattr(self, _CATALOG_ATTR[entry]).items():
                if key != value.name:
                    raise ModelError(
                        f"{_LABELS[entry]} map key {key!r} does not match name {value.name!r}")
        for name, limit in self.usage_limits.items():
            if name in self.features:
                _fail(limit, None, f"{name!r} is already the name of a feature")
        _check_joins(self)
        for entry, references in _REFERENCES.items():
            for value in getattr(self, _CATALOG_ATTR[entry]).values():
                for key, attr, target, of_kind in references:
                    catalog = getattr(self, _CATALOG_ATTR[target])
                    names = getattr(value, attr)
                    for name in names:
                        declared = catalog.get(name)
                        if declared is None:
                            _fail(value, key, f"references {unknown(target, name)}")
                        if of_kind and names[name].kind is not declared.value_kind:
                            _fail(value, f"{key}.{name}", f"is {names[name].kind.value}, "
                                  f"feature declares {declared.value_kind.value}")

    @cached_property
    def _index(self) -> _EngineIndex:
        """The subscription engine's lookups, built on its first call."""
        return _EngineIndex.build(self)


@dataclass(frozen=True)
class _EngineIndex:
    """Where the subscription engine finds what touches one name.

    Every entry lists its sources in catalog order, the order in which
    extensions add up and the last grant wins. It holds no resolved plan
    tables: the engine reads the one plan value it needs from the plan's
    overrides, so the index stays small and catalog-wide readers
    (``validate``, ``pricing_stats``, ``diff``) never build it. The engine
    and ``impact`` pass its truthy sets and each plan's ``plan_switches`` to
    ``enabled_features`` and ``enabled``.
    """

    linked_limits: dict[str, tuple[str, ...]]  # feature -> limits linked to it
    grants: dict[str, tuple[tuple[str, FeatureValue], ...]]  # feature -> (add-on, grant)
    extensions: dict[str, tuple[tuple[str, Decimal], ...]]  # limit -> (add-on, extension)
    truthy_defaults: frozenset[str]  # features whose catalog default is truthy
    truthy_grants: dict[str, frozenset[str]]  # add-on -> features it grants truthy
    plan_switches: dict[str, Switches]  # plan -> its ``plan_switches``
    # (period, limits) for each distinct period of the periodic limits
    renewals: tuple[tuple[Period, tuple[str, ...]], ...]
    # (limit, period, position of the period in ``renewals``) for every limit
    # in catalog order; the period and position are None for a limit without one
    counters: tuple[tuple[str, Period | None, int | None], ...]

    @classmethod
    def build(cls, pricing: Pricing) -> _EngineIndex:
        linked: dict[str, list] = {}
        periodic: dict[Period, list] = {}
        slots: dict[Period, int] = {}  # period -> its position in ``renewals``
        counters = []
        for limit in pricing.usage_limits.values():
            for feature in limit.linked_features:
                linked.setdefault(feature, []).append(limit.name)
            slot = None
            if limit.period is not None:
                periodic.setdefault(limit.period, []).append(limit.name)
                slot = slots.setdefault(limit.period, len(slots))
            counters.append((limit.name, limit.period, slot))
        grants: dict[str, list] = {}
        extensions: dict[str, list] = {}
        for add_on in pricing.add_ons.values():
            for feature, value in add_on.feature_grants.items():
                grants.setdefault(feature, []).append((add_on.name, value))
            for limit, amount in add_on.limit_extensions.items():
                extensions.setdefault(limit, []).append((add_on.name, amount))

        def frozen(entries: dict[str, list]) -> _FrozenDict:
            return _FrozenDict({key: tuple(value) for key, value in entries.items()})

        return cls(frozen(linked), frozen(grants), frozen(extensions), truthy_defaults(pricing),
                   _FrozenDict({name: truthy_grants(a) for name, a in pricing.add_ons.items()}),
                   _FrozenDict({name: plan_switches(p) for name, p in pricing.plans.items()}),
                   tuple((period, tuple(names)) for period, names in periodic.items()),
                   tuple(counters))


class FeatureClass(Enum):
    COMMON = "COMMON"
    SPECIFIC = "SPECIFIC"


@dataclass(frozen=True)
class StatsSummary:
    plans: int
    add_ons: int
    features: int
    usage_limits: int
    feature_types: dict[FeatureType, int]
    limit_kinds: dict[LimitKind, int]
    plan_managed_features: int
    add_on_managed_features: int
    add_on_feature_counts: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "plans": self.plans,
            "addOns": self.add_ons,
            "features": self.features,
            "usageLimits": self.usage_limits,
            "featureTypes": {t.value: self.feature_types[t] for t in FeatureType},
            "limitKinds": {k.value: self.limit_kinds[k] for k in LimitKind},
            "planManagedFeatures": self.plan_managed_features,
            "addOnManagedFeatures": self.add_on_managed_features,
            "addOnFeatureCounts": dict(self.add_on_feature_counts),
        }


def truthy_defaults(pricing: Pricing) -> frozenset[str]:
    """Features whose catalog default is truthy."""
    return frozenset(name for name, f in pricing.features.items() if f.default_value.truthy)


def truthy_grants(add_on: AddOn) -> frozenset[str]:
    """Features an add-on grants a truthy value."""
    return frozenset(name for name, value in add_on.feature_grants.items() if value.truthy)


Switches = tuple[frozenset[str], dict[str, FeatureValue]]  # what ``plan_switches`` returns


def plan_switches(plan: Plan) -> Switches:
    """The features a plan's overrides make truthy, and the overrides themselves."""
    overrides = plan.feature_overrides
    return frozenset(name for name, value in overrides.items() if value.truthy), overrides


def enabled_features(defaults: frozenset[str], switches: Switches, grants=()) -> frozenset[str]:
    """The features enabled for a subscriber of a plan; the one place the rule is
    written. A feature is enabled when a subscribed add-on grants it truthy
    (``grants``; ``granted`` in ``enabled``, which asks it of one feature), when the
    plan overrides it truthy, or when its catalog default is truthy (``defaults``)
    and the plan does not override it at all (``switches``, from ``plan_switches``)."""
    on, overrides = switches
    return defaults.difference(overrides).union(on, *grants)


def enabled(feature: str, defaults: frozenset[str], switches: Switches, granted: bool) -> bool:
    on, overrides = switches
    return granted or feature in on or (feature in defaults and feature not in overrides)


def classify_features(pricing: Pricing) -> dict[str, FeatureClass]:
    """COMMON if a feature resolves identically in every plan, else SPECIFIC.

    Classification is defined over plans only; add-on grants do not enter.
    Undefined for a pricing without plans.
    """
    if not pricing.plans:
        raise NoPlansError("feature classification requires at least one plan")
    first, *rest = pricing.plans.values()
    out: dict[str, FeatureClass] = {}
    for name, feature in pricing.features.items():
        value = first.feature_overrides.get(name, feature.default_value)
        same = all(plan.feature_overrides.get(name, feature.default_value) == value
                   for plan in rest)
        out[name] = FeatureClass.COMMON if same else FeatureClass.SPECIFIC
    return out


def pricing_stats(pricing: Pricing) -> StatsSummary:
    """Headline counts: catalog sizes, type histograms, who manages what.

    A feature is plan-managed when it resolves truthy in at least one plan,
    and add-on-managed when at least one add-on grants it a truthy value.
    """
    feature_types = {t: 0 for t in FeatureType}
    for feat in pricing.features.values():
        feature_types[feat.feature_type] += 1
    limit_kinds = {k: 0 for k in LimitKind}
    for limit in pricing.usage_limits.values():
        limit_kinds[limit.kind] += 1

    defaults = truthy_defaults(pricing)
    plan_managed = set().union(*(enabled_features(defaults, plan_switches(p))
                                 for p in pricing.plans.values()))
    granted = {name: truthy_grants(add_on) for name, add_on in pricing.add_ons.items()}
    return StatsSummary(
        plans=len(pricing.plans),
        add_ons=len(pricing.add_ons),
        features=len(pricing.features),
        usage_limits=len(pricing.usage_limits),
        feature_types=feature_types,
        limit_kinds=limit_kinds,
        plan_managed_features=len(plan_managed),
        add_on_managed_features=len(set().union(*granted.values())),
        add_on_feature_counts={name: len(features) for name, features in granted.items()},
    )


def _position_key(catalog: dict):
    """Sort key by declaration position in ``catalog``."""
    return {key: index for index, key in enumerate(catalog)}.__getitem__


# -- the dialect's field table -----------------------------------------------


class Field(NamedTuple):
    """One field of an entity: its document and JSON key, the model
    attribute that holds it, what it holds (below), the change kind
    ``diff`` reports when it differs ((added, removed) for a catalog of
    entries), and the values ``serialize`` leaves out, its schema default.
    A field without such a default is always written, and a document must
    give it."""

    key: str
    attr: str
    holds: object
    change: object = None
    omit: tuple = ()


class Names(NamedTuple):
    """What a list field holds: names of entries in the catalog of ``entry``."""

    entry: type


class Values(NamedTuple):
    """What a map field holds: for names of entries in the catalog of
    ``entry``, one value each of what ``holds`` says, written {value: ...}
    in a document."""

    entry: type
    holds: object


# What a scalar field holds where its type does not say it all: text that
# is not blank, a three-letter currency code, an entry's name, an amount
# above zero. An ``int`` is a count, at least 1.
NONBLANK = "non-blank text"
CURRENCY = "currency code"
NAME = "identifier"
POSITIVE = "amount above zero"

_EXPONENT_MESSAGE = f"expected a number whose exponent lies within -{MAX_EXPONENT}..{MAX_EXPONENT}"
_CURRENCY, _IDENTIFIER = re.compile("[A-Z]{3}"), re.compile("[A-Za-z_][A-Za-z0-9_]*")


def _number(low: int, message: str, *, above: bool = False):
    """A number's range: finite, its exponent bounded, and ``low`` or more (or above)."""
    def in_range(value) -> str | None:
        number = Decimal(value)
        if not number.is_finite() or not exponent_in_range(number):
            return _EXPONENT_MESSAGE
        return None if (number > low if above else number >= low) else message
    return in_range


_COUNT = _number(1, "expected an integer >= 1")

# What a value must be, by what its field holds: an instance of a type and,
# for the range rules, a test that returns the parser's message for a value
# out of range, None for one in range. ``periods`` checks that a period's
# value is a whole number of at least 1; its exponent is bounded here.
_VALID = {
    str: (str, None),
    NONBLANK: (str, lambda text: None if text.strip() else "must be a non-empty string"),
    CURRENCY: (str, lambda text: None if _CURRENCY.fullmatch(text)
               else "expected a 3-letter ISO-4217 currency code"),
    NAME: (str, lambda text: None if _IDENTIFIER.fullmatch(text) else "names must be "
           "identifiers (letters, digits, underscore; not starting with a digit)"),
    bool: (bool, None),
    Decimal: (Decimal, _number(0, "expected a number >= 0")),
    POSITIVE: (Decimal, _number(0, "expected a number > 0", above=True)),
    int: (int, _COUNT),
    Period: (Period, lambda period: _COUNT(period.value)),
    **{kind: (kind, None) for kind in (FeatureType, ValueKind, LimitKind, PeriodUnit,
                                       FeatureValue, Feature, UsageLimit, Plan, AddOn)},
}


def out_of_range(holds, value) -> str | None:
    """The parser's message for a value of the right type that a field holding
    ``holds`` refuses; None if it accepts it."""
    in_range = _VALID[holds][1]
    return in_range(value) if in_range else None


def _problem(holds, value) -> str | None:
    """What is wrong with ``value`` as the value of a field holding ``holds``; None if nothing."""
    kind, in_range = _VALID[holds]
    if type(value) is not kind and (type(value) is bool or not isinstance(value, kind)):
        return f"must be {'an' if kind is int else 'a'} {kind.__name__}, got {value!r}"
    problem = in_range and in_range(value)
    return problem and f"{problem}, got {value!r}"


def unknown(entry: type, name) -> str:
    """What the parser says of a name that no entry of ``entry``'s catalog has."""
    return f"unknown {_LABELS[entry]} {name!r}"


def _fail(entity, key: str | None, problem: str):
    label = _LABELS.get(type(entity))
    where = [f"{label} {entity.name!r}"] if label else []
    if key:
        where.append(key)
    raise ModelError(f"{' '.join(where)}: {problem}")


def joins(entity: type, values: dict):
    """The rules that join an entity's fields, each written once here.

    ``values`` holds the entity's present fields by attribute, None for one
    that did not read. Yields (key, missing, message) for each rule they
    break: the key of the field the rule is about (None for the entity as
    a whole), and whether something is missing there rather than present
    that must not be. The parser locates each problem; the model raises on
    the first.
    """
    if entity is UsageLimit:
        # checked once the kind, metric and default value have read; a period
        # that did not read still counts as present
        kind = values.get("kind")
        if kind is None or values.get("metric") is None or values.get("default_value") is None:
            return
        if kind is LimitKind.RENEWABLE and "period" not in values:
            yield _KEY[UsageLimit, "period"], True, "RENEWABLE limits need a period"
        elif kind is LimitKind.NON_RENEWABLE and "period" in values:
            yield (_KEY[UsageLimit, "period"], False,
                   "NON_RENEWABLE limits must not declare a period")
    elif entity is AddOn:
        if not values.get("feature_grants") and not values.get("limit_extensions"):
            yield (None, True,
                   "an add-on must grant at least one feature or extend at least one limit")
    elif entity is Pricing:
        if not values.get("plans") and not values.get("add_ons"):
            yield _KEY[Pricing, "plans"], True, "a pricing needs at least one plan or add-on"


def _check_joins(entity) -> None:
    """Raise on the first rule of ``joins`` an entity breaks; its present
    fields are those ``serialize`` writes, the ones not at their omitted default."""
    present = {attr: value for _, attr, _, _, omit in FIELDS[type(entity)]
               if (value := getattr(entity, attr)) not in omit}
    for key, _, message in joins(type(entity), present):
        _fail(entity, key, message)


def _copy(entity, **changes):
    """A copy of a checked entity with ``changes``, which are not checked again."""
    copy = object.__new__(type(entity))
    vars(copy).update(vars(entity), **changes)
    return copy


def _check_fields(entity) -> None:
    """Check each field of an entity against what ``FIELDS`` says it holds;
    a field's schema default, the value ``serialize`` omits, is valid."""
    for key, attr, container, holds, kind, in_range, omit in _CHECKS[type(entity)]:
        value = getattr(entity, attr)
        if container is None:
            if type(value) is not kind or in_range and in_range(value):
                problem = _problem(holds, value)
                if problem and value not in omit:
                    _fail(entity, key, problem)
        elif not isinstance(value, container):
            _fail(entity, key, f"must be a {container.__name__}, got {value!r}")
        else:
            for name, item in value.items() if container is dict else enumerate(value):
                if type(item) is not kind or in_range and in_range(item):
                    problem = _problem(holds, item)
                    if problem:
                        _fail(entity, f"{key}.{name}", problem)


# The schema default of each value kind; sharing is safe because FeatureValue is frozen.
_DEFAULTS = {ValueKind.BOOLEAN: FeatureValue.boolean(False), ValueKind.NUMERIC:
             FeatureValue.numeric(0), ValueKind.TEXT: FeatureValue.text("")}

_C = ChangeKind
# Each entity's fields in canonical order: the order ``serialize`` writes
# and the JSON views list them in, and the keys the parser accepts. A field
# holds a scalar type, an entity (``Period``), a catalog of entries (an
# entry type), or names of or values by a catalog's entries.
FIELDS: dict[type, tuple[Field, ...]] = {
    Pricing: (
        Field("saasName", "saas_name", NONBLANK, _C.METADATA_CHANGED),
        Field("version", "version", str, _C.METADATA_CHANGED),
        Field("currency", "currency", CURRENCY, _C.METADATA_CHANGED),
        Field("billingPeriod", "billing_period", Period, _C.METADATA_CHANGED),
        Field("features", "features", Feature, (_C.FEATURE_ADDED, _C.FEATURE_REMOVED)),
        Field("usageLimits", "usage_limits", UsageLimit, (_C.LIMIT_ADDED, _C.LIMIT_REMOVED),
              ({},)),
        Field("plans", "plans", Plan, (_C.PLAN_ADDED, _C.PLAN_REMOVED), ({},)),
        Field("addOns", "add_ons", AddOn, (_C.ADD_ON_ADDED, _C.ADD_ON_REMOVED), ({},)),
    ),
    Feature: (
        Field("description", "description", str, _C.FEATURE_DESCRIPTION_CHANGED, ("",)),
        Field("type", "feature_type", FeatureType, _C.FEATURE_TYPE_CHANGED),
        Field("valueType", "value_kind", ValueKind, _C.FEATURE_VALUE_TYPE_CHANGED,
              (ValueKind.BOOLEAN,)),
        # a default value always has the feature's kind, so this omits the kind's default
        Field("defaultValue", "default_value", FeatureValue, _C.FEATURE_DEFAULT_CHANGED,
              tuple(_DEFAULTS.values())),
    ),
    UsageLimit: (
        Field("description", "description", str, _C.LIMIT_DESCRIPTION_CHANGED, ("",)),
        Field("type", "kind", LimitKind, _C.LIMIT_KIND_CHANGED),
        Field("metric", "metric", NONBLANK, _C.LIMIT_METRIC_CHANGED),
        Field("period", "period", Period, _C.LIMIT_PERIOD_CHANGED, (None,)),
        Field("defaultValue", "default_value", Decimal, _C.LIMIT_THRESHOLD_CHANGED),
        Field("linkedFeatures", "linked_features", Names(Feature),
              _C.LIMIT_LINKED_FEATURES_CHANGED, ((),)),
    ),
    Plan: (
        Field("price", "price", Decimal, _C.PLAN_PRICE_CHANGED),
        Field("features", "feature_overrides", Values(Feature, FeatureValue),
              _C.PLAN_FEATURE_VALUE_CHANGED, ({},)),
        Field("usageLimits", "limit_overrides", Values(UsageLimit, Decimal),
              _C.LIMIT_THRESHOLD_CHANGED, ({},)),
    ),
    AddOn: (
        Field("price", "price", Decimal, _C.ADD_ON_PRICE_CHANGED),
        Field("availableFor", "available_for", Names(Plan), _C.ADD_ON_AVAILABILITY_CHANGED,
              ((),)),
        Field("features", "feature_grants", Values(Feature, FeatureValue),
              _C.ADD_ON_GRANT_CHANGED, ({},)),
        Field("usageLimitExtensions", "limit_extensions", Values(UsageLimit, POSITIVE),
              _C.ADD_ON_EXTENSION_CHANGED, ({},)),
    ),
    Period: (Field("value", "value", int), Field("unit", "unit", PeriodUnit)),
    FeatureValue: (Field("type", "kind", ValueKind), Field("value", "value", object)),
}
WRAPPED_KEY = "value"  # the one key of the {value: ...} around each map value in a document
ENTRIES = (Feature, UsageLimit, Plan, AddOn)  # the entry types, each kept in a catalog by name
del _C

_LABELS = {Feature: "feature", UsageLimit: "usage limit", Plan: "plan", AddOn: "add-on"}
# The Pricing attribute of each catalog, by its entry type.
_CATALOG_ATTR = {field.holds: field.attr for field in FIELDS[Pricing]}
# The document key of each field, by its entity and attribute.
_KEY = {(entity, field.attr): field.key for entity, fields in FIELDS.items() for field in fields}


def _checks(entity) -> tuple:
    """The walk's fields of an entity: (key, attribute, container, what the
    value or each item of a container holds, its ``_VALID`` entry, the omitted)."""
    out = [("name", "name", None, NAME, *_VALID[NAME], ())] if entity in ENTRIES else []
    for key, attr, holds, _, omit in FIELDS[entity]:
        if type(holds) is Names:
            container, holds = tuple, str
        elif type(holds) is Values:
            container, holds = dict, holds.holds
        else:
            container = dict if holds in ENTRIES else None
        if entity is UsageLimit and holds is NONBLANK:
            # The one rule only the parser applies: a blank metric can be
            # built, so that ``validate`` can still report it as R3B.
            holds = str
        out.append((key, attr, container, holds, *_VALID[holds], omit))
    return tuple(out)


_CHECKS = {entity: _checks(entity) for entity in (Pricing, *ENTRIES)}
# Each entry's fields that name entries: (key, attribute, entry type named,
# whether they hold values of the named feature's kind).
_REFERENCES = {entry: tuple(
    (key, attr, holds.entry, getattr(holds, "holds", None) is FeatureValue)
    for key, attr, holds, _, _ in FIELDS[entry] if type(holds) in (Names, Values))
    for entry in ENTRIES}


def to_json(value):
    """A model value as JSON data, the form diff lines and evaluation
    results carry: numbers as fixed-point text, enums by value, entities
    as objects keyed in ``FIELDS`` order, catalog entries led by their name."""
    try:
        encode = _TO_JSON[type(value)]
    except KeyError:
        raise TypeError(f"cannot encode {value!r}") from None
    return encode(value)


def _object(fields: tuple[Field, ...], named: bool = False):
    def encode(value) -> dict:
        out = {"name": value.name} if named else {}
        for key, attr, _, _, _ in fields:
            out[key] = to_json(getattr(value, attr))
        return out

    return encode


def _items(value: dict) -> dict:
    return {key: to_json(item) for key, item in value.items()}


def _list(value) -> list:
    return [to_json(item) for item in value]


_TO_JSON = {
    **{kind: lambda value: value for kind in (type(None), bool, int, str)},
    Decimal: lambda value: format(value, "f"),
    tuple: _list, list: _list, dict: _items, _FrozenDict: _items,
    **{enum: attrgetter("value") for enum in (FeatureType, ValueKind, LimitKind, PeriodUnit)},
    Period: _object(FIELDS[Period]), FeatureValue: _object(FIELDS[FeatureValue]),
    **{entry: _object(FIELDS[entry], named=True) for entry in ENTRIES},
}
