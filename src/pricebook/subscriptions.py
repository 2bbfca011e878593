"""Subscription-time semantics: entitlements, effective limits, metering.

A subscription binds one plan, any number of available add-ons, a start
instant, and per-limit usage counters. Which features it has enabled is
the rule ``model.enabled_features`` states. Everything here is functional:
operations take a subscription and return a new one, never mutating in
place, so a rejected recording leaves the caller's state untouched and
distinct subscriptions are trivially thread-safe; the new one is a copy
with new counters (``model._copy``), not checked again.

Time is always an explicit argument. The engine never reads a clock,
which keeps replays and tests deterministic. Limits that declare a period
renew on windows anchored at the start instant and advanced by calendar
arithmetic (see ``periods``); windows never move backwards, even when a
caller passes an earlier instant than it did before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal
from json.encoder import encode_basestring_ascii

from .errors import (
    AddOnNotAvailableError,
    ClockBeforeStartError,
    ContractPeriodError,
    ModelError,
    NonPositiveAmountError,
    QuotaExceededError,
    UnknownAddOnError,
    UnknownFeatureError,
    UnknownLimitError,
    UnknownPlanError,
)
from .model import (MAX_EXPONENT, FeatureValue, Plan, Pricing, _copy, enabled,
                    enabled_features, exponent_in_range, out_of_range, to_decimal, to_json)
from .periods import Period, PeriodUnit, advance, latest_window_index, window_started

__all__ = [
    "UsageState",
    "Subscription",
    "LimitStatus",
    "EvaluationResult",
    "create_subscription",
    "effective_limit",
    "evaluate_feature",
    "evaluation_context",
    "record_usage",
    "lapse_windows",
    "reset_usage",
    "subscription_from_state",
    "subscription_to_json",
    "subscription_from_json",
    "parse_instant",
    "format_instant",
]

_ZERO = Decimal(0)


@dataclass(frozen=True, slots=True)
class UsageState:
    """Counter for one limit; window fields exist iff the limit has a period.

    Slotted: a counter has no ``__dict__``."""

    used: Decimal = Decimal(0)
    window_start: datetime | None = None
    window_index: int | None = None


_set_used = UsageState.used.__set__
_set_window_start = UsageState.window_start.__set__
_set_window_index = UsageState.window_index.__set__


def _counter(used: Decimal, window_start: datetime | None,
             window_index: int | None) -> UsageState:
    """``UsageState(used, window_start, window_index)``, filling the slots
    without running ``__init__`` and its three ``object.__setattr__`` calls;
    the state load builds one per counter."""
    state = object.__new__(UsageState)
    _set_used(state, used)
    _set_window_start(state, window_start)
    _set_window_index(state, window_index)
    return state


@dataclass(frozen=True)
class Subscription:
    plan_name: str
    add_on_names: frozenset[str]
    start_instant: datetime
    contract_period: Period
    usage: dict[str, UsageState]


@dataclass(frozen=True)
class LimitStatus:
    limit: str
    effective: Decimal
    used: Decimal
    remaining: Decimal

    def to_dict(self) -> dict:
        return {
            "limit": self.limit,
            "effective": format(self.effective, "f"),
            "used": format(self.used, "f"),
            "remaining": format(self.remaining, "f"),
        }


@dataclass(frozen=True)
class EvaluationResult:
    feature: str
    enabled: bool
    value: FeatureValue
    limits: tuple[LimitStatus, ...]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "enabled": self.enabled,
            "value": to_json(self.value),
            "limits": [status.to_dict() for status in self.limits],
        }


def parse_instant(text: str) -> datetime:
    """RFC-3339 UTC timestamp with whole seconds."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        instant = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"not an RFC-3339 timestamp: {text!r}") from None
    if instant.tzinfo is None:
        raise ValueError(f"timestamp must carry a UTC offset: {text!r}")
    if instant.microsecond != 0:
        raise ValueError(f"timestamps are whole seconds, got {text!r}")
    try:
        return instant.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp is outside the calendar in UTC: {text!r}") from None


def format_instant(instant: datetime) -> str:
    """RFC-3339 UTC timestamp with whole seconds and a four-digit year; a
    naive or fractional instant raises ValueError, as at every engine call."""
    return _check_instant(instant).replace(tzinfo=None).isoformat() + "Z"


def _check_instant(instant: datetime) -> datetime:
    if instant.tzinfo is None:
        raise ValueError("instants must be timezone-aware")
    if instant.microsecond != 0:
        raise ValueError("instants are whole seconds")
    try:
        return instant.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp is outside the calendar in UTC: "
                         f"{instant.isoformat()!r}") from None


def create_subscription(
    pricing: Pricing,
    plan_name: str,
    add_on_names,
    start_instant: datetime,
    contract_period: Period | None = None,
) -> Subscription:
    """New subscription with zeroed usage and windows anchored at start.

    The contract period defaults to the pricing's billing period; anything
    but a ``Period``, or one past the exponent bound, raises ModelError, since
    its state file could not be read back. Any limit whose window outlasts
    the contract is refused outright: it could never renew within the
    subscription.
    """
    if plan_name not in pricing.plans:
        raise UnknownPlanError(plan_name)
    names = frozenset(add_on_names)
    _check_add_ons(pricing, plan_name, sorted(names))
    start = _check_instant(start_instant)
    contract = pricing.billing_period if contract_period is None else contract_period
    if not isinstance(contract, Period):
        raise ModelError(f"contract period must be a Period, got {contract!r}")
    problem = out_of_range(Period, contract)
    if problem is not None:  # the bound subscription_from_state applies
        raise ModelError(f"contract period: {problem}")
    usage = {}
    for limit in pricing.usage_limits.values():
        if limit.period is not None and limit.period.canonical_days > contract.canonical_days:
            raise ContractPeriodError(limit.name)
        if limit.period is not None:
            usage[limit.name] = UsageState(Decimal(0), start, 0)
        else:
            usage[limit.name] = UsageState(Decimal(0))
    return Subscription(
        plan_name=plan_name,
        add_on_names=names,
        start_instant=start,
        contract_period=contract,
        usage=usage,
    )


def _check_add_ons(pricing: Pricing, plan_name: str, add_on_names) -> None:
    """Refuse, in the order given, an add-on the pricing lacks or does not offer with the plan."""
    for name in add_on_names:
        add_on = pricing.add_ons.get(name)
        if add_on is None:
            raise UnknownAddOnError(name)
        if add_on.available_for and plan_name not in add_on.available_for:
            raise AddOnNotAvailableError(name, plan_name)


def effective_limit(pricing: Pricing, subscription: Subscription, limit_name: str) -> Decimal:
    """Plan-resolved limit value plus all subscribed add-ons' extensions."""
    if limit_name not in pricing.usage_limits:
        raise UnknownLimitError(limit_name)
    return _effective(pricing, _plan(pricing, subscription), subscription.add_on_names, limit_name)


def _plan(pricing: Pricing, subscription: Subscription) -> Plan:
    plan = pricing.plans.get(subscription.plan_name)
    if plan is None:
        raise UnknownPlanError(subscription.plan_name)
    return plan


def _effective(pricing: Pricing, plan: Plan, add_on_names: frozenset[str],
               limit_name: str) -> Decimal:
    """Plan value plus the extensions of the subscribed add-ons that extend it."""
    total = plan.limit_overrides.get(limit_name, pricing.usage_limits[limit_name].default_value)
    extended = 0
    for add_on, amount in pricing._index.extensions.get(limit_name, ()):
        if add_on in add_on_names:
            total += amount
            extended += 1
    # A subscribed add-on that extends nothing here adds 0: no change in
    # value, but the exponent becomes at most 0 (1E+2 reads 100).
    if extended < len(pricing.add_ons.keys() & add_on_names):
        total += Decimal(0)
    return total


def lapse_windows(pricing: Pricing, subscription: Subscription, now: datetime) -> Subscription:
    """Advance every periodic limit to the window containing ``now``.

    A window advance resets the counter to zero. Idempotent for a fixed
    ``now``; windows never regress. Counters whose periods are equal and
    that sit in the same window renew together: the call walks the
    pricing's periodic limits grouped by period (see ``_EngineIndex``),
    checks each distinct (period, window index) once and shares the
    renewed counter, so a counter whose window runs on costs an index read.
    """
    now = _check_instant(now)
    if now < subscription.start_instant:
        raise ClockBeforeStartError(
            f"{format_instant(now)} precedes subscription start "
            f"{format_instant(subscription.start_instant)}"
        )
    start = subscription.start_instant
    usage = subscription.usage
    renewed: dict[str, UsageState] | None = None
    for period, names in pricing._index.renewals:
        fresh: dict[int, UsageState] = {}  # index of a window that ended -> renewed counter
        for index in {usage[name].window_index for name in names if name in usage}:
            if index is not None and window_started(start, period, index, now):
                k = latest_window_index(start, period, now)
                fresh[index] = UsageState(_ZERO, advance(start, period, k), k)
        if fresh:
            if renewed is None:
                renewed = dict(usage)
            for name in names:
                if name in usage and usage[name].window_index in fresh:
                    renewed[name] = fresh[usage[name].window_index]
    if renewed is None:
        return subscription
    return _copy(subscription, usage=renewed)


def _status(pricing: Pricing, plan: Plan, lapsed: Subscription, limit: str) -> LimitStatus:
    eff = _effective(pricing, plan, lapsed.add_on_names, limit)
    used = lapsed.usage[limit].used
    return LimitStatus(limit, eff, used, max(_ZERO, eff - used))


_set_result_dict = EvaluationResult.__dict__["__dict__"].__set__


def _result(feature: str, enabled: bool, value: FeatureValue,
            limits: tuple[LimitStatus, ...]) -> EvaluationResult:
    """``EvaluationResult(feature, enabled, value, limits)``, filling the
    instance ``__dict__`` without running ``__init__`` and its four
    ``object.__setattr__`` calls; ``evaluation_context`` builds one per
    feature."""
    result = object.__new__(EvaluationResult)
    _set_result_dict(result, {"feature": feature, "enabled": enabled, "value": value,
                              "limits": limits})
    return result


def evaluate_feature(
    pricing: Pricing,
    subscription: Subscription,
    feature_name: str,
    now: datetime,
) -> EvaluationResult:
    """Can this subscriber use the feature right now, and at which limits?

    Costs the feature's grants and linked limits, not the catalog."""
    if feature_name not in pricing.features:
        raise UnknownFeatureError(feature_name)
    lapsed = lapse_windows(pricing, subscription, now)
    plan = _plan(pricing, lapsed)
    index = pricing._index
    names = lapsed.add_on_names
    value = plan.feature_overrides.get(feature_name, pricing.features[feature_name].default_value)
    granted = False
    for add_on, grant in index.grants.get(feature_name, ()):
        if add_on in names:  # a grant dominates the plan value; the last in catalog order wins
            value = grant
            granted = granted or grant.truthy
    return _result(feature_name, enabled(feature_name, index.truthy_defaults,
                                         index.plan_switches[plan.name], granted), value,
                   tuple(_status(pricing, plan, lapsed, limit)
                         for limit in index.linked_limits.get(feature_name, ())))


def evaluation_context(
    pricing: Pricing,
    subscription: Subscription,
    now: datetime,
) -> dict[str, EvaluationResult]:
    """Evaluation of every declared feature, keyed in catalog order.

    One pass: what the subscriber sees where it differs from the catalog
    (the plan's overrides, then the subscribed add-ons' grants over them in
    catalog order, so the last grant wins) and its ``enabled_features`` are
    built once, each linked limit is worked out once, and every feature is
    then read with dict and set lookups.
    """
    lapsed = lapse_windows(pricing, subscription, now)
    plan = _plan(pricing, lapsed)
    index = pricing._index
    names = lapsed.add_on_names
    active = enabled_features(index.truthy_defaults, index.plan_switches[plan.name],
                              (index.truthy_grants.get(name, ()) for name in names))
    seen = dict(plan.feature_overrides)
    for add_on in pricing.add_ons.values():
        if add_on.name in names:
            seen.update(add_on.feature_grants)
    statuses = {name: _status(pricing, plan, lapsed, name)
                for name, limit in pricing.usage_limits.items() if limit.linked_features}
    status = statuses.__getitem__
    linked = index.linked_limits
    context = {}
    for name, feature in pricing.features.items():
        limits = linked.get(name)
        context[name] = _result(name, name in active, seen.get(name, feature.default_value),
                                () if limits is None else tuple(map(status, limits)))
    return context


def record_usage(
    pricing: Pricing,
    subscription: Subscription,
    limit_name: str,
    amount: Decimal,
    now: datetime,
) -> Subscription:
    """Consume quota; all-or-nothing.

    Raises QuotaExceededError without any state change when the recording
    would push usage past the effective limit. The amount's meaning
    follows the limit's kind: units of the metric, a per-request cost, or
    elapsed time. It is a Decimal, an int or numeric text, never a float or
    a bool, with its exponent within the bound; anything else raises
    ModelError.
    """
    if limit_name not in pricing.usage_limits:
        raise UnknownLimitError(limit_name)
    amount = to_decimal(amount, "usage amount")
    if not amount.is_finite() or amount <= 0:
        raise NonPositiveAmountError(amount)
    if not exponent_in_range(amount):  # its state file could not be read back
        raise ModelError(f"usage amount exponent must lie within "
                         f"-{MAX_EXPONENT}..{MAX_EXPONENT}, got {amount}")
    lapsed = lapse_windows(pricing, subscription, now)
    effective = _effective(pricing, _plan(pricing, lapsed), lapsed.add_on_names, limit_name)
    state = lapsed.usage[limit_name]
    used = state.used + amount
    if used > effective:
        raise QuotaExceededError(limit_name, effective, state.used, amount)
    usage = dict(lapsed.usage)
    usage[limit_name] = UsageState(used, state.window_start, state.window_index)
    return _copy(lapsed, usage=usage)


def reset_usage(subscription: Subscription, limit_name: str) -> Subscription:
    """Zero one counter, e.g. at an explicit session boundary."""
    if limit_name not in subscription.usage:
        raise UnknownLimitError(limit_name)
    usage = dict(subscription.usage)
    state = usage[limit_name]
    usage[limit_name] = UsageState(_ZERO, state.window_start, state.window_index)
    return _copy(subscription, usage=usage)


# -- persistence -------------------------------------------------------------

def subscription_from_state(pricing: Pricing, state: dict) -> Subscription:
    """Rebuild a subscription from its persisted form, checking the binding.

    Raises ValueError when the document is malformed or does not refer to
    this pricing, naming the first bad counter in catalog order; unknown
    plans and add-ons raise their specific errors. The counters are read in
    the order of the pricing's counter table (see ``_EngineIndex``); each
    distinct window start, a (period, window index), is worked out once,
    and each distinct counter text is checked once.
    """
    if not isinstance(state, dict):
        raise ValueError("subscription state must be a JSON object")
    try:
        saas_name = state["saasName"]
        plan = state["plan"]
        add_ons = state["addOns"]
        start_text = state["startInstant"]
        contract = state["contractPeriod"]
        usage_doc = state["usage"]
    except (KeyError, TypeError):
        raise ValueError("subscription state is missing required fields") from None
    if saas_name != pricing.saas_name:
        raise ValueError(
            f"state refers to {saas_name!r}, not to this pricing ({pricing.saas_name!r})"
        )
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
    if not isinstance(usage_doc, dict) or usage_doc.keys() != pricing.usage_limits.keys():
        raise ValueError("usage map does not match this pricing's usage limits")
    index = pricing._index
    usage: dict[str, UsageState] = {}
    useds: dict[str, Decimal] = {}  # counter text -> its amount, once checked
    # per distinct period, in ``renewals`` order: window index -> window start
    window_starts: list[dict[int, datetime]] = [{} for _ in index.renewals]
    for name, limit_period, slot in index.counters:
        entry = usage_doc[name]
        if not isinstance(entry, dict) or "used" not in entry:
            raise ValueError(f"usage entry for {name!r} is malformed")
        text = str(entry["used"])
        used = useds.get(text)
        if used is None:
            try:
                used = Decimal(text)
            except ArithmeticError:
                raise ValueError(f"usage entry for {name!r} has a bad counter") from None
            if not used.is_finite() or used < 0:
                raise ValueError(f"usage entry for {name!r} has a bad counter")
            if not exponent_in_range(used):
                raise ValueError(f"usage entry for {name!r} has a counter exponent "
                                 f"outside -{MAX_EXPONENT}..{MAX_EXPONENT}")
            useds[text] = used
        if limit_period is None:
            usage[name] = _counter(used, None, None)
            continue
        window = entry.get("windowIndex")
        if not isinstance(window, int) or isinstance(window, bool) or window < 0:
            raise ValueError(f"usage entry for {name!r} needs a windowIndex")
        starts = window_starts[slot]
        window_start = starts.get(window)
        if window_start is None:
            try:
                window_start = starts[window] = advance(start, limit_period, window)
            except (OverflowError, ValueError):
                raise ValueError(
                    f"usage entry for {name!r} has a windowIndex past the calendar"
                ) from None
        usage[name] = _counter(used, window_start, window)
    return Subscription(
        plan_name=plan,
        add_on_names=frozenset(add_ons),
        start_instant=start,
        contract_period=period,
        usage=usage,
    )


def subscription_to_json(pricing: Pricing, subscription: Subscription) -> str:
    """The state file, the one writer: byte for byte what ``json.dumps`` with
    ``indent=2`` and a newline write of the state's map, in its fixed shape.

    ``json.dumps`` with an indent always runs the json module's pure-Python
    encoder; here every string goes through its C escaper instead (ASCII,
    as ``json.dumps`` writes it), and each distinct window start is
    formatted once.
    """
    quote = encode_basestring_ascii
    start = subscription.start_instant
    starts = {start: quote(format_instant(start))}  # instant -> its JSON text
    entries = []
    for name in pricing.usage_limits:
        state = subscription.usage[name]
        entry = f'{quote(name)}: {{\n      "used": {quote(format(state.used, "f"))}'
        if state.window_index is not None:
            window_start = starts.get(state.window_start)
            if window_start is None:
                window_start = starts[state.window_start] = quote(
                    format_instant(state.window_start))
            entry += (f',\n      "windowStart": {window_start}'
                      f',\n      "windowIndex": {int.__repr__(state.window_index)}')
        entries.append(entry + "\n    }")
    contract = subscription.contract_period
    add_ons = [quote(name) for name in sorted(subscription.add_on_names)]
    return (f'{{\n  "saasName": {quote(pricing.saas_name)}'
            f',\n  "plan": {quote(subscription.plan_name)}'
            f',\n  "addOns": {_json_block(add_ons, "[]")}'
            f',\n  "startInstant": {starts[start]}'
            f',\n  "contractPeriod": {{\n    "value": {int.__repr__(contract.value)}'
            f',\n    "unit": {quote(contract.unit.value)}\n  }}'
            f',\n  "usage": {_json_block(entries, "{}")}\n}}\n')


def _json_block(items: list[str], brackets: str) -> str:
    """A JSON array or object, one written item a line, as ``json.dumps``
    with ``indent=2`` lays out a value of the state's top-level map."""
    if not items:
        return brackets
    return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}"


def subscription_from_json(pricing: Pricing, text: str) -> Subscription:
    try:
        state = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"subscription state is not valid JSON: {exc}") from None
    except RecursionError:  # json.loads recurses once per level of nesting
        raise ValueError("subscription state is nested too deeply") from None
    return subscription_from_state(pricing, state)
