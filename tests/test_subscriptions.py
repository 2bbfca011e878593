"""Entitlement evaluation, quota accounting, window resets, persistence."""

import calendar
import copy
import json
import os
import pickle
import random
import time
from dataclasses import FrozenInstanceError, fields, replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pricebook import (
    AddOnNotAvailableError,
    ClockBeforeStartError,
    ContractPeriodError,
    EvaluationResult,
    FeatureValue,
    ModelError,
    NonPositiveAmountError,
    Period,
    PeriodUnit,
    Plan,
    Pricing,
    QuotaExceededError,
    Subscription,
    UnknownAddOnError,
    UnknownFeatureError,
    UnknownLimitError,
    UnknownPlanError,
    UsageState,
    create_subscription,
    effective_limit,
    evaluate_feature,
    evaluation_context,
    format_instant,
    lapse_windows,
    parse,
    parse_instant,
    record_usage,
    reset_usage,
    subscription_from_json,
    subscription_to_json,
)
from pricebook.periods import (_add_months, _days_in_month, advance, latest_window_index,
                               window_started)

from support import (
    DAILY_DOC,
    SHARED_PERIODS_DOC,
    UsageEvent,
    engine_replay,
    from_raw,
    oracle_replay,
    oracle_window_index,
    oracle_window_start,
    random_events,
    random_pricing,
    subscription_to_state,
    to_raw,
)

T0 = parse_instant("2024-01-31T12:00:00Z")


@pytest.fixture()
def pro(zoom):
    return create_subscription(zoom, "PRO", [], T0)


@pytest.fixture()
def pro_huge(zoom):
    return create_subscription(zoom, "PRO", ["hugeMeetings"], T0)


# Decimals of up to 40 digits with exponents on both sides of the bound.
_DECIMALS = st.builds(lambda sign, digits, exponent: Decimal((sign, tuple(digits), exponent)),
                      st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1, max_size=40),
                      st.one_of(st.integers(-1045, -960), st.integers(-6, 4), st.integers(960, 1010)))


class TestCreate:
    def test_usage_starts_at_zero(self, zoom, pro_huge):
        assert set(pro_huge.usage) == set(zoom.usage_limits)
        assert all(state.used == 0 for state in pro_huge.usage.values())
        windowed = pro_huge.usage["maxAssistantsPerMeeting"]
        assert windowed.window_index == 0
        assert windowed.window_start == T0

    def test_basic_without_add_ons(self, zoom):
        sub = create_subscription(zoom, "BASIC", [], T0)
        assert sub.add_on_names == frozenset()
        assert sub.contract_period == zoom.billing_period

    def test_unknown_add_on(self, zoom):
        with pytest.raises(UnknownAddOnError):
            create_subscription(zoom, "BASIC", ["nonexistent"], T0)

    def test_add_on_not_available_for_plan(self, zoom):
        with pytest.raises(AddOnNotAvailableError):
            create_subscription(zoom, "BASIC", ["hugeMeetings"], T0)

    def test_contract_period_must_be_a_period(self, zoom):
        for contract in ("x", 5, (1, "MONTH"), {"value": 1, "unit": "MONTH"}, 0, "", ()):
            with pytest.raises(ModelError, match="^contract period must be a Period"):
                create_subscription(zoom, "PRO", [], T0, contract)

    def test_add_ons_are_checked_in_each_callers_order(self, zoom, pro_huge):
        # A new subscription checks its add-ons in name order, a state file in its own.
        for add_ons in (["zz", "hugeMeetings"], ["hugeMeetings", "zz"]):
            with pytest.raises(AddOnNotAvailableError, match="hugeMeetings"):
                create_subscription(zoom, "BASIC", add_ons, T0)
        state = json.loads(subscription_to_json(zoom, pro_huge))
        for add_ons, error in ((["zz", "hugeMeetings"], UnknownAddOnError),
                               (["hugeMeetings", "zz"], AddOnNotAvailableError)):
            with pytest.raises(error):
                subscription_from_json(zoom, json.dumps({**state, "plan": "BASIC",
                                                         "addOns": add_ons}))


class TestEffectiveLimit:
    def test_extension_is_additive(self, zoom, pro_huge):
        assert effective_limit(zoom, pro_huge, "maxAssistantsPerMeeting") == Decimal(1000)

    def test_base_without_add_on(self, zoom, pro):
        assert effective_limit(zoom, pro, "maxAssistantsPerMeeting") == Decimal(100)

    def test_no_extending_add_ons_gives_plan_value(self, zoom):
        sub = create_subscription(zoom, "BUSINESS", ["extraStorage"], T0)
        assert effective_limit(zoom, sub, "maxAssistantsPerMeeting") == Decimal(300)
        assert effective_limit(zoom, sub, "cloudStorageCapacity") == Decimal(110)

    def test_unknown_limit(self, zoom, pro):
        with pytest.raises(UnknownLimitError):
            effective_limit(zoom, pro, "nope")

    def test_subscribed_add_on_without_extension_keeps_the_sum_exponent(self):
        # The effective limit is a sum over every subscribed add-on, an add-on
        # that does not extend the limit adding 0, so 1e2 reads 100 with one.
        pricing = parse(DAILY_DOC.replace("defaultValue: 10", "defaultValue: 1e2")
                        + "addOns:\n  more:\n    price: 1\n    features:\n"
                          "      calls:\n        value: true\n")
        plain = create_subscription(pricing, "P", [], T0)
        with_add_on = create_subscription(pricing, "P", ["more"], T0)
        assert str(effective_limit(pricing, plain, "callsPerDay")) == "1E+2"
        assert str(effective_limit(pricing, with_add_on, "callsPerDay")) == "100"
        with pytest.raises(QuotaExceededError, match="effective=100 "):
            record_usage(pricing, with_add_on, "callsPerDay", Decimal(101), T0)


class TestEvaluateFeature:
    def test_basic_chat_support_disabled(self, zoom):
        sub = create_subscription(zoom, "BASIC", [], T0)
        result = evaluate_feature(zoom, sub, "chatSupport", T0)
        assert result.enabled is False
        assert result.value == FeatureValue.boolean(False)

    def test_basic_subtitles_enabled(self, zoom):
        sub = create_subscription(zoom, "BASIC", [], T0)
        assert evaluate_feature(zoom, sub, "automatedSubtitles", T0).enabled is True

    def test_default_true_enabled_in_every_plan(self, zoom):
        for plan in zoom.plans:
            sub = create_subscription(zoom, plan, [], T0)
            assert evaluate_feature(zoom, sub, "onlineMeetings", T0).enabled

    def test_add_on_grant_dominates(self, zoom, pro_huge):
        result = evaluate_feature(zoom, pro_huge, "hugeMeetings", T0)
        assert result.enabled is True
        assert result.value == FeatureValue.boolean(True)

    def test_limits_section_lists_linked_limits(self, zoom, pro_huge):
        result = evaluate_feature(zoom, pro_huge, "onlineMeetings", T0)
        assert [s.limit for s in result.limits] == [
            "maxAssistantsPerMeeting", "maxTimePerMeeting",
        ]
        assistants = result.limits[0]
        assert assistants.effective == 1000
        assert assistants.remaining == 1000

    def test_context_agrees_pointwise(self, zoom, pro_huge):
        context = evaluation_context(zoom, pro_huge, T0)
        assert set(context) == set(zoom.features)
        for name, result in context.items():
            assert result == evaluate_feature(zoom, pro_huge, name, T0)

    def test_context_of_empty_catalog(self):
        rng = random.Random(501)
        for _ in range(20):
            pricing = random_pricing(rng, rule_clean=True, min_plans=1)
            if pricing.features:
                continue
            sub = create_subscription(pricing, next(iter(pricing.plans)), [], T0)
            assert evaluation_context(pricing, sub, T0) == {}


class TestRecordUsage:
    def test_boundary_inclusive(self, zoom, pro_huge):
        sub = record_usage(zoom, pro_huge, "maxAssistantsPerMeeting", Decimal(990), T0)
        sub = record_usage(zoom, sub, "maxAssistantsPerMeeting", Decimal(10), T0)
        assert sub.usage["maxAssistantsPerMeeting"].used == Decimal(1000)

    def test_boundary_plus_one_rejected_atomically(self, zoom, pro_huge):
        sub = record_usage(zoom, pro_huge, "maxAssistantsPerMeeting", Decimal(990), T0)
        with pytest.raises(QuotaExceededError) as excinfo:
            record_usage(zoom, sub, "maxAssistantsPerMeeting", Decimal(11), T0)
        assert excinfo.value.effective == 1000
        assert excinfo.value.used == 990
        assert excinfo.value.requested == 11
        assert sub.usage["maxAssistantsPerMeeting"].used == Decimal(990)

    def test_non_positive_amount(self, zoom, pro):
        with pytest.raises(NonPositiveAmountError):
            record_usage(zoom, pro, "maxAssistantsPerMeeting", Decimal(0), T0)

    def test_amount_is_an_exact_decimal(self, zoom, pro):
        for amount, used in [(Decimal("0.1"), "0.1"), ("0.1", "0.1"), (" 2.50 ", "2.50"), (3, "3")]:
            sub = record_usage(zoom, pro, "aiCompanionCredits", amount, T0)
            assert str(sub.usage["aiCompanionCredits"].used) == used
        for amount in (0.1, 1.0, True, False, None, "abc", "", b"1", [1], complex(1)):
            with pytest.raises(ModelError, match="^usage amount"):
                record_usage(zoom, pro, "aiCompanionCredits", amount, T0)
        for amount in ("-1", Decimal("NaN"), "inf"):
            with pytest.raises(NonPositiveAmountError):
                record_usage(zoom, pro, "aiCompanionCredits", amount, T0)

    def test_amount_exponent_is_bounded(self, zoom, pro):
        for amount in (Decimal("1e-5000"), Decimal("1e-1001"), "1e-1001", Decimal("1e1001")):
            with pytest.raises(ModelError, match="^usage amount exponent must lie within"):
                record_usage(zoom, pro, "aiCompanionCredits", amount, T0)
        sub = record_usage(zoom, pro, "aiCompanionCredits", Decimal("1e-1000"), T0)
        assert subscription_from_json(zoom, subscription_to_json(zoom, sub)) == sub

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["maxAssistantsPerMeeting", "cloudStorageCapacity",
                                               "maxTimePerMeeting", "aiCompanionCredits"]),
                              st.one_of(_DECIMALS, _DECIMALS.map(str), st.integers(-5, 2000),
                                        st.floats(), st.booleans(), st.none(), st.text(max_size=4)),
                              st.integers(0, 90 * 86400)),
                    min_size=1, max_size=8))
    def test_every_recorded_subscription_reads_back(self, zoom, steps):
        sub = create_subscription(zoom, "PRO", ["hugeMeetings"], T0)
        for limit, amount, seconds in sorted(steps, key=lambda step: step[2]):
            try:
                sub = record_usage(zoom, sub, limit, amount, T0 + timedelta(seconds=seconds))
            except (ModelError, NonPositiveAmountError, QuotaExceededError):
                continue
            assert subscription_from_json(zoom, subscription_to_json(zoom, sub)) == sub

    def test_renewable_window_lapse_resets_counter(self, zoom, pro):
        day1 = parse_instant("2024-02-01T12:00:00Z")
        day35 = parse_instant("2024-03-06T12:00:00Z")
        sub = record_usage(zoom, pro, "maxAssistantsPerMeeting", Decimal(100), day1)
        with pytest.raises(QuotaExceededError):
            record_usage(zoom, sub, "maxAssistantsPerMeeting", Decimal(1), day1)
        sub = record_usage(zoom, sub, "maxAssistantsPerMeeting", Decimal(1), day35)
        state = sub.usage["maxAssistantsPerMeeting"]
        assert state.used == Decimal(1)
        assert state.window_index == 1

    def test_time_driven_session_reset(self, zoom):
        sub = create_subscription(zoom, "BASIC", [], T0)
        sub = record_usage(zoom, sub, "maxTimePerMeeting", Decimal(40), T0)
        with pytest.raises(QuotaExceededError):
            record_usage(zoom, sub, "maxTimePerMeeting", Decimal(1), T0)
        sub = reset_usage(sub, "maxTimePerMeeting")
        sub = record_usage(zoom, sub, "maxTimePerMeeting", Decimal(40), T0)
        assert sub.usage["maxTimePerMeeting"].used == Decimal(40)

    def test_reset_isolates_other_limits(self, zoom, pro):
        sub = record_usage(zoom, pro, "maxAssistantsPerMeeting", Decimal(35), T0)
        sub = record_usage(zoom, sub, "aiCompanionCredits", Decimal(5), T0)
        after = reset_usage(sub, "aiCompanionCredits")
        assert after.usage["aiCompanionCredits"].used == Decimal(0)
        assert after.usage["maxAssistantsPerMeeting"] == sub.usage["maxAssistantsPerMeeting"]


class TestLapseWindows:
    def test_within_first_window_no_change(self, zoom, pro):
        later = parse_instant("2024-02-10T00:00:00Z")
        assert lapse_windows(zoom, pro, later) == pro  # Feb window starts Feb-29

    def test_idempotent(self, zoom, pro):
        at = parse_instant("2024-06-15T00:00:00Z")
        once = lapse_windows(zoom, pro, at)
        assert lapse_windows(zoom, once, at) == once

    def test_clock_before_start(self, zoom, pro):
        with pytest.raises(ClockBeforeStartError):
            lapse_windows(zoom, pro, parse_instant("2024-01-01T00:00:00Z"))

    def test_month_end_clamping_anchor_jan31(self):
        anchor = parse_instant("2023-01-31T00:00:00Z")
        period = Period(1, PeriodUnit.MONTH)
        got = [format_instant(advance(anchor, period, k)) for k in range(4)]
        assert got == [
            "2023-01-31T00:00:00Z",
            "2023-02-28T00:00:00Z",
            "2023-03-31T00:00:00Z",
            "2023-04-30T00:00:00Z",
        ]

    def test_leap_year_clamping(self):
        anchor = parse_instant("2024-01-31T00:00:00Z")
        got = format_instant(advance(anchor, Period(1, PeriodUnit.MONTH), 1))
        assert got == "2024-02-29T00:00:00Z"
        yearly = format_instant(advance(parse_instant("2024-02-29T00:00:00Z"),
                                        Period(1, PeriodUnit.YEAR), 1))
        assert yearly == "2025-02-28T00:00:00Z"

    def test_advance_strictly_increasing(self):
        rng = random.Random(502)
        anchors = [parse_instant(t) for t in
                   ("2023-01-31T00:00:00Z", "2024-02-29T23:59:59Z", "2025-06-15T08:30:00Z")]
        for anchor in anchors:
            for value, unit in ((1, PeriodUnit.DAY), (2, PeriodUnit.WEEK),
                                (1, PeriodUnit.MONTH), (3, PeriodUnit.MONTH),
                                (1, PeriodUnit.YEAR)):
                period = Period(value, unit)
                stamps = [advance(anchor, period, k) for k in range(30)]
                assert stamps == sorted(set(stamps))

    def test_window_index_matches_slow_oracle(self):
        from datetime import timedelta
        rng = random.Random(503)
        anchors = [parse_instant(t) for t in
                   ("2023-01-31T00:00:00Z", "2024-01-31T12:00:00Z", "2024-02-29T06:00:00Z")]
        periods = [Period(1, PeriodUnit.DAY), Period(1, PeriodUnit.WEEK),
                   Period(1, PeriodUnit.MONTH), Period(3, PeriodUnit.MONTH),
                   Period(1, PeriodUnit.YEAR)]
        for anchor in anchors:
            for period in periods:
                for _ in range(40):
                    now = anchor + timedelta(seconds=rng.randint(0, 3 * 365 * 86400))
                    assert latest_window_index(anchor, period, now) == \
                        oracle_window_index(anchor, period, now)
                    k = latest_window_index(anchor, period, now)
                    assert advance(anchor, period, k) == oracle_window_start(anchor, period, k)


class TestProperties:
    def test_quota_safety_and_replay_equivalence_smoke(self, zoom):
        rng = random.Random(504)
        for trial in range(15):
            sub = create_subscription(zoom, "PRO", ["hugeMeetings"], T0)
            events = random_events(rng, zoom, T0, count=60)
            final = engine_replay(zoom, sub, events)
            expected = oracle_replay(zoom, "PRO", {"hugeMeetings"}, T0, events)
            for name in zoom.usage_limits:
                assert final.usage[name].used == expected[name]["used"]
                assert (final.usage[name].window_index or 0) == (expected[name]["index"] or 0)
                assert final.usage[name].used <= effective_limit(zoom, final, name)

    def test_extension_monotonicity(self):
        rng = random.Random(505)
        checked = 0
        for _ in range(60):
            pricing = random_pricing(rng, rule_clean=True, min_plans=1)
            plan = rng.choice(sorted(pricing.plans))
            candidates = [
                a for a in pricing.add_ons.values()
                if not a.available_for or plan in a.available_for
            ]
            if not candidates:
                continue
            subscribed = [a.name for a in candidates[:-1] if rng.random() < 0.5]
            base = create_subscription(pricing, plan, subscribed, T0)
            extended = create_subscription(
                pricing, plan, subscribed + [candidates[-1].name], T0)
            for limit in pricing.usage_limits:
                assert effective_limit(pricing, extended, limit) >= \
                    effective_limit(pricing, base, limit)
            for feature in pricing.features:
                before = evaluate_feature(pricing, base, feature, T0)
                after = evaluate_feature(pricing, extended, feature, T0)
                if before.enabled:
                    assert after.enabled
            checked += 1
        assert checked > 20


class TestUnknownPlan:
    """A subscription whose plan the pricing does not declare."""

    @pytest.fixture()
    def stray(self, pro_huge):
        return replace(pro_huge, plan_name="NOPE")

    def test_engine_calls_raise_unknown_plan(self, zoom, stray):
        with pytest.raises(UnknownPlanError):
            effective_limit(zoom, stray, "maxAssistantsPerMeeting")
        with pytest.raises(UnknownPlanError):
            record_usage(zoom, stray, "maxAssistantsPerMeeting", Decimal(1), T0)
        for feature in ("onlineMeetings", "hugeMeetings", "chatSupport"):
            with pytest.raises(UnknownPlanError):
                evaluate_feature(zoom, stray, feature, T0)
        with pytest.raises(UnknownPlanError):
            evaluation_context(zoom, stray, T0)

    def test_clock_before_start_comes_first(self, zoom, stray):
        early = parse_instant("2024-01-01T00:00:00Z")
        with pytest.raises(ClockBeforeStartError):
            record_usage(zoom, stray, "maxAssistantsPerMeeting", Decimal(1), early)
        with pytest.raises(ClockBeforeStartError):
            evaluate_feature(zoom, stray, "onlineMeetings", early)
        with pytest.raises(ClockBeforeStartError):
            evaluation_context(zoom, stray, early)

    def test_argument_errors_come_first(self, zoom, stray):
        with pytest.raises(UnknownLimitError):
            effective_limit(zoom, stray, "nope")
        with pytest.raises(UnknownLimitError):
            record_usage(zoom, stray, "nope", Decimal(1), T0)
        with pytest.raises(NonPositiveAmountError):
            record_usage(zoom, stray, "maxAssistantsPerMeeting", Decimal(0), T0)
        with pytest.raises(UnknownFeatureError):
            evaluate_feature(zoom, stray, "nope", T0)


_OFFSETS = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-3))]
_LAST_UTC = datetime.max.replace(microsecond=0, tzinfo=timezone.utc)


@st.composite
def _window_cases(draw):
    """(start, period, index, now) with now >= start, near month ends and the calendar's."""
    year = draw(st.one_of(st.integers(1, 9999), st.sampled_from([2000, 2023, 2024, 2100, 9999])))
    month = draw(st.integers(1, 12))
    day = min(draw(st.sampled_from([28, 29, 30, 31, 1, 15])), calendar.monthrange(year, month)[1])
    seconds = draw(st.integers(0, 86399))
    zone = draw(st.sampled_from(_OFFSETS))
    start = datetime(year, month, day, seconds // 3600, seconds // 60 % 60, seconds % 60,
                     tzinfo=zone)
    period = Period(draw(st.integers(1, 3)), draw(st.sampled_from(list(PeriodUnit))))
    mode = draw(st.sampled_from(["window start", "span", "calendar end"]))
    try:
        if mode == "window start":  # a second or two either side of one
            now = advance(start, period, draw(st.integers(0, 40))) \
                + timedelta(seconds=draw(st.integers(-2, 2)))
        elif mode == "span":
            span = draw(st.sampled_from([3 * 86400, 800 * 86400, 40 * 366 * 86400]))
            now = start + timedelta(seconds=draw(st.integers(0, span)))
        else:
            now = _LAST_UTC - timedelta(seconds=draw(st.integers(0, 400 * 86400)))
        now = now.astimezone(zone if draw(st.booleans()) else timezone.utc)
    except (OverflowError, ValueError):
        now = None
    assume(now is not None and start <= now <= _LAST_UTC)
    latest = latest_window_index(start, period, now)
    index = max(0, latest + draw(st.one_of(st.integers(-3, 3), st.integers(-1000, 1000))))
    return start, period, index, now, latest


@settings(max_examples=500, deadline=None)
@given(_window_cases())
def test_window_started_equals_latest_window_index(case):
    start, period, index, now, latest = case
    assert window_started(start, period, index, now) is (latest > index)


def test_window_started_named_cases():
    feb29 = parse_instant("2024-02-29T06:00:00Z")
    yearly = Period(1, PeriodUnit.YEAR)
    assert not window_started(feb29, yearly, 0, parse_instant("2025-02-28T05:59:59Z"))
    assert window_started(feb29, yearly, 0, parse_instant("2025-02-28T06:00:00Z"))
    jan31 = parse_instant("2023-01-31T00:00:00Z")
    monthly = Period(1, PeriodUnit.MONTH)
    assert not window_started(jan31, monthly, 0, parse_instant("2023-02-27T23:59:59Z"))
    assert window_started(jan31, monthly, 0, parse_instant("2023-02-28T00:00:00Z"))
    assert not window_started(jan31, monthly, 2, parse_instant("2023-03-31T00:00:00Z"))
    # Windows anchored in another UTC offset start in a different month in UTC.
    west = datetime(2024, 1, 31, 22, tzinfo=timezone(timedelta(hours=-3)))
    assert not window_started(west, monthly, 0, parse_instant("2024-03-01T00:59:59Z"))
    assert window_started(west, monthly, 0, parse_instant("2024-03-01T01:00:00Z"))
    east = datetime(2024, 1, 1, 2, tzinfo=timezone(timedelta(hours=5, minutes=30)))
    assert not window_started(east, monthly, 0, parse_instant("2024-01-31T20:29:59Z"))
    assert window_started(east, monthly, 0, parse_instant("2024-01-31T20:30:00Z"))
    last = parse_instant("9999-12-31T23:59:59Z")
    for unit in PeriodUnit:
        assert not window_started(parse_instant("9999-12-31T00:00:00Z"), Period(1, unit), 0, last)


# Text a JSON string must escape: quotes, backslashes, control characters,
# non-ASCII text, the line and paragraph separators and a lone surrogate.
_AWKWARD_TEXT = ['say "hi"', "back\\slash\\", "tab\tnew\nline\r\x00\x1f\x7f", "café — 日本語 🎉",
                 "line\u2028para\u2029", "\ud800 alone", "</script>"]
_NO_LIMITS = Pricing("Empty", "1", "USD", Period(1, PeriodUnit.MONTH), {}, {},
                     {"P": Plan("P", Decimal(1))}, {})


@st.composite
def _saved_subscriptions(draw):
    """A pricing from ``random_pricing`` (or one with no limits) under an awkward
    SaaS name, and a subscription to it that the engine produced: created at any
    second of years 1-9999, with or without add-ons, then fed usage events."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 9)) == 0:
        raw = to_raw(_NO_LIMITS)
    else:
        raw = to_raw(random_pricing(rng, min_plans=1))
    raw["saasName"] = draw(st.one_of(st.sampled_from(_AWKWARD_TEXT),
                                     st.text(min_size=1).filter(str.strip)))
    pricing = from_raw(raw)
    plan = rng.choice(sorted(pricing.plans))
    add_ons = [] if draw(st.booleans()) else [
        name for name, add_on in pricing.add_ons.items()
        if not add_on.available_for or plan in add_on.available_for]
    start = draw(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59),
                              timezones=st.just(timezone.utc))).replace(microsecond=0)
    sub = create_subscription(pricing, plan, add_ons, start, Period(1, PeriodUnit.YEAR))
    room = int(min(timedelta(days=400), _LAST_UTC - start).total_seconds())
    if pricing.usage_limits:
        events = [UsageEvent(rng.choice(["record"] * 4 + ["reset", "lapse"]),
                             rng.choice(sorted(pricing.usage_limits)),
                             Decimal(rng.choice(["1", "0.5", "25", "1E+2", "0.125"])),
                             start + timedelta(seconds=offset))
                  for offset in draw(st.lists(st.integers(0, room), max_size=12))]
        sub = engine_replay(pricing, sub, events)
    return pricing, sub


class TestStatePersistence:
    def test_round_trip(self, zoom, pro_huge):
        moved = record_usage(zoom, pro_huge, "aiCompanionCredits", Decimal("12.5"),
                             parse_instant("2024-03-15T00:00:00Z"))
        text = subscription_to_json(zoom, moved)
        again = subscription_from_json(zoom, text)
        assert again == moved

    def test_binding_to_other_pricing_rejected(self, zoom, pro, minimal_path):
        from pricebook import parse
        other = parse(minimal_path.read_text(encoding="utf-8"))
        text = subscription_to_json(zoom, pro)
        with pytest.raises(ValueError):
            subscription_from_json(other, text)

    def test_counter_exponent_out_of_range_is_a_value_error(self, zoom, pro):
        text = subscription_to_json(zoom, pro)
        for used in ("1e1001", "1e-1001", "1e999999999", "1e-999999999"):
            with pytest.raises(ValueError, match="exponent"):
                subscription_from_json(zoom, text.replace('"used": "0"', f'"used": "{used}"', 1))
        for used in ("1e1000", "1e-1000"):
            again = subscription_from_json(zoom, text.replace('"used": "0"', f'"used": "{used}"', 1))
            assert Decimal(used) in [state.used for state in again.usage.values()]

    def test_field_of_the_wrong_type_is_a_value_error(self, zoom, pro_huge):
        state = json.loads(subscription_to_json(zoom, pro_huge))
        for key, value in [("startInstant", None), ("startInstant", 5), ("plan", {"a": 1}),
                           ("plan", ["PRO"]), ("plan", 5), ("addOns", [["hugeMeetings"]]),
                           ("addOns", [{"a": 1}])]:
            with pytest.raises(ValueError):
                subscription_from_json(zoom, json.dumps({**state, key: value}))

    def test_contract_period_out_of_range_is_a_value_error(self, zoom, pro):
        state = json.loads(subscription_to_json(zoom, pro))
        for value in (0, -1, 1.5, True, "1", 10**1001, 10**1200):
            text = json.dumps({**state, "contractPeriod": {"value": value, "unit": "MONTH"}})
            with pytest.raises(ValueError, match=r"^contractPeriod must be \{value, unit\}$"):
                subscription_from_json(zoom, text)
        widest = 10**1001 - 1  # exponent 1000, the bound
        text = json.dumps({**state, "contractPeriod": {"value": widest, "unit": "MONTH"}})
        assert subscription_from_json(zoom, text).contract_period == Period(widest, PeriodUnit.MONTH)

    def test_contract_period_past_the_bound_is_refused_at_creation(self, zoom):
        for value in (10**1001, 10**1200, 10**5000):
            with pytest.raises(ModelError, match="exponent"):
                create_subscription(zoom, "PRO", [], T0, Period(value, PeriodUnit.DAY))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(1, 400), st.integers(10**999, 10**1001 + 1),
                     st.sampled_from([10**1200, 10**1001 - 1])),
           st.sampled_from(PeriodUnit))
    def test_every_subscription_created_round_trips(self, zoom, value, unit):
        try:
            sub = create_subscription(zoom, "PRO", ["hugeMeetings"], T0, Period(value, unit))
        except (ModelError, ContractPeriodError):
            return
        assert subscription_from_json(zoom, subscription_to_json(zoom, sub)) == sub

    @settings(max_examples=150, deadline=None)
    @given(_saved_subscriptions())
    def test_state_text_equals_the_json_module_and_reads_back(self, case):
        pricing, sub = case
        loaded = subscription_from_json(pricing, subscription_to_json(pricing, sub))
        for subscription in (sub, loaded):
            text = subscription_to_json(pricing, subscription)
            assert text == json.dumps(subscription_to_state(pricing, subscription), indent=2) + "\n"
            assert subscription_from_json(pricing, text) == subscription == sub

    def test_malformed_state_rejected(self, zoom):
        with pytest.raises(ValueError):
            subscription_from_json(zoom, "{}")
        with pytest.raises(ValueError):
            subscription_from_json(zoom, "not json")

    @pytest.mark.parametrize("depth", [900, 1000, 100_000])
    @pytest.mark.parametrize("opened, inner, closed", [("[", "", "]"), ('{"a": ', "0", "}")])
    def test_deeply_nested_state_is_a_value_error(self, zoom, depth, opened, inner, closed):
        # Past the interpreter's recursion limit json.loads raises RecursionError.
        with pytest.raises(ValueError):
            subscription_from_json(zoom, opened * depth + inner + closed * depth)


class TestCalendarEnd:
    """Windows and instants at the edge of what a datetime can name."""

    def test_window_past_the_calendar_never_starts(self):
        start = parse_instant("9999-12-31T00:00:00Z")
        for unit in PeriodUnit:
            assert latest_window_index(start, Period(1, unit), start) == 0
        start = parse_instant("9999-06-30T00:00:00Z")
        end = parse_instant("9999-12-31T23:59:59Z")
        assert latest_window_index(start, Period(1, PeriodUnit.MONTH), end) == 6
        assert latest_window_index(start, Period(5, PeriodUnit.MONTH), end) == 1
        assert latest_window_index(start, Period(1, PeriodUnit.YEAR), end) == 0

    def test_window_index_past_the_calendar_is_a_value_error(self):
        pricing = parse(DAILY_DOC)
        sub = create_subscription(pricing, "P", [], T0)
        for index in (10**12, 3_000_000):
            text = subscription_to_json(pricing, sub).replace(
                '"windowIndex": 0', f'"windowIndex": {index}')
            with pytest.raises(ValueError):
                subscription_from_json(pricing, text)

    def test_instant_past_the_calendar_is_a_value_error(self):
        for text in ("9999-12-31T23:00:00-05:00", "0001-01-01T01:00:00+05:00"):
            with pytest.raises(ValueError):
                parse_instant(text)

    def test_instants_before_year_1000_carry_four_digit_years(self, zoom):
        for text in ("0001-01-01T00:00:00Z", "0999-01-31T00:00:00Z"):
            start = parse_instant(text)
            assert format_instant(start) == text
            sub = create_subscription(zoom, "PRO", ["hugeMeetings"], start)
            sub = record_usage(zoom, sub, "maxAssistantsPerMeeting", Decimal(3),
                               start + timedelta(days=40))
            saved = subscription_to_json(zoom, sub)
            assert json.loads(saved)["startInstant"] == text
            assert subscription_from_json(zoom, saved) == sub
        assert format_instant(T0) == "2024-01-31T12:00:00Z"

    def test_aware_instant_leaving_the_calendar_in_utc_is_a_value_error(self, zoom, pro):
        early = datetime(1, 1, 1, 1, tzinfo=timezone(timedelta(hours=3)))
        late = datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-5)))
        message = "^timestamp is outside the calendar in UTC: "
        with pytest.raises(ValueError, match=message):
            create_subscription(zoom, "PRO", [], early)
        for now in (early, late):
            calls = [lambda: lapse_windows(zoom, pro, now),
                     lambda: record_usage(zoom, pro, "maxAssistantsPerMeeting", Decimal(1), now),
                     lambda: evaluate_feature(zoom, pro, "onlineMeetings", now),
                     lambda: evaluation_context(zoom, pro, now)]
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call()


class TestFormatInstant:
    """``format_instant`` reads an instant by the rule of every engine entry
    point: a naive or fractional one raises ``ValueError``, whatever the host's
    time zone, and an aware one is written in UTC."""

    @pytest.fixture(params=["UTC", "America/New_York", "Asia/Tokyo"])
    def host_zone(self, request):
        before = os.environ.get("TZ")
        os.environ["TZ"] = request.param
        time.tzset()
        yield request.param
        if before is None:
            del os.environ["TZ"]
        else:
            os.environ["TZ"] = before
        time.tzset()

    def test_naive_instant_is_a_value_error(self, host_zone):
        with pytest.raises(ValueError, match="^instants must be timezone-aware$"):
            format_instant(datetime(2024, 1, 31, 12))

    def test_fractional_instant_is_a_value_error(self, host_zone):
        for instant in (datetime(2024, 1, 31, 12, 0, 0, 500000, tzinfo=timezone.utc),
                        datetime(2024, 1, 31, 12, 0, 0, 1, tzinfo=timezone(timedelta(hours=9)))):
            with pytest.raises(ValueError, match="^instants are whole seconds$"):
                format_instant(instant)

    def test_aware_instant_is_written_in_utc(self, host_zone):
        for zone in _OFFSETS:
            assert format_instant(T0.astimezone(zone)) == "2024-01-31T12:00:00Z"

    def test_instant_leaving_the_calendar_in_utc_is_a_value_error(self):
        late = datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-5)))
        with pytest.raises(ValueError, match="^timestamp is outside the calendar in UTC: "):
            format_instant(late)


class TestMonthArithmetic:
    """``advance`` clamps month ends from a table of month lengths."""

    def test_month_lengths_equal_the_calendar_module(self):
        assert [(year, month, _days_in_month(year, month))
                for year in range(1, 10000) for month in range(1, 13)] == [
            (year, month, calendar.monthrange(year, month)[1])
            for year in range(1, 10000) for month in range(1, 13)]

    def test_month_steps_clamp_as_the_calendar_module_does(self):
        for year in (1, 1899, 1900, 2000, 2023, 2024, 9996):
            for month in range(1, 13):
                for day in range(1, calendar.monthrange(year, month)[1] + 1):
                    anchor = datetime(year, month, day, 7, 30, tzinfo=timezone.utc)
                    for months in (0, 1, 2, 11, 12, 13, 25):
                        y, m = divmod(year * 12 + month - 1 + months, 12)
                        want = anchor.replace(year=y, month=m + 1,
                                              day=min(day, calendar.monthrange(y, m + 1)[1]))
                        assert _add_months(anchor, months) == want

    def test_advance_raises_value_error_at_both_ends_of_the_calendar(self):
        first = datetime(1, 1, 31, tzinfo=timezone.utc)
        with pytest.raises(ValueError):
            advance(first, Period(1, PeriodUnit.MONTH), -1)
        with pytest.raises(ValueError):
            _add_months(first, -1)
        for day in (1, 31):  # an anchor that never clamps and one that may
            last = datetime(9999, 12, day, tzinfo=timezone.utc)
            for period in (Period(1, PeriodUnit.MONTH), Period(1, PeriodUnit.YEAR)):
                with pytest.raises(ValueError):
                    advance(last, period, 1)
            assert advance(datetime(9999, 1, day, tzinfo=timezone.utc),
                           Period(1, PeriodUnit.MONTH), 11) == last


class TestSlottedCounter:
    """``UsageState`` is a slotted frozen dataclass: no ``__dict__``, and the
    fields, equality, hash, copies and ``replace`` of the plain one."""

    @pytest.fixture()
    def used(self, zoom, pro_huge):
        return record_usage(zoom, pro_huge, "aiCompanionCredits", Decimal("12.5"),
                            parse_instant("2024-03-15T00:00:00Z"))

    def test_a_counter_has_no_dict(self, zoom, used):
        loaded = subscription_from_json(zoom, subscription_to_json(zoom, used))
        assert UsageState.__slots__ == ("used", "window_start", "window_index")
        for state in [UsageState(), *used.usage.values(), *loaded.usage.values()]:
            assert type(state) is UsageState
            assert not hasattr(state, "__dict__")

    def test_loaded_counters_equal_and_hash_as_constructed_ones(self, zoom, used):
        loaded = subscription_from_json(zoom, subscription_to_json(zoom, used))
        assert loaded == used
        for state in loaded.usage.values():
            built = UsageState(state.used, state.window_start, state.window_index)
            assert state == built and hash(state) == hash(built)
            assert built in {state}
            assert repr(state) == repr(built)
        assert UsageState(Decimal("1.0"), T0, 0) == UsageState(Decimal(1), T0, 0)
        assert hash(UsageState(Decimal("1.0"))) == hash(UsageState(Decimal(1), None, None))
        assert UsageState(Decimal(1), T0, 0) != UsageState(Decimal(1), T0, 1)

    def test_assignment_raises_frozen_instance_error(self, zoom, used):
        loaded = subscription_from_json(zoom, subscription_to_json(zoom, used))
        for state in (UsageState(Decimal(1), T0, 0), loaded.usage["aiCompanionCredits"]):
            before = copy.copy(state)
            for name in ("used", "window_start", "window_index"):
                with pytest.raises(FrozenInstanceError):
                    setattr(state, name, Decimal(2))
                with pytest.raises(FrozenInstanceError):
                    delattr(state, name)
            # A name that is no field has no slot: CPython's slotted frozen
            # dataclasses raise TypeError there, not FrozenInstanceError.
            with pytest.raises((TypeError, AttributeError)):
                state.other = 1
            assert state == before

    def test_replace(self, zoom, used):
        loaded = subscription_from_json(zoom, subscription_to_json(zoom, used))
        state = loaded.usage["aiCompanionCredits"]
        assert replace(state, used=Decimal(0)) == UsageState(Decimal(0), state.window_start,
                                                             state.window_index)
        assert replace(UsageState(Decimal(3))) == UsageState(Decimal(3))

    def test_pickle_and_deepcopy_round_trips(self, zoom, used):
        loaded = subscription_from_json(zoom, subscription_to_json(zoom, used))
        values = [UsageState(), UsageState(Decimal("2.50"), T0, 3), used, loaded,
                  *loaded.usage.values()]
        for value in values:
            copies = [pickle.loads(pickle.dumps(value, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for again in [*copies, copy.deepcopy(value), copy.copy(value)]:
                assert type(again) is type(value)
                assert again == value
                if type(value) is UsageState:
                    assert hash(again) == hash(value)
                    assert not hasattr(again, "__dict__")
        again = pickle.loads(pickle.dumps(loaded))
        assert subscription_to_json(zoom, again) == subscription_to_json(zoom, used)
        assert record_usage(zoom, again, "aiCompanionCredits", Decimal(1), T0) == \
            record_usage(zoom, used, "aiCompanionCredits", Decimal(1), T0)


class TestFastResults:
    """The engine builds each ``EvaluationResult`` by filling its ``__dict__``;
    such a result equals, hashes, prints, pickles and copies as one built by
    ``EvaluationResult(...)``, and stays frozen."""

    @pytest.fixture()
    def results(self, zoom, pro_huge):
        used = record_usage(zoom, pro_huge, "aiCompanionCredits", Decimal("12.5"), T0)
        context = evaluation_context(zoom, used, T0)
        return [*context.values(), evaluate_feature(zoom, used, "onlineMeetings", T0),
                evaluate_feature(zoom, used, "chatSupport", T0)]

    @staticmethod
    def built(result):
        return EvaluationResult(result.feature, result.enabled, result.value, result.limits)

    def test_equal_hash_and_repr_as_constructed_ones(self, results):
        assert any(result.limits for result in results)
        for result in results:
            built = self.built(result)
            assert type(result) is EvaluationResult
            assert result == built and built == result and not result != built
            assert hash(result) == hash(built) and built in {result}
            assert repr(result) == repr(built)
            assert vars(result) == vars(built)
            assert list(vars(result)) == [f.name for f in fields(EvaluationResult)]
            assert result.to_dict() == built.to_dict()
            assert replace(result, enabled=not result.enabled) != result

    def test_pickle_and_copies_as_constructed_ones(self, results):
        for result in results:
            built = self.built(result)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.dumps(result, protocol) == pickle.dumps(built, protocol)
                again = pickle.loads(pickle.dumps(result, protocol))
                assert type(again) is EvaluationResult
                assert again == built and hash(again) == hash(built)
            for again in (copy.deepcopy(result), copy.copy(result)):
                assert type(again) is EvaluationResult
                assert again == built and repr(again) == repr(built)

    def test_assignment_and_deletion_raise_frozen_instance_error(self, results):
        for result in (results[0], results[-2]):
            before = self.built(result)
            for field in fields(EvaluationResult):
                with pytest.raises(FrozenInstanceError):
                    setattr(result, field.name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(result, field.name)
            with pytest.raises(FrozenInstanceError):
                result.other = 1
            assert result == before and vars(result) == vars(before)


class TestEngineBuiltSubscriptions:
    """``lapse_windows``, ``record_usage`` and ``reset_usage`` copy the checked
    subscription with its new counters; such a copy equals, prints, lists its
    fields, pickles and copies as one built by ``Subscription(...)``, and stays
    frozen."""

    @pytest.fixture()
    def subscriptions(self, zoom, pro_huge):
        used = record_usage(zoom, pro_huge, "maxAssistantsPerMeeting", Decimal(7), T0)
        used = record_usage(zoom, used, "aiCompanionCredits", Decimal("12.5"), T0)
        lapsed = lapse_windows(zoom, used, parse_instant("2024-04-15T00:00:00Z"))
        reset = reset_usage(used, "aiCompanionCredits")
        assert lapsed.usage["maxAssistantsPerMeeting"].window_index == 2
        assert reset.usage["aiCompanionCredits"].used == 0
        return [used, lapsed, reset]

    @staticmethod
    def built(subscription):
        return Subscription(subscription.plan_name, subscription.add_on_names,
                            subscription.start_instant, subscription.contract_period,
                            subscription.usage)

    def test_equal_and_repr_as_constructed_ones(self, subscriptions):
        for subscription in subscriptions:
            built = self.built(subscription)
            assert type(subscription) is Subscription
            assert subscription == built and built == subscription
            assert repr(subscription) == repr(built)
            assert vars(subscription) == vars(built)
            assert list(vars(subscription)) == [f.name for f in fields(Subscription)]

    def test_pickle_and_copies_as_constructed_ones(self, subscriptions):
        for subscription in subscriptions:
            built = self.built(subscription)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.dumps(subscription, protocol) == pickle.dumps(built, protocol)
                again = pickle.loads(pickle.dumps(subscription, protocol))
                assert type(again) is Subscription and again == built
            for again in (copy.deepcopy(subscription), copy.copy(subscription)):
                assert type(again) is Subscription
                assert again == built and repr(again) == repr(built)

    def test_assignment_and_deletion_raise_frozen_instance_error(self, subscriptions):
        for subscription in subscriptions:
            before = self.built(subscription)
            for field in fields(Subscription):
                with pytest.raises(FrozenInstanceError):
                    setattr(subscription, field.name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(subscription, field.name)
            with pytest.raises(FrozenInstanceError):
                subscription.other = 1
            assert subscription == before and vars(subscription) == vars(before)


class TestMalformedStateOrder:
    """A state with several bad counters names the first one in catalog order,
    also where counters share a period and a window index."""

    @pytest.fixture()
    def shared(self):
        return parse(SHARED_PERIODS_DOC)

    @staticmethod
    def _state_text(pricing, reverse=False, **entries):
        state = json.loads(subscription_to_json(pricing, create_subscription(pricing, "P", [], T0)))
        for name, index in entries.items():
            state["usage"][name]["windowIndex"] = index
        if reverse:  # the document's key order is not the order of the checks
            state["usage"] = dict(reversed(state["usage"].items()))
        return json.dumps(state)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("indices", [(10**6, 10**6), (10**12, 10**6), (10**6, 10**12)])
    def test_two_counters_past_the_calendar_name_the_first(self, shared, reverse, indices):
        text = self._state_text(shared, reverse, monthlyB=indices[0], monthlyA=indices[1])
        with pytest.raises(ValueError) as caught:
            subscription_from_json(shared, text)
        assert str(caught.value) == "usage entry for 'monthlyB' has a windowIndex past the calendar"

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("bad", ["0", True, -1, 0.0, None, [0]])
    def test_a_bad_index_after_a_good_one_of_the_same_window_is_named(self, shared, reverse, bad):
        text = self._state_text(shared, reverse, monthlyB=0, monthlyA=bad, monthlyC=10**6)
        with pytest.raises(ValueError) as caught:
            subscription_from_json(shared, text)
        assert str(caught.value) == "usage entry for 'monthlyA' needs a windowIndex"

    def test_a_good_index_after_a_bad_one_of_the_same_window_does_not_hide_it(self, shared):
        text = self._state_text(shared, monthlyB=10**6, monthlyA=0, monthlyC=10**6)
        with pytest.raises(ValueError, match="^usage entry for 'monthlyB' has a windowIndex"):
            subscription_from_json(shared, text)
        text = self._state_text(shared, monthlyB=0, monthlyA=10**6, monthlyC=0)
        with pytest.raises(ValueError, match="^usage entry for 'monthlyA' has a windowIndex"):
            subscription_from_json(shared, text)

    def test_counters_sharing_a_window_read_back(self, shared):
        text = self._state_text(shared, monthlyB=2, monthlyA=2, monthlyC=3, weekly=2, daily=3)
        again = subscription_from_json(shared, text)
        assert [(state.window_start, state.window_index) for state in again.usage.values()] == [
            (parse_instant("2024-02-03T12:00:00Z"), 3),
            (parse_instant("2024-03-31T12:00:00Z"), 2),
            (None, None),
            (parse_instant("2024-02-14T12:00:00Z"), 2),
            (parse_instant("2024-03-31T12:00:00Z"), 2),
            (parse_instant("2024-04-30T12:00:00Z"), 3),
        ]
        assert subscription_from_json(shared, subscription_to_json(shared, again)) == again
