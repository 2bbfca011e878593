"""Domain model: resolution, classification, stats, structural invariants."""

import copy
import pickle
import random
from dataclasses import replace
from decimal import Decimal

import pytest

from pricebook import (
    AddOn,
    DocumentError,
    Feature,
    FeatureClass,
    FeatureType,
    FeatureValue,
    LimitKind,
    ModelError,
    NoPlansError,
    Period,
    PeriodUnit,
    Plan,
    Pricing,
    Rule,
    UnknownPlanError,
    UsageLimit,
    ValueKind,
    classify_features,
    create_subscription,
    diff,
    evaluate_feature,
    parse,
    parse_instant,
    pricing_stats,
    serialize,
    validate,
)
from pricebook import model
from pricebook.model import FIELDS, Values

from support import random_pricing, resolve_plan


def mini(plans=None, features=None, add_ons=None, usage_limits=None, **metadata):
    return Pricing(
        **{"saas_name": "Mini", "version": "1", "currency": "USD",
           "billing_period": Period(1, PeriodUnit.MONTH), **metadata},
        features=features if features is not None else {
            "thing": Feature(name="thing", feature_type=FeatureType.DOMAIN,
                             default_value=FeatureValue.boolean(True)),
        },
        usage_limits=usage_limits or {},
        plans=plans if plans is not None else {"ONLY": Plan(name="ONLY", price=Decimal(0))},
        add_ons=add_ons or {},
    )


class TestFeatureValue:
    def test_kind_is_part_of_identity(self):
        assert FeatureValue.boolean(True) != FeatureValue.numeric(1)
        assert FeatureValue.numeric("1") == FeatureValue.numeric("1.0")

    def test_truthiness(self):
        assert FeatureValue.boolean(True).truthy
        assert not FeatureValue.boolean(False).truthy
        assert FeatureValue.numeric("0.1").truthy
        assert not FeatureValue.numeric(0).truthy
        assert FeatureValue.text("x").truthy
        assert not FeatureValue.text("").truthy

    def test_numeric_must_be_finite_nonnegative(self):
        with pytest.raises(ModelError):
            FeatureValue.numeric("-1")
        with pytest.raises(ModelError):
            FeatureValue.numeric("NaN")

    @pytest.mark.parametrize("value", ["abc", "", None, 0.1, [1], True])
    def test_numeric_refuses_what_is_not_an_exact_number(self, value):
        with pytest.raises(ModelError):
            FeatureValue.numeric(value)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ModelError):
            FeatureValue(ValueKind.BOOLEAN, "true")
        with pytest.raises(ModelError):
            FeatureValue(ValueKind.NUMERIC, True)


class TestConstruction:
    def test_feature_limit_name_clash_rejected(self):
        from pricebook import LimitKind, UsageLimit
        with pytest.raises(ModelError):
            Pricing(
                saas_name="Mini", version="1", currency="USD",
                billing_period=Period(1, PeriodUnit.MONTH),
                features={"x": Feature(name="x", feature_type=FeatureType.DOMAIN)},
                usage_limits={"x": UsageLimit(name="x", kind=LimitKind.NON_RENEWABLE,
                                              metric="things")},
                plans={"P": Plan(name="P", price=Decimal(0))},
            )

    def test_needs_plan_or_add_on(self):
        with pytest.raises(ModelError):
            mini(plans={})

    def test_override_kind_must_match(self):
        with pytest.raises(ModelError):
            mini(plans={"P": Plan(name="P", price=Decimal(0),
                                  feature_overrides={"thing": FeatureValue.numeric(1)})})

    def test_unknown_override_reference(self):
        with pytest.raises(ModelError):
            mini(plans={"P": Plan(name="P", price=Decimal(0),
                                  feature_overrides={"ghost": FeatureValue.boolean(True)})})

    def test_errors_name_the_first_unknown_name_in_declaration_order(self):
        # The names reported must not depend on the order a set yields
        # them in, which changes with the interpreter's string hash seed.
        for k in range(20):
            ghosts = tuple(f"ghost{k}_{i}" for i in range(6))
            limit = UsageLimit(name="calls", kind=LimitKind.NON_RENEWABLE, metric="call",
                               linked_features=ghosts)
            with pytest.raises(ModelError, match=f"references unknown feature '{ghosts[0]}'$"):
                mini(usage_limits={"calls": limit})
            add_on = AddOn(name="extra", price=Decimal(1), available_for=ghosts,
                           feature_grants={"thing": FeatureValue.boolean(True)})
            with pytest.raises(ModelError, match=f"references unknown plan '{ghosts[0]}'$"):
                mini(add_ons={"extra": add_on})

    def test_a_raw_value_for_a_feature_value_is_a_model_error(self):
        with pytest.raises(ModelError):
            mini(plans={"P": Plan(name="P", price=Decimal(0), feature_overrides={"thing": True})})
        with pytest.raises(ModelError):
            mini(add_ons={"extra": AddOn(name="extra", price=Decimal(1),
                                         feature_grants={"thing": True})})

    def test_a_limit_override_must_be_a_decimal_even_when_it_equals_the_default(self):
        limit = UsageLimit(name="calls", kind=LimitKind.NON_RENEWABLE, metric="call",
                           default_value=Decimal(5))
        for value in (5, 6):
            with pytest.raises(ModelError, match="must be a Decimal"):
                mini(usage_limits={"calls": limit},
                     plans={"P": Plan(name="P", price=Decimal(0),
                                      limit_overrides={"calls": value})})

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: mini(currency="usd"), id="lowercase-currency"),
        pytest.param(lambda: mini(currency="USD\n"), id="currency-and-newline"),
        pytest.param(lambda: mini(plans={"P": Plan("P", HUGE)}), id="huge-price"),
        pytest.param(lambda: mini(plans={"P": Plan("P", TINY)}), id="tiny-price"),
        pytest.param(lambda: mini(add_ons={"extra": AddOn(
            "extra", HUGE, feature_grants={"thing": FeatureValue.boolean(True)})}),
            id="huge-add-on-price"),
        pytest.param(lambda: mini(usage_limits={"calls": calls(default_value=HUGE)}),
                     id="huge-limit-default"),
        pytest.param(lambda: mini(usage_limits={"calls": calls(default_value=TINY)}),
                     id="tiny-limit-default"),
        pytest.param(lambda: mini(features={"n": Feature(
            "n", FeatureType.DOMAIN, ValueKind.NUMERIC, FeatureValue.numeric(HUGE))}),
            id="huge-numeric-value"),
        pytest.param(lambda: mini(features={"n": Feature(
            "n", FeatureType.DOMAIN, ValueKind.NUMERIC, FeatureValue.numeric(TINY))}),
            id="tiny-numeric-value"),
        pytest.param(lambda: mini(billing_period=Period(10**1200, PeriodUnit.DAY)),
                     id="huge-billing-period"),
        pytest.param(lambda: mini(usage_limits={"calls": calls(
            kind=LimitKind.RENEWABLE, period=Period(10**1200, PeriodUnit.DAY))}),
            id="huge-limit-period"),
        pytest.param(lambda: mini(usage_limits={"calls": calls(kind="RENEWABLE")}),
                     id="renewable-as-text"),
        pytest.param(lambda: mini(features={"f": Feature("f", "DOMAIN")}), id="type-as-text"),
        pytest.param(lambda: mini(version=2), id="version-as-int"),
        pytest.param(lambda: mini(features={"f": Feature("f", FeatureType.DOMAIN,
                                                         description=None)}),
                     id="feature-description-none"),
        pytest.param(lambda: mini(usage_limits={"calls": calls(description=None)}),
                     id="limit-description-none"),
        pytest.param(lambda: mini(billing_period=(1, "MONTH")), id="period-as-tuple"),
        pytest.param(lambda: mini(features={"f": Feature("f", FeatureType.DOMAIN,
                                                         value_kind="BOOLEAN")}),
                     id="value-kind-as-text"),
        pytest.param(lambda: mini(usage_limits={"calls": calls()}, plans={"P": Plan(
            "P", Decimal(0), limit_overrides={"calls": HUGE})}), id="huge-plan-override"),
        pytest.param(lambda: mini(usage_limits={"calls": calls()}, add_ons={"extra": AddOn(
            "extra", Decimal(1), limit_extensions={"calls": HUGE})}), id="huge-extension"),
        pytest.param(lambda: mini(plans={"P\n": Plan("P\n", Decimal(0))}),
                     id="name-and-newline"),
    ])
    def test_refuses_what_a_document_cannot_say(self, build):
        with pytest.raises(ModelError):
            build()

    def test_built_pricings_round_trip_or_are_refused(self):
        # One field, or one value of a map field, of a random pricing gets a
        # value at the edge of what a document can say. The pricing is
        # refused, or validate reads it and the document gives it back.
        rng = random.Random(405)
        refused = 0
        for _ in range(800):
            pricing = random_pricing(rng)
            value = rng.choice(EDGE_VALUES)
            try:
                pricing = _with_one_field(rng, pricing, value)
            except ModelError:
                refused += 1
                continue
            report = validate(pricing)
            if not any(v.rule is Rule.R3B_MISSING_METRIC for v in report.violations):
                assert parse(serialize(pricing)) == pricing, value
        assert 100 < refused < 800 - 30  # both outcomes are exercised

    def test_redundant_override_dropped(self):
        p = mini(plans={"P": Plan(name="P", price=Decimal(0),
                                  feature_overrides={"thing": FeatureValue.boolean(True)})})
        assert p.plans["P"].feature_overrides == {}


HUGE, TINY = Decimal("1e5000"), Decimal("1e-5000")

# Values at the edges of what a document can say, each constructible on its own.
EDGE_VALUES = [
    "usd", "USD\n", "", " ", "a\n", "x y", "café\n", "\ud800", "\x00", "DOMAIN", "RENEWABLE",
    "BOOLEAN", None, 2, True, 1.5, HUGE, TINY, Decimal("-1"), Decimal("-0"), Decimal("NaN"),
    Decimal("1e1000"), Decimal("1e-1000"), Decimal("0E-1001"), Period(10**1200, PeriodUnit.DAY),
    Period(10**1000, PeriodUnit.DAY), (1, "MONTH"), ("a",), (), {}, {"a": Decimal(1)},
    FeatureValue.numeric("1e1000"), FeatureValue.numeric("5.0"), FeatureValue.text("a\n"),
    FeatureValue.boolean(True), LimitKind.RENEWABLE, FeatureType.DOMAIN, ValueKind.TEXT,
]


def calls(**fields):
    return UsageLimit(**{"name": "calls", "kind": LimitKind.NON_RENEWABLE, "metric": "call",
                         **fields})


def _with_one_field(rng, pricing, value):
    """``pricing`` built again with one field, or one value of a map field,
    of itself or one of its entries set to ``value``."""
    catalogs = {"features": pricing.features, "usage_limits": pricing.usage_limits,
                "plans": pricing.plans, "add_ons": pricing.add_ons}
    owner, entity = rng.choice([(None, pricing)] + [
        (attr, entry) for attr, catalog in catalogs.items() for entry in catalog.values()])
    field = rng.choice(FIELDS[type(entity)])
    new = value
    current = getattr(entity, field.attr)
    if type(field.holds) is Values and current and rng.random() < 0.7:
        new = {**current, rng.choice(sorted(current)): value}
    entity = replace(entity, **{field.attr: new})
    if owner is None:
        return entity
    return replace(pricing, **{owner: {**catalogs[owner], entity.name: entity}})

# A document head for the join-rule cases below: one feature, and a plan
# that each case's text may replace.
JOIN_HEAD = """\
saasName: Mini
version: "1"
currency: USD
billingPeriod: {value: 1, unit: MONTH}
features:
  thing: {type: DOMAIN, defaultValue: true}
"""
ONE_PLAN = "plans:\n  ONLY: {price: 0}\n"

# Each rule that joins fields, broken by an entity built in code and by a document.
JOIN_RULES = {
    "renewable-without-period": (
        lambda: calls(kind=LimitKind.RENEWABLE),
        JOIN_HEAD + "usageLimits:\n  calls: {type: RENEWABLE, metric: call, defaultValue: 0}\n"
        + ONE_PLAN),
    "non-renewable-with-period": (
        lambda: calls(period=Period(1, PeriodUnit.DAY)),
        JOIN_HEAD + "usageLimits:\n  calls: {type: NON_RENEWABLE, metric: call, "
        "period: {value: 1, unit: DAY}, defaultValue: 0}\n" + ONE_PLAN),
    "add-on-without-grants": (
        lambda: AddOn("extra", Decimal(1)),
        JOIN_HEAD + ONE_PLAN + "addOns:\n  extra: {price: 1}\n"),
    "pricing-without-plans": (
        lambda: mini(plans={}),
        JOIN_HEAD + "plans: {}\n"),
}


class TestJoinRules:
    """The rules that join fields are written once, in ``model.joins``."""

    @pytest.mark.parametrize("build, document", JOIN_RULES.values(), ids=list(JOIN_RULES))
    def test_an_entity_built_in_code_gives_the_parsers_message(self, build, document):
        with pytest.raises(DocumentError) as parsed:
            parse(document)
        [error] = parsed.value.errors
        with pytest.raises(ModelError) as built:
            build()
        assert error.message in str(built.value)

    def test_a_pricing_checks_each_entry_once_and_leaves_the_callers_as_they_were(
            self, monkeypatch):
        checked = []
        check_fields = model._check_fields

        def counted(entity):
            checked.append(type(entity))
            check_fields(entity)

        monkeypatch.setattr(model, "_check_fields", counted)
        # each entry is one the pricing rebuilds: a duplicate to drop, an
        # override restating the default, references out of catalog order
        limit = calls(linked_features=("thing", "thing"))
        plan = Plan("ONLY", Decimal(0), feature_overrides={"thing": FeatureValue.boolean(True)},
                    limit_overrides={"calls": Decimal(7)})
        add_on = AddOn("extra", Decimal(1), available_for=("ONLY", "ONLY"),
                       limit_extensions={"calls": Decimal(2)})
        built = copy.deepcopy((limit, plan, add_on))
        pricing = mini(usage_limits={"calls": limit}, plans={"ONLY": plan},
                       add_ons={"extra": add_on})
        assert [checked.count(kind) for kind in (UsageLimit, Plan, AddOn, Pricing)] == [1] * 4
        assert (limit, plan, add_on) == built
        assert type(plan.feature_overrides) is dict
        assert pricing.usage_limits["calls"].linked_features == ("thing",)
        assert pricing.plans["ONLY"].feature_overrides == {}
        assert pricing.add_ons["extra"].available_for == ("ONLY",)


# Each rule that joins catalog entries by name, broken by a pricing built in
# code and by a document.
NAME_RULES = {
    "limit-named-like-a-feature": (
        lambda: mini(usage_limits={"thing": calls(name="thing")}),
        JOIN_HEAD + "usageLimits:\n  thing: {type: NON_RENEWABLE, metric: call, defaultValue: 0}\n"
        + ONE_PLAN),
    "unknown-plan-in-availableFor": (
        lambda: mini(add_ons={"extra": AddOn(
            "extra", Decimal(1), available_for=("NOPE",),
            feature_grants={"thing": FeatureValue.boolean(True)})}),
        JOIN_HEAD + ONE_PLAN + "addOns:\n  extra:\n    price: 1\n    availableFor: [NOPE]\n"
        "    features: {thing: {value: true}}\n"),
    "unknown-key-in-a-value-map": (
        lambda: mini(plans={"ONLY": Plan("ONLY", Decimal(0), feature_overrides={
            "nope": FeatureValue.boolean(True)})}),
        JOIN_HEAD + "plans:\n  ONLY:\n    price: 0\n    features: {nope: {value: true}}\n"),
}


class TestNameRules:
    """A pricing built in code names a broken reference as the parser does."""

    @pytest.mark.parametrize("build, document", NAME_RULES.values(), ids=list(NAME_RULES))
    def test_a_pricing_built_in_code_gives_the_parsers_message(self, build, document):
        with pytest.raises(DocumentError) as parsed:
            parse(document)
        [error] = parsed.value.errors
        with pytest.raises(ModelError) as built:
            build()
        assert error.message in str(built.value)

    def test_the_first_limit_named_like_a_feature_in_catalog_order_is_named(self):
        features = {name: Feature(name, FeatureType.DOMAIN) for name in ("a", "b")}
        limits = {name: calls(name=name) for name in ("b", "a")}
        with pytest.raises(ModelError) as built:
            mini(features=features, usage_limits=limits)
        assert str(built.value) == "usage limit 'b': 'b' is already the name of a feature"


class TestResolvePlan:
    def test_zoom_basic_chat_support_off(self, zoom):
        resolved = resolve_plan(zoom, "BASIC")
        assert resolved.feature_values["chatSupport"] == FeatureValue.boolean(False)

    def test_identity_when_no_overrides(self):
        p = mini()
        resolved = resolve_plan(p, "ONLY")
        assert resolved.feature_values["thing"] == p.features["thing"].default_value

    def test_zoom_pro_assistants_base(self, zoom):
        resolved = resolve_plan(zoom, "PRO")
        assert resolved.limit_values["maxAssistantsPerMeeting"] == Decimal(100)

    def test_unknown_plan(self, zoom):
        with pytest.raises(UnknownPlanError):
            resolve_plan(zoom, "NOPE")

    def test_totality_and_override_dominance(self):
        rng = random.Random(401)
        for _ in range(40):
            pricing = random_pricing(rng)
            for plan_name, plan in pricing.plans.items():
                resolved = resolve_plan(pricing, plan_name)
                assert set(resolved.feature_values) == set(pricing.features)
                assert set(resolved.limit_values) == set(pricing.usage_limits)
                for f, v in plan.feature_overrides.items():
                    assert resolved.feature_values[f] == v
                for l, v in plan.limit_overrides.items():
                    assert resolved.limit_values[l] == v


class TestClassifyFeatures:
    def test_zoom_fixture_classes(self, zoom):
        classes = classify_features(zoom)
        assert classes["automatedSubtitles"] is FeatureClass.COMMON
        assert classes["chatSupport"] is FeatureClass.SPECIFIC

    def test_single_plan_all_common(self):
        classes = classify_features(mini())
        assert set(classes.values()) == {FeatureClass.COMMON}

    def test_no_plans_is_an_error(self):
        from pricebook import AddOn
        p = mini(
            plans={},
            add_ons={"extra": AddOn(name="extra", price=Decimal(1),
                                    feature_grants={"thing": FeatureValue.boolean(True)})},
        )
        with pytest.raises(NoPlansError):
            classify_features(p)

    def test_consistency_with_resolution_set(self):
        rng = random.Random(402)
        for _ in range(40):
            pricing = random_pricing(rng, min_plans=1)
            classes = classify_features(pricing)
            resolved = [resolve_plan(pricing, p) for p in pricing.plans]
            for name, cls in classes.items():
                distinct = {r.feature_values[name] for r in resolved}  # by FeatureValue ==
                assert (cls is FeatureClass.COMMON) == (len(distinct) == 1)


class TestPricingStats:
    def test_zoom_headline_counts(self, zoom):
        stats = pricing_stats(zoom)
        assert stats.plans == 3
        assert stats.add_ons == 2
        assert stats.plan_managed_features == 10
        assert all(count == 1 for count in stats.add_on_feature_counts.values())

    def test_zoom_type_histogram(self, zoom):
        # hand count over fixtures/zoom.yml
        stats = pricing_stats(zoom)
        assert stats.feature_types[FeatureType.GUARANTEE] == 1
        assert stats.feature_types[FeatureType.DOMAIN] == 5
        assert stats.feature_types[FeatureType.SUPPORT] == 1
        assert sum(stats.feature_types.values()) == 12
        assert all(count == 1 for count in stats.limit_kinds.values())

    def test_empty_catalog(self):
        stats = pricing_stats(mini(features={}))
        assert stats.plans == 1
        assert stats.features == 0
        assert stats.plan_managed_features == 0
        assert stats.add_on_managed_features == 0

    def test_unmanaged_features_are_exactly_r2_orphans(self):
        rng = random.Random(403)
        for _ in range(40):
            pricing = random_pricing(rng)
            stats = pricing_stats(pricing)
            resolved = [resolve_plan(pricing, p) for p in pricing.plans]
            managed = {
                name for name in pricing.features
                if any(r.feature_values[name].truthy for r in resolved)
                or any(name in a.feature_grants and a.feature_grants[name].truthy
                       for a in pricing.add_ons.values())
            }
            report = validate(pricing)
            orphans = {v.subjects[0] for v in report.violations
                       if v.rule.value == "R2_ORPHAN_FEATURE"}
            assert orphans == set(pricing.features) - managed
            assert stats.plan_managed_features <= len(managed)


class TestFrozen:
    """A constructed Pricing cannot change, so lookups derived from it stay true."""

    def test_every_map_refuses_item_assignment(self, zoom_text):
        pricing = parse(zoom_text)
        plan = pricing.plans["PRO"]
        add_on = pricing.add_ons["hugeMeetings"]
        value = FeatureValue.boolean(True)
        for mapping, key, new in (
            (pricing.features, "chatSupport", pricing.features["chatSupport"]),
            (pricing.usage_limits, "x", None),
            (pricing.plans, "PRO", plan),
            (pricing.add_ons, "x", add_on),
            (plan.feature_overrides, "chatSupport", value),
            (plan.limit_overrides, "maxAssistantsPerMeeting", Decimal(5)),
            (add_on.feature_grants, "hugeMeetings", value),
            (add_on.limit_extensions, "maxAssistantsPerMeeting", Decimal(5)),
        ):
            before = dict(mapping)
            with pytest.raises(TypeError):
                mapping[key] = new
            for change in (lambda: mapping.pop(key), lambda: mapping.update({key: new}),
                           lambda: mapping.setdefault(key, new), mapping.clear,
                           mapping.popitem):
                with pytest.raises(TypeError):
                    change()
            with pytest.raises(TypeError):
                del mapping[key]
            assert mapping == before

    def test_caller_dicts_are_not_shared(self):
        features = {"thing": Feature(name="thing", feature_type=FeatureType.DOMAIN,
                                     default_value=FeatureValue.boolean(True))}
        overrides = {"thing": FeatureValue.boolean(False)}
        p = mini(features=features,
                 plans={"P": Plan(name="P", price=Decimal(0), feature_overrides=overrides)})
        features["other"] = Feature(name="other", feature_type=FeatureType.DOMAIN)
        overrides["thing"] = FeatureValue.boolean(True)
        assert list(p.features) == ["thing"]
        assert p.plans["P"].feature_overrides == {"thing": FeatureValue.boolean(False)}

    def test_pickle_and_deepcopy_round_trip(self, zoom_text):
        pricing = parse(zoom_text)
        sub = create_subscription(pricing, "PRO", ["hugeMeetings"],
                                  parse_instant("2024-01-31T12:00:00Z"))
        expected = evaluate_feature(pricing, sub, "hugeMeetings", sub.start_instant)
        for copied in (pickle.loads(pickle.dumps(pricing)), copy.deepcopy(pricing)):
            assert copied == pricing
            assert copied is not pricing
            assert evaluate_feature(copied, sub, "hugeMeetings", sub.start_instant) == expected
            with pytest.raises(TypeError):
                copied.plans["PRO"].limit_overrides["maxAssistantsPerMeeting"] = Decimal(1)

    def test_not_hashable(self, zoom):
        with pytest.raises(TypeError):
            hash(zoom)

    def test_catalog_readers_build_no_engine_index(self):
        rng = random.Random(404)
        for _ in range(20):
            pricing = random_pricing(rng, min_plans=1)
            validate(pricing)
            pricing_stats(pricing)
            classify_features(pricing)
            diff(pricing, pricing)
            for plan in pricing.plans:
                resolve_plan(pricing, plan)
            assert "_index" not in vars(pricing)

