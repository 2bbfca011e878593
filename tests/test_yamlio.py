"""Document reading and writing: errors with locations, round-trips, fuzz.

These tests run under the default loader, libyaml when PyYAML has it;
``test_yamlio_pure.py`` runs them again under the pure-Python loader.
"""

import random
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricebook import DocumentError, ErrorKind, parse, serialize

from support import random_pricing


def errors_of(text):
    with pytest.raises(DocumentError) as excinfo:
        parse(text)
    return excinfo.value.errors


def test_zoom_parses(zoom):
    assert list(zoom.plans) == ["BASIC", "PRO", "BUSINESS"]
    assert list(zoom.add_ons) == ["hugeMeetings", "extraStorage"]
    assert len(zoom.features) == 12
    assert len(zoom.usage_limits) == 4


def test_empty_document(x=""):
    errs = errors_of("")
    assert len(errs) == 1
    assert errs[0].kind in (ErrorKind.SYNTAX, ErrorKind.MISSING_REQUIRED)
    assert errs[0].path == ""


def test_dangling_linked_feature(zoom_text):
    mutated = zoom_text.replace("linkedFeatures: [onlineMeetings]",
                                "linkedFeatures: [noSuchFeature]", 1)
    errs = errors_of(mutated)
    assert any(
        e.kind is ErrorKind.DANGLING_REFERENCE
        and e.path == "usageLimits.maxAssistantsPerMeeting.linkedFeatures"
        for e in errs
    )


def test_error_carries_position(zoom_text):
    mutated = zoom_text.replace("type: GUARANTEE", "type: GUARANTE", 1)
    errs = errors_of(mutated)
    assert len(errs) == 1
    err = errs[0]
    assert err.kind is ErrorKind.BAD_ENUM
    assert err.path == "features.endToEndEncryption.type"
    line = zoom_text.splitlines().index("    type: GUARANTEE") + 1
    assert err.line == line
    assert err.column == 11


def test_duplicate_key_rejected():
    errs = errors_of("saasName: A\nsaasName: B\n")
    assert any(e.kind is ErrorKind.DUPLICATE_KEY and e.path == "saasName" for e in errs)


def test_unknown_key_rejected(zoom_text):
    errs = errors_of(zoom_text + "extraKey: 1\n")
    assert [e.kind for e in errs] == [ErrorKind.UNKNOWN_KEY]
    assert errs[0].path == "extraKey"


def test_errors_are_collected_not_first_only():
    doc = """
saasName: ""
version: 1
currency: usd
billingPeriod:
  value: 0
  unit: FORTNIGHT
features:
  bad name!:
    type: NOPE
plans:
  P:
    price: -3
"""
    errs = errors_of(doc)
    kinds = {e.kind for e in errs}
    assert len(errs) >= 5
    assert ErrorKind.TYPE_MISMATCH in kinds
    assert ErrorKind.BAD_ENUM in kinds


def test_type_mismatch_paths():
    doc = """saasName: A
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features:
  f:
    type: DOMAIN
    defaultValue: 3
plans:
  P:
    price: 1
"""
    errs = errors_of(doc)
    assert len(errs) == 1
    assert errs[0].kind is ErrorKind.TYPE_MISMATCH
    assert errs[0].path == "features.f.defaultValue"


def test_renewable_needs_period():
    doc = """saasName: A
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features: {}
usageLimits:
  calls:
    type: RENEWABLE
    metric: calls
    defaultValue: 10
plans:
  P:
    price: 1
"""
    errs = errors_of(doc)
    assert [e.kind for e in errs] == [ErrorKind.MISSING_REQUIRED]
    assert errs[0].path == "usageLimits.calls.period"


def test_non_renewable_forbids_period():
    doc = """saasName: A
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features: {}
usageLimits:
  storage:
    type: NON_RENEWABLE
    metric: GB
    period:
      value: 1
      unit: MONTH
    defaultValue: 10
plans:
  P:
    price: 1
"""
    errs = errors_of(doc)
    assert [e.kind for e in errs] == [ErrorKind.TYPE_MISMATCH]
    assert errs[0].path == "usageLimits.storage.period"


def test_blank_metric_rejected_at_parse():
    doc = """saasName: A
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features: {}
usageLimits:
  storage:
    type: NON_RENEWABLE
    metric: "  "
    defaultValue: 10
plans:
  P:
    price: 1
"""
    errs = errors_of(doc)
    assert errs[0].path == "usageLimits.storage.metric"


def test_plan_or_add_on_required():
    doc = """saasName: A
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features: {}
"""
    errs = errors_of(doc)
    assert [e.kind for e in errs] == [ErrorKind.MISSING_REQUIRED]
    assert errs[0].path == "plans"


BOUNDED_DOC = """saasName: A
version: "1"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features:
  f:
    type: DOMAIN
    valueType: NUMERIC
    defaultValue: {number}
usageLimits:
  l:
    type: NON_RENEWABLE
    metric: m
    defaultValue: {number}
plans:
  P:
    price: {number}
addOns:
  A:
    price: 1
    features:
      f: {{value: 1}}
    usageLimitExtensions:
      l: {{value: {number}}}
"""


def test_explicit_tags_do_not_change_how_a_scalar_reads(minimal_path):
    # A plain scalar is read by its own text and a quoted one is text,
    # whatever tag it carries.
    text = (minimal_path.read_text(encoding="utf-8")
            .replace("saasName: MiniNotes", "saasName: !!int MiniNotes")
            .replace('version: "1.0"', 'version: !!float "1.0"')
            .replace("price: 0", "price: !!str 0"))
    pricing = parse(text)
    assert pricing.saas_name == "MiniNotes"
    assert pricing.version == "1.0"
    assert pricing.plans["FREE"].price == Decimal(0)
    assert serialize(pricing) == minimal_path.read_text(encoding="utf-8")


def test_number_exponent_out_of_range_is_a_located_type_mismatch():
    # Fixed-point text of 1e999999999 would take a gigabyte, so such
    # numbers are refused where they are read.
    paths = ["features.f.defaultValue", "usageLimits.l.defaultValue", "plans.P.price",
             "addOns.A.usageLimitExtensions.l.value"]
    for number in ("1e1001", "1e-1001", "1e999999999", "1e-999999999", "0.1e-1000", "10e1000"):
        errs = errors_of(BOUNDED_DOC.format(number=number))
        assert [(e.path, e.kind) for e in errs] == [(p, ErrorKind.TYPE_MISMATCH) for p in paths]
        assert all("exponent" in e.message for e in errs)
    for number in ("1e1000", "1e-1000", "12.5e998", "0.5e-999"):
        assert parse(BOUNDED_DOC.format(number=number)).plans["P"].price == Decimal(number)


def test_period_value_exponent_out_of_range_is_a_located_type_mismatch(minimal_path):
    # int() refuses literals of more than 4,300 digits, so a period value
    # is held to the same exponent bound as every other number first.
    golden = minimal_path.read_text(encoding="utf-8")

    def with_value(literal):
        return golden.replace("  value: 1\n", f"  value: {literal}\n", 1)

    for literal in ("1" + "0" * 1001, "9" * 5000, "-" + "9" * 5000):
        errs = errors_of(with_value(literal))
        assert [(e.path, e.kind) for e in errs] == [("billingPeriod.value", ErrorKind.TYPE_MISMATCH)]
        assert "exponent" in errs[0].message and literal not in str(errs[0])
    assert parse(with_value("1" + "0" * 1000)).billing_period.value == 10 ** 1000
    assert parse(with_value("0" * 5000 + "2")).billing_period.value == 2


def test_zoom_round_trip(zoom, zoom_text):
    assert parse(serialize(zoom)) == zoom
    assert serialize(zoom) == zoom_text  # the fixture is kept in canonical form


def test_minimal_golden(minimal_path):
    golden = minimal_path.read_text(encoding="utf-8")
    assert serialize(parse(golden)) == golden


def test_serialize_is_idempotent_on_messy_input():
    messy = """
plans:
  P:
    price: 1.50
currency: USD
version: 1.0
saasName: Messy
billingPeriod: {unit: WEEK, value: 2}
features:
  f:
    defaultValue: "yes: quoted"
    valueType: TEXT
    type: SUPPORT
"""
    once = serialize(parse(messy))
    assert serialize(parse(once)) == once
    assert parse(once).plans["P"].price == parse(messy).plans["P"].price


def test_round_trip_random_corpus():
    rng = random.Random(404)
    for _ in range(60):
        pricing = random_pricing(rng)
        text = serialize(pricing)
        again = parse(text)
        assert again == pricing
        assert serialize(again) == text


def test_text_ending_in_a_line_break_is_quoted(zoom):
    pricing = replace(zoom, saas_name="Zoom\n")
    text = serialize(pricing)
    assert 'saasName: "Zoom\\n"\n' in text
    assert parse(text) == pricing


def test_a_trailing_line_break_ends_no_name_or_code(minimal_path):
    text = minimal_path.read_text(encoding="utf-8")
    errs = errors_of(text.replace("currency: EUR", 'currency: "EUR\\n"')
                     .replace("  basicNotes:", '  "basicNotes\\n":'))
    assert [(e.line, e.kind, e.message) for e in errs] == [
        (3, ErrorKind.TYPE_MISMATCH, "expected a 3-letter ISO-4217 currency code"),
        (8, ErrorKind.TYPE_MISMATCH, "names must be identifiers "
                                     "(letters, digits, underscore; not starting with a digit)"),
    ]


def test_error_locality_under_single_scalar_mutation(zoom_text):
    cases = [
        ("metric: assistants", "metric: \"\"", "usageLimits.maxAssistantsPerMeeting.metric"),
        ("price: 15.99", "price: cheap", "plans.PRO.price"),
        ("unit: MONTH", "unit: MOON", "billingPeriod.unit"),
        ("value: 900", "value: -900", "addOns.hugeMeetings.usageLimitExtensions"),
    ]
    for needle, replacement, prefix in cases:
        mutated = zoom_text.replace(needle, replacement, 1)
        assert mutated != zoom_text
        errs = errors_of(mutated)
        assert any(e.path.startswith(prefix) for e in errs), (needle, errs)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(codec=None), max_size=400))  # surrogates included
def test_parse_never_crashes(text):
    try:
        parse(text)
    except DocumentError as exc:
        assert exc.errors


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ab:{}[]-#\n '\"", max_size=200))
def test_parse_never_crashes_yamlish(text):
    try:
        parse(text)
    except DocumentError as exc:
        assert exc.errors


@pytest.mark.parametrize("text", [
    "saasName: \ud800\n",
    "\udfff",
    "features:\n  f\ud83d:\n    type: DOMAIN\n",
])
def test_lone_surrogate_is_a_syntax_error(text):
    errs = errors_of(text)
    assert [e.kind for e in errs] == [ErrorKind.SYNTAX]
