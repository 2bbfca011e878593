"""Byte-exact outputs: the diff's JSON lines and the canonical serializer.

``OLD`` and ``NEW`` are built so that ``diff(OLD, NEW)`` raises every
change kind, with enum, period, list, feature-value and null payloads on
both sides; ``RICH`` and ``BARE`` take every branch of ``serialize`` that
omits a schema default or quotes a string; ``ERROR_DOCS`` pins the text and
the order of every error ``parse`` reports on documents with several.
"""

import pytest

from pricebook import ChangeKind, DocumentError, diff, parse, serialize, yamlio

OLD = """\
saasName: Acme
version: "1.0"
currency: USD
billingPeriod:
  value: 1
  unit: MONTH
features:
  chat:
    description: Chat
    type: DOMAIN
    defaultValue: true
  storage:
    type: DOMAIN
    valueType: NUMERIC
    defaultValue: 5
  sso:
    type: INTEGRATION
  motto:
    type: INFORMATION
    valueType: TEXT
    defaultValue: basic
  gone:
    type: SUPPORT
usageLimits:
  messages:
    type: RENEWABLE
    metric: message
    period: {value: 1, unit: DAY}
    defaultValue: 100
    linkedFeatures: [chat]
  seats:
    type: NON_RENEWABLE
    metric: seat
    defaultValue: 3
  apiCalls:
    type: RESPONSE_DRIVEN
    metric: call
    period: {value: 2, unit: WEEK}
    defaultValue: 10
  oldLimit:
    type: NON_RENEWABLE
    metric: thing
    defaultValue: 1
plans:
  FREE:
    price: 0
  PRO:
    price: 10
    features:
      sso: {value: true}
      storage: {value: 50}
      motto: {value: pro}
    usageLimits:
      messages: {value: 1000}
  LEGACY:
    price: 5
addOns:
  boost:
    price: 2
    availableFor: [PRO]
    features:
      motto: {value: boosted}
    usageLimitExtensions:
      messages: {value: 500}
  retired:
    price: 1
    features:
      sso: {value: true}
"""

NEW = """\
saasName: Acme Corp
version: "2.0"
currency: EUR
billingPeriod:
  value: 1
  unit: YEAR
features:
  chat:
    description: Team chat
    type: MANAGEMENT
    defaultValue: true
  storage:
    type: DOMAIN
    valueType: NUMERIC
    defaultValue: 10
  sso:
    type: INTEGRATION
    valueType: NUMERIC
  motto:
    type: INFORMATION
    valueType: TEXT
    defaultValue: "yes"
  reports:
    description: "Reports: weekly"
    type: INFORMATION
    valueType: NUMERIC
    defaultValue: 2
usageLimits:
  messages:
    type: RENEWABLE
    metric: msg
    period: {value: 1, unit: DAY}
    defaultValue: 200
    linkedFeatures: [chat, reports]
  seats:
    description: Named seats
    type: TIME_DRIVEN
    metric: seat
    period: {value: 1, unit: MONTH}
    defaultValue: 3
  apiCalls:
    type: RESPONSE_DRIVEN
    metric: call
    defaultValue: 10
  exports:
    type: NON_RENEWABLE
    metric: export
    defaultValue: 4
    linkedFeatures: [reports]
plans:
  FREE:
    price: 0
  PRO:
    price: 12.50
    features:
      sso: {value: 3}
      storage: {value: 50}
      motto: {value: "pro: plus"}
      reports: {value: 7}
    usageLimits:
      messages: {value: 1000}
      exports: {value: 40}
  TEAM:
    price: 30
    features:
      chat: {value: false}
    usageLimits:
      seats: {value: 25}
addOns:
  boost:
    price: 3
    availableFor: [PRO, TEAM]
    features:
      chat: {value: true}
      motto: {value: "100"}
    usageLimitExtensions:
      apiCalls: {value: 5}
  vault:
    price: 0.5
    features:
      storage: {value: 1E+3}
    usageLimitExtensions:
      seats: {value: 2}
"""

DIFF_LINES = """\
{"kind": "FeatureAdded", "feature": "reports", "definition": {"name": "reports", "description": "Reports: weekly", "type": "INFORMATION", "valueType": "NUMERIC", "defaultValue": {"type": "NUMERIC", "value": "2"}}}
{"kind": "FeatureRemoved", "feature": "gone"}
{"kind": "FeatureTypeChanged", "feature": "chat", "old": "DOMAIN", "new": "MANAGEMENT"}
{"kind": "FeatureValueTypeChanged", "feature": "sso", "old": "BOOLEAN", "new": "NUMERIC"}
{"kind": "FeatureDescriptionChanged", "feature": "chat", "old": "Chat", "new": "Team chat"}
{"kind": "FeatureDefaultChanged", "feature": "motto", "old": {"type": "TEXT", "value": "basic"}, "new": {"type": "TEXT", "value": "yes"}}
{"kind": "FeatureDefaultChanged", "feature": "sso", "old": {"type": "BOOLEAN", "value": false}, "new": {"type": "NUMERIC", "value": "0"}}
{"kind": "FeatureDefaultChanged", "feature": "storage", "old": {"type": "NUMERIC", "value": "5"}, "new": {"type": "NUMERIC", "value": "10"}}
{"kind": "LimitAdded", "limit": "exports", "definition": {"name": "exports", "description": "", "type": "NON_RENEWABLE", "metric": "export", "period": null, "defaultValue": "4", "linkedFeatures": ["reports"]}}
{"kind": "LimitRemoved", "limit": "oldLimit"}
{"kind": "LimitKindChanged", "limit": "seats", "old": "NON_RENEWABLE", "new": "TIME_DRIVEN"}
{"kind": "LimitMetricChanged", "limit": "messages", "old": "message", "new": "msg"}
{"kind": "LimitPeriodChanged", "limit": "apiCalls", "old": {"value": 2, "unit": "WEEK"}, "new": null}
{"kind": "LimitPeriodChanged", "limit": "seats", "old": null, "new": {"value": 1, "unit": "MONTH"}}
{"kind": "LimitDescriptionChanged", "limit": "seats", "old": "", "new": "Named seats"}
{"kind": "LimitLinkedFeaturesChanged", "limit": "messages", "old": ["chat"], "new": ["chat", "reports"]}
{"kind": "LimitThresholdChanged", "scope": "FREE", "limit": "messages", "old": "100", "new": "200"}
{"kind": "LimitThresholdChanged", "scope": "PRO", "limit": "exports", "old": null, "new": "40"}
{"kind": "LimitThresholdChanged", "scope": "default", "limit": "messages", "old": "100", "new": "200"}
{"kind": "PlanAdded", "plan": "TEAM", "definition": {"name": "TEAM", "price": "30", "features": {"chat": {"type": "BOOLEAN", "value": false}}, "usageLimits": {"seats": "25"}}}
{"kind": "PlanRemoved", "plan": "LEGACY"}
{"kind": "PlanPriceChanged", "plan": "PRO", "old": "10", "new": "12.50"}
{"kind": "PlanFeatureValueChanged", "plan": "FREE", "feature": "motto", "old": {"type": "TEXT", "value": "basic"}, "new": {"type": "TEXT", "value": "yes"}}
{"kind": "PlanFeatureValueChanged", "plan": "FREE", "feature": "sso", "old": {"type": "BOOLEAN", "value": false}, "new": {"type": "NUMERIC", "value": "0"}}
{"kind": "PlanFeatureValueChanged", "plan": "FREE", "feature": "storage", "old": {"type": "NUMERIC", "value": "5"}, "new": {"type": "NUMERIC", "value": "10"}}
{"kind": "PlanFeatureValueChanged", "plan": "PRO", "feature": "motto", "old": {"type": "TEXT", "value": "pro"}, "new": {"type": "TEXT", "value": "pro: plus"}}
{"kind": "PlanFeatureValueChanged", "plan": "PRO", "feature": "reports", "old": null, "new": {"type": "NUMERIC", "value": "7"}}
{"kind": "PlanFeatureValueChanged", "plan": "PRO", "feature": "sso", "old": {"type": "BOOLEAN", "value": true}, "new": {"type": "NUMERIC", "value": "3"}}
{"kind": "AddOnAdded", "addOn": "vault", "definition": {"name": "vault", "price": "0.5", "availableFor": [], "features": {"storage": {"type": "NUMERIC", "value": "1000"}}, "usageLimitExtensions": {"seats": "2"}}}
{"kind": "AddOnRemoved", "addOn": "retired"}
{"kind": "AddOnPriceChanged", "addOn": "boost", "old": "2", "new": "3"}
{"kind": "AddOnAvailabilityChanged", "addOn": "boost", "old": ["PRO"], "new": ["PRO", "TEAM"]}
{"kind": "AddOnGrantChanged", "addOn": "boost", "feature": "chat", "old": null, "new": {"type": "BOOLEAN", "value": true}}
{"kind": "AddOnGrantChanged", "addOn": "boost", "feature": "motto", "old": {"type": "TEXT", "value": "boosted"}, "new": {"type": "TEXT", "value": "100"}}
{"kind": "AddOnExtensionChanged", "addOn": "boost", "limit": "apiCalls", "old": null, "new": "5"}
{"kind": "AddOnExtensionChanged", "addOn": "boost", "limit": "messages", "old": "500", "new": null}
{"kind": "MetadataChanged", "field": "billingPeriod", "old": {"value": 1, "unit": "MONTH"}, "new": {"value": 1, "unit": "YEAR"}}
{"kind": "MetadataChanged", "field": "currency", "old": "USD", "new": "EUR"}
{"kind": "MetadataChanged", "field": "saasName", "old": "Acme", "new": "Acme Corp"}
{"kind": "MetadataChanged", "field": "version", "old": "1.0", "new": "2.0"}
"""

RICH = """\
saasName: "Café €"
version: "3"
currency: GBP
billingPeriod:
  value: 3
  unit: MONTH
features:
  notes:
    description: "Take notes: fast"
    type: DOMAIN
  pins:
    type: DOMAIN
    defaultValue: true
  quota:
    description: Storage quota
    type: MANAGEMENT
    valueType: NUMERIC
  depth:
    type: AUTOMATION
    valueType: NUMERIC
    defaultValue: 0.50
  tagline:
    type: INFORMATION
    valueType: TEXT
  badge:
    type: GUARANTEE
    valueType: TEXT
    defaultValue: "null"
  slogan:
    type: PAYMENT
    valueType: TEXT
    defaultValue: "say \\"hi\\"\\t\\U0001F600"
usageLimits:
  uploads:
    description: Uploads per day
    type: RENEWABLE
    metric: file
    period: {value: 1, unit: DAY}
    defaultValue: 10
    linkedFeatures: [pins, notes]
  archive:
    type: NON_RENEWABLE
    metric: "GB "
    defaultValue: 0
plans:
  FREE:
    price: 0.00
  PRO:
    price: 9.99
    features:
      pins: {value: false}
      tagline: {value: "true"}
      depth: {value: 0.5}
      quota: {value: 100}
    usageLimits:
      uploads: {value: 10}
      archive: {value: 1e2}
addOns:
  more:
    price: 1
    availableFor: [PRO, FREE]
    features:
      tagline: {value: plain words}
      quota: {value: 5}
    usageLimitExtensions:
      archive: {value: 50}
  solo:
    price: 2
    usageLimitExtensions:
      uploads: {value: 1}
"""

RICH_CANONICAL = r"""saasName: "Caf\xE9 \u20AC"
version: "3"
currency: GBP
billingPeriod:
  value: 3
  unit: MONTH
features:
  notes:
    description: "Take notes: fast"
    type: DOMAIN
  pins:
    type: DOMAIN
    defaultValue: true
  quota:
    description: Storage quota
    type: MANAGEMENT
    valueType: NUMERIC
  depth:
    type: AUTOMATION
    valueType: NUMERIC
    defaultValue: 0.50
  tagline:
    type: INFORMATION
    valueType: TEXT
  badge:
    type: GUARANTEE
    valueType: TEXT
    defaultValue: "null"
  slogan:
    type: PAYMENT
    valueType: TEXT
    defaultValue: "say \"hi\"\t\U0001F600"
usageLimits:
  uploads:
    description: Uploads per day
    type: RENEWABLE
    metric: file
    period:
      value: 1
      unit: DAY
    defaultValue: 10
    linkedFeatures: [notes, pins]
  archive:
    type: NON_RENEWABLE
    metric: "GB "
    defaultValue: 0
plans:
  FREE:
    price: 0.00
  PRO:
    price: 9.99
    features:
      pins:
        value: false
      quota:
        value: 100
      tagline:
        value: "true"
    usageLimits:
      archive:
        value: 100
addOns:
  more:
    price: 1
    availableFor: [FREE, PRO]
    features:
      quota:
        value: 5
      tagline:
        value: plain words
    usageLimitExtensions:
      archive:
        value: 50
  solo:
    price: 2
    usageLimitExtensions:
      uploads:
        value: 1
"""

BARE = """\
saasName: Bare
version: v1
currency: USD
billingPeriod: {value: 1, unit: WEEK}
features: {}
plans:
  ONLY: {price: 0}
"""

BARE_CANONICAL = """\
saasName: Bare
version: v1
currency: USD
billingPeriod:
  value: 1
  unit: WEEK
features: {}
plans:
  ONLY:
    price: 0
"""


def test_diff_json_lines_cover_every_kind_byte_for_byte():
    changes = diff(parse(OLD), parse(NEW))
    assert {change.kind for change in changes} == set(ChangeKind)
    assert changes.to_json_lines() == DIFF_LINES


def test_serialize_takes_every_omit_and_quote_branch_byte_for_byte():
    assert serialize(parse(RICH)) == RICH_CANONICAL
    assert serialize(parse(BARE)) == BARE_CANONICAL
    assert serialize(parse(RICH_CANONICAL)) == RICH_CANONICAL


# -- parse errors, in the order they are reported ---------------------------
HEAD = """\
saasName: Acme
version: v1
currency: USD
billingPeriod: {value: 1, unit: MONTH}
"""

# Each document with the exact text of every error ``parse`` reports, in
# order: an entity's scalar fields first, then its nested ones, each in
# table order; a feature without a type reports nothing more, and one whose
# type or value type is unreadable does not read its default value.
ERROR_DOCS = {
    "feature_without_type": (
        HEAD + """\
features:
  typeless:
    description: [not, text]
    valueType: NUMBERS
    defaultValue: abc
  badValueType:
    type: DOMAIN
    valueType: NUMBERS
    defaultValue: [1]
  badBoth:
    type: DOMAINS
    valueType: TEXTS
    defaultValue: {x: 1}
  fine:
    type: DOMAIN
    defaultValue: 1
plans:
  P:
    price: 0
    features:
      typeless: {value: [1]}
      badBoth: {value: true}
""",
        [
            '7:18 features.typeless.description: TYPE_MISMATCH: expected a scalar value',
            "7:5 features.typeless.type: MISSING_REQUIRED: missing required key 'type'",
            "12:16 features.badValueType.valueType: BAD_ENUM: 'NUMBERS' is not one of: BOOLEAN, NUMERIC, TEXT",
            "15:11 features.badBoth.type: BAD_ENUM: 'DOMAINS' is not one of: DOMAIN, INTEGRATION, AUTOMATION, MANAGEMENT, INFORMATION, GUARANTEE, SUPPORT, PAYMENT",
            "16:16 features.badBoth.valueType: BAD_ENUM: 'TEXTS' is not one of: BOOLEAN, NUMERIC, TEXT",
            '20:19 features.fine.defaultValue: TYPE_MISMATCH: expected true or false',
            '25:25 plans.P.features.typeless.value: TYPE_MISMATCH: expected a scalar value',
        ],
    ),
    "renewable_limit": (
        HEAD + """\
features:
  f: {type: DOMAIN, defaultValue: true}
usageLimits:
  window:
    type: RENEWABLE
    metric: call
    period: {value: x, unit: DAY}
    defaultValue: -1
    linkedFeatures: [f, nope]
  fixed:
    type: NON_RENEWABLE
    metric: seat
    period: {value: 1, unit: DAY}
    defaultValue: 1
  unwindowed:
    type: RENEWABLE
    metric: call
    defaultValue: 1
plans:
  P: {price: 0}
""",
        [
            '12:19 usageLimits.window.defaultValue: TYPE_MISMATCH: expected a number >= 0',
            '11:21 usageLimits.window.period.value: TYPE_MISMATCH: expected an integer',
            "13:25 usageLimits.window.linkedFeatures: DANGLING_REFERENCE: unknown feature 'nope'",
            '17:5 usageLimits.fixed.period: TYPE_MISMATCH: NON_RENEWABLE limits must not declare a period',
            '20:5 usageLimits.unwindowed.period: MISSING_REQUIRED: RENEWABLE limits need a period',
        ],
    ),
    "limit_without_type": (
        HEAD + """\
features:
  f: {type: DOMAIN, defaultValue: true}
usageLimits:
  untyped:
    description: 7
    metric: ""
    period: {value: 0}
    defaultValue: -1
    linkedFeatures: [nope, f, [x]]
plans:
  P:
    price: -1
    usageLimits:
      untyped: {value: x}
""",
        [
            "9:5 usageLimits.untyped.type: MISSING_REQUIRED: missing required key 'type'",
            '10:13 usageLimits.untyped.metric: TYPE_MISMATCH: must be a non-empty string',
            '12:19 usageLimits.untyped.defaultValue: TYPE_MISMATCH: expected a number >= 0',
            '11:21 usageLimits.untyped.period.value: TYPE_MISMATCH: expected an integer >= 1',
            "11:13 usageLimits.untyped.period.unit: MISSING_REQUIRED: missing required key 'unit'",
            '13:31 usageLimits.untyped.linkedFeatures: TYPE_MISMATCH: expected a name',
            "13:22 usageLimits.untyped.linkedFeatures: DANGLING_REFERENCE: unknown feature 'nope'",
            '16:12 plans.P.price: TYPE_MISMATCH: expected a number >= 0',
            '18:24 plans.P.usageLimits.untyped.value: TYPE_MISMATCH: expected a number',
        ],
    ),
    "limit_named_like_feature": (
        HEAD + """\
features:
  f: {type: DOMAIN, defaultValue: true}
usageLimits:
  f:
    type: NON_RENEWABLE
    metric: seat
    defaultValue: 1
  9bad: {}
plans:
  P:
    price: 0
    usageLimits:
      f: {value: 1}
""",
        [
            "8:3 usageLimits.f: DUPLICATE_KEY: 'f' is already the name of a feature",
            '12:3 usageLimits.9bad: TYPE_MISMATCH: names must be identifiers (letters, digits, underscore; not starting with a digit)',
            "17:7 plans.P.usageLimits.f: DANGLING_REFERENCE: unknown usage limit 'f'",
        ],
    ),
    "add_on_with_only_bad_grants": (
        HEAD + """\
features:
  f: {type: DOMAIN}
usageLimits:
  l: {type: NON_RENEWABLE, metric: seat, defaultValue: 1}
addOns:
  extra:
    price: 1
    availableFor: [NOPE]
    features:
      nope: {value: true}
      f: {value: 3}
    usageLimitExtensions:
      l: {value: 0}
      m: {value: 1}
""",
        [
            "12:20 addOns.extra.availableFor: DANGLING_REFERENCE: unknown plan 'NOPE'",
            "14:7 addOns.extra.features.nope: DANGLING_REFERENCE: unknown feature 'nope'",
            '15:18 addOns.extra.features.f.value: TYPE_MISMATCH: expected true or false',
            '17:18 addOns.extra.usageLimitExtensions.l.value: TYPE_MISMATCH: expected a number > 0',
            "18:7 addOns.extra.usageLimitExtensions.m: DANGLING_REFERENCE: unknown usage limit 'm'",
            '11:5 addOns.extra: MISSING_REQUIRED: an add-on must grant at least one feature or extend at least one limit',
            '1:1 plans: MISSING_REQUIRED: a pricing needs at least one plan or add-on',
        ],
    ),
    "lowercase_currency": (
        """\
saasName: " "
version: 1.0
currency: usd
billingPeriod: {value: 0, unit: MONTHS}
features: []
plans:
  P: {price: free}
""",
        [
            '1:11 saasName: TYPE_MISMATCH: must be a non-empty string',
            '3:11 currency: TYPE_MISMATCH: expected a 3-letter ISO-4217 currency code',
            '4:24 billingPeriod.value: TYPE_MISMATCH: expected an integer >= 1',
            "4:33 billingPeriod.unit: BAD_ENUM: 'MONTHS' is not one of: DAY, WEEK, MONTH, YEAR",
            '5:11 features: TYPE_MISMATCH: expected a mapping',
            '7:14 plans.P.price: TYPE_MISMATCH: expected a number',
        ],
    ),
    "value_wrappers": (
        HEAD + """\
features:
  f: {type: DOMAIN}
usageLimits:
  l: {type: NON_RENEWABLE, metric: seat, defaultValue: 1}
plans:
  P:
    price: 0
    features:
      f: {valu: true}
    usageLimits:
      l: {}
  Q:
    price: 0
    features:
      f: [true]
    usageLimits:
      l: {value: 2, value: 3}
  R:
    price: 0
    features:
      f: {value: true, extra: 1}
    usageLimits:
      l: {[value]: 2}
""",
        [
            "13:11 plans.P.features.f.valu: UNKNOWN_KEY: unknown key 'valu'",
            "13:10 plans.P.features.f.value: MISSING_REQUIRED: missing required key 'value'",
            "15:10 plans.P.usageLimits.l.value: MISSING_REQUIRED: missing required key 'value'",
            '19:10 plans.Q.features.f: TYPE_MISMATCH: expected a mapping',
            "21:21 plans.Q.usageLimits.l.value: DUPLICATE_KEY: duplicate key 'value'",
            "25:24 plans.R.features.f.extra: UNKNOWN_KEY: unknown key 'extra'",
            '27:11 plans.R.usageLimits.l: TYPE_MISMATCH: mapping keys must be scalars',
            "27:10 plans.R.usageLimits.l.value: MISSING_REQUIRED: missing required key 'value'",
        ],
    ),
    # Where the rules that join fields report: a missing plan at the root,
    # a forbidden period at its key, and only once the fields they join read.
    "empty_plans": (
        HEAD + """\
features:
  f: {type: DOMAIN}
plans: {}
""",
        ['1:1 plans: MISSING_REQUIRED: a pricing needs at least one plan or add-on'],
    ),
    "only_plan_unread": (
        HEAD + """\
features:
  f: {type: DOMAIN}
plans:
  P:
    price: free
""",
        ['9:12 plans.P.price: TYPE_MISMATCH: expected a number'],
    ),
    "non_renewable_period_unread": (
        HEAD + """\
features:
  f: {type: DOMAIN, defaultValue: true}
usageLimits:
  seats:
    type: NON_RENEWABLE
    metric: seat
    period: {value: 0, unit: DAY}
    defaultValue: 1
plans:
  P: {price: 0}
""",
        [
            '11:21 usageLimits.seats.period.value: TYPE_MISMATCH: expected an integer >= 1',
            '11:5 usageLimits.seats.period: TYPE_MISMATCH: NON_RENEWABLE limits must not declare a period',
        ],
    ),
    "renewable_period_unread": (
        HEAD + """\
features:
  f: {type: DOMAIN, defaultValue: true}
usageLimits:
  calls:
    type: RENEWABLE
    metric: call
    period: {value: 1, unit: DAYS}
    defaultValue: 1
plans:
  P: {price: 0}
""",
        ["11:30 usageLimits.calls.period.unit: BAD_ENUM: 'DAYS' is not one of: DAY, WEEK, MONTH, YEAR"],
    ),
}


@pytest.mark.parametrize("pure", [False, True], ids=["default-loader", "pure-loader"])
@pytest.mark.parametrize("name", list(ERROR_DOCS))
def test_parse_errors_byte_for_byte_in_order(name, pure, monkeypatch):
    if pure:
        monkeypatch.setattr(yamlio, "_LIBYAML_LOADER", None)
    text, want = ERROR_DOCS[name]
    with pytest.raises(DocumentError) as excinfo:
        parse(text)
    assert [str(error) for error in excinfo.value.errors] == want
