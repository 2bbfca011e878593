"""Reading and writing pricing documents.

The document dialect is a small YAML subset whose grammar is fixed by this
module; the README carries the normative description. Parsing is strict:
unknown keys, duplicate keys, dangling references, and value/kind
mismatches are all errors, and all structural errors in a document are
collected and reported together with line, column, and document path.

``parse`` works on the YAML node graph rather than on loaded Python
objects so that every error can point at its source location and so that
numbers can be read as exact decimals from their literal text.

``serialize`` emits the canonical form: keys in the order of the field
table ``model.FIELDS``, which also lists the keys the parser accepts,
catalog entries in declaration order, two-space indent, LF line endings,
the schema defaults the table names omitted. ``serialize`` then ``parse`` is the identity on valid pricings,
and ``serialize(parse(...))`` is idempotent on documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from operator import attrgetter

import yaml

from .errors import ModelError, PricebookError
from .model import (
    FIELDS,
    WRAPPED_KEY,
    AddOn,
    Feature,
    FeatureType,
    FeatureValue,
    IDENTIFIER_RE,
    LimitKind,
    Plan,
    Pricing,
    UsageLimit,
    MAX_EXPONENT,
    ValueKind,
    default_value_for,
    exponent_in_range,
)
from .periods import Period, PeriodUnit

__all__ = ["ErrorKind", "ParseError", "DocumentError", "parse", "serialize"]

_NUMBER_RE = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")
_INT_RE = re.compile(r"^[-+]?\d+$")
_CURRENCY_RE = re.compile(r"^[A-Z]{3}$")

# The keys each entity accepts, from the field table.
_KEYS = {entity: tuple(field.key for field in fields) for entity, fields in FIELDS.items()}

_TRUE_WORDS = frozenset({"true", "True", "TRUE"})
_FALSE_WORDS = frozenset({"false", "False", "FALSE"})
_NULL_WORDS = frozenset({"", "~", "null", "Null", "NULL"})

_EXPONENT_MESSAGE = f"expected a number whose exponent lies within -{MAX_EXPONENT}..{MAX_EXPONENT}"


class ErrorKind(Enum):
    SYNTAX = "SYNTAX"
    UNKNOWN_KEY = "UNKNOWN_KEY"
    TYPE_MISMATCH = "TYPE_MISMATCH"
    MISSING_REQUIRED = "MISSING_REQUIRED"
    BAD_ENUM = "BAD_ENUM"
    DANGLING_REFERENCE = "DANGLING_REFERENCE"
    DUPLICATE_KEY = "DUPLICATE_KEY"


@dataclass(frozen=True)
class ParseError:
    """One problem in a document, located by line, column, and path."""

    line: int
    column: int
    path: str
    kind: ErrorKind
    message: str

    def __str__(self) -> str:
        where = self.path if self.path else "(root)"
        return f"{self.line}:{self.column} {where}: {self.kind.value}: {self.message}"


class DocumentError(PricebookError):
    """Raised by ``parse``; carries every error found in the document."""

    def __init__(self, errors: list[ParseError]):
        super().__init__(f"invalid pricing document ({len(errors)} error(s))")
        self.errors = list(errors)


def parse(text: str) -> Pricing:
    """Read a pricing document; raises DocumentError listing all problems.

    Total over arbitrary input text: the only exception raised is
    DocumentError. Composes on libyaml when PyYAML has it and the text is
    one on which libyaml and the pure-Python loader agree; every error is
    reported as the pure-Python loader finds it, so the result and the
    error text are the same either way.
    """
    if _LIBYAML_LOADER is not None and _libyaml_agrees(text):
        try:
            return _read(yaml.compose(text, Loader=_LIBYAML_LOADER))
        except (yaml.YAMLError, UnicodeError, DocumentError):
            pass  # recompute, so that errors and their marks are the pure loader's
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise DocumentError([_yaml_error(exc, text)]) from None
    except RecursionError:
        raise DocumentError(
            [ParseError(1, 1, "", ErrorKind.SYNTAX, "document nesting is too deep")]
        ) from None
    return _read(root)


# libyaml composes about ten times faster than PyYAML's pure-Python loader,
# which stays the reference. The two part ways on some texts, which the
# pure loader alone reads:
# - tabs and "?": libyaml accepts them in places the pure scanner rejects,
#   such as a trailing tab or "{value: what?}";
# - a byte-order mark past the first character, which libyaml skips at the
#   start of a line;
# - NEL, LS and PS, line breaks whose marks the two loaders place apart;
# - deep nesting: the pure composer recurses per level and reports "nesting
#   is too deep" at about 450 levels, while libyaml recurses in C without a
#   limit and crashes the interpreter. Flow depth is at most the number of
#   "[" and "{", and block depth at most twice the width of the run of
#   spaces, "-" and ":" that opens a line, plus two; a line opens after
#   "\n" or a lone "\r", both of which are line breaks to both loaders. With
#   the bounds below no text read on libyaml nests deeper than
#   255 + 2 * 63 + 2 = 383 levels.
_LIBYAML_LOADER = getattr(yaml, "CSafeLoader", None)
_PURE_ONLY_CHARS = "\t\x85\u2028\u2029?"
_MAX_FLOW_OPENERS = 256
_DEEP_LINE_RE = re.compile(r"\n[ :-]{64}")


def _libyaml_agrees(text: str) -> bool:
    return (
        not any(char in text for char in _PURE_ONLY_CHARS)
        and text.find("\ufeff", 1) < 0
        and text.count("[") + text.count("{") < _MAX_FLOW_OPENERS
        # a line opens at the start of the text and after "\n" or "\r"
        and _DEEP_LINE_RE.search("\n" + text.replace("\r", "\n")) is None
    )


def _read(root: yaml.nodes.Node | None) -> Pricing:
    if root is None:
        raise DocumentError(
            [ParseError(1, 1, "", ErrorKind.MISSING_REQUIRED, "document is empty")]
        )
    errors: list[ParseError] = []
    pricing = _Reader(errors).document(root)
    if errors or pricing is None:
        if not errors:
            errors.append(ParseError(1, 1, "", ErrorKind.SYNTAX, "could not interpret document"))
        raise DocumentError(errors)
    return pricing


def _yaml_error(exc: yaml.YAMLError, text: str) -> ParseError:
    mark = getattr(exc, "problem_mark", None) or getattr(exc, "context_mark", None)
    if mark is not None:
        line, column = mark.line + 1, mark.column + 1
    elif hasattr(exc, "position"):
        consumed = text[: exc.position]
        line = consumed.count("\n") + 1
        column = len(consumed) - (consumed.rfind("\n") + 1) + 1
    else:
        line, column = 1, 1
    message = " ".join(str(exc).split()) or "malformed YAML"
    return ParseError(line, column, "", ErrorKind.SYNTAX, message)


def _choices(enum_cls) -> str:
    return ", ".join(member.value for member in enum_cls)


def _loc(node: yaml.nodes.Node) -> tuple[int, int]:
    mark = node.start_mark
    return mark.line + 1, mark.column + 1


class _Reader:
    """Walks the node graph, collecting errors instead of stopping."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors

    def err(self, node: yaml.nodes.Node, path: str, kind: ErrorKind, message: str) -> None:
        line, column = _loc(node)
        self.errors.append(ParseError(line, column, path, kind, message))

    # -- generic node readers -------------------------------------------

    def mapping(self, node: yaml.nodes.Node, path: str):
        """Yield (key, key_node, value_node); reports duplicate keys."""
        if not isinstance(node, yaml.nodes.MappingNode):
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a mapping")
            return None
        seen: set[str] = set()
        out = []
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.nodes.ScalarNode):
                self.err(key_node, path, ErrorKind.TYPE_MISMATCH, "mapping keys must be scalars")
                continue
            key = key_node.value
            if key in seen:
                self.err(
                    key_node,
                    f"{path}.{key}" if path else key,
                    ErrorKind.DUPLICATE_KEY,
                    f"duplicate key {key!r}",
                )
                continue
            seen.add(key)
            out.append((key, key_node, value_node))
        return out

    def fields(self, node, path: str, known: tuple[str, ...]):
        """Mapping reader that also rejects unknown keys."""
        items = self.mapping(node, path)
        if items is None:
            return None
        out = {}
        for key, key_node, value_node in items:
            if key not in known:
                self.err(key_node, f"{path}.{key}" if path else key, ErrorKind.UNKNOWN_KEY,
                         f"unknown key {key!r}")
                continue
            out[key] = (key_node, value_node)
        return out

    def scalar(self, node, path: str):
        """Classify a scalar: ('bool'|'num'|'str'|'null', value)."""
        if not isinstance(node, yaml.nodes.ScalarNode):
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a scalar value")
            return None
        # Plain scalars have style None under the pure loader and '' under
        # libyaml; any other style is quoted or block: always a string.
        if node.style:
            return ("str", node.value)
        text = node.value
        if text in _NULL_WORDS:
            return ("null", None)
        if text in _TRUE_WORDS:
            return ("bool", True)
        if text in _FALSE_WORDS:
            return ("bool", False)
        if _NUMBER_RE.match(text):
            return ("num", Decimal(text))
        return ("str", text)

    def string(self, node, path: str, *, nonempty: bool = False) -> str | None:
        sc = self.scalar(node, path)
        if sc is None:
            return None
        kind, value = sc
        if kind == "null":
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a string")
            return None
        text = value if kind == "str" else node.value
        if nonempty and not text.strip():
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "must be a non-empty string")
            return None
        return text

    def decimal(self, node, path: str, *, positive: bool = False) -> Decimal | None:
        sc = self.scalar(node, path)
        if sc is None:
            return None
        kind, value = sc
        if kind != "num":
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a number")
            return None
        if not exponent_in_range(value):
            self.err(node, path, ErrorKind.TYPE_MISMATCH, _EXPONENT_MESSAGE)
            return None
        if positive and value <= 0:
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a number > 0")
            return None
        if not positive and value < 0:
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a number >= 0")
            return None
        return value

    def integer(self, node, path: str, *, minimum: int) -> int | None:
        message = "expected an integer"
        if isinstance(node, yaml.nodes.ScalarNode) and not node.style and _INT_RE.match(node.value):
            value = Decimal(node.value)  # int() refuses literals past 4,300 digits
            if not exponent_in_range(value):
                message = _EXPONENT_MESSAGE
            elif value < minimum:
                message = f"expected an integer >= {minimum}"
            else:
                return int(value)
        self.err(node, path, ErrorKind.TYPE_MISMATCH, message)
        return None

    def enum(self, node, path: str, enum_cls):
        sc = self.scalar(node, path)
        if sc is None:
            return None
        kind, value = sc
        if kind == "str":
            try:
                return enum_cls(value)
            except ValueError:
                message = f"{value!r} is not one of: {_choices(enum_cls)}"
        else:
            message = f"expected one of: {_choices(enum_cls)}"
        self.err(node, path, ErrorKind.BAD_ENUM, message)
        return None

    def feature_value(self, node, path: str, declared: ValueKind | None) -> FeatureValue | None:
        sc = self.scalar(node, path)
        if sc is None or declared is None:
            return None
        kind, value = sc
        if declared is ValueKind.BOOLEAN:
            if kind != "bool":
                self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected true or false")
                return None
            return FeatureValue.boolean(value)
        if declared is ValueKind.NUMERIC:
            if kind != "num" or value < 0:
                self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a number >= 0")
                return None
            if not exponent_in_range(value):
                self.err(node, path, ErrorKind.TYPE_MISMATCH, _EXPONENT_MESSAGE)
                return None
            return FeatureValue.numeric(value)
        if kind != "str":
            self.err(
                node, path, ErrorKind.TYPE_MISMATCH,
                "expected text (quote values that look like numbers, booleans, or null)",
            )
            return None
        return FeatureValue.text(value)

    def name_list(self, node, path: str) -> list[tuple[str, yaml.nodes.Node]]:
        if not isinstance(node, yaml.nodes.SequenceNode):
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a list of names")
            return []
        out = []
        for item in node.value:
            if not isinstance(item, yaml.nodes.ScalarNode):
                self.err(item, path, ErrorKind.TYPE_MISMATCH, "expected a name")
                continue
            out.append((item.value, item))
        return out

    def identifier_key(self, key: str, key_node, path: str) -> bool:
        if IDENTIFIER_RE.match(key):
            return True
        self.err(key_node, path, ErrorKind.TYPE_MISMATCH,
                 "names must be identifiers (letters, digits, underscore; not starting with a digit)")
        return False

    # -- document sections ----------------------------------------------

    def document(self, root) -> Pricing | None:
        fields = self.fields(root, "", _KEYS[Pricing])
        if fields is None:
            return None

        def require(key: str):
            if key not in fields:
                self.err(root, key, ErrorKind.MISSING_REQUIRED, f"missing required key {key!r}")
                return None
            return fields[key][1]

        saas_name = version = currency = None
        node = require("saasName")
        if node is not None:
            saas_name = self.string(node, "saasName", nonempty=True)
        node = require("version")
        if node is not None:
            version = self.string(node, "version")
        node = require("currency")
        if node is not None:
            currency = self.string(node, "currency")
            if currency is not None and not _CURRENCY_RE.match(currency):
                self.err(node, "currency", ErrorKind.TYPE_MISMATCH,
                         "expected a 3-letter ISO-4217 currency code")
                currency = None
        billing = None
        node = require("billingPeriod")
        if node is not None:
            billing = self.period(node, "billingPeriod")
        node = require("features")
        features, feature_kinds = ({}, {})
        if node is not None:
            features, feature_kinds = self.features(node)
        limits, limit_names = ({}, set())
        if "usageLimits" in fields:
            limits, limit_names = self.usage_limits(fields["usageLimits"][1], feature_kinds)
        plans, plan_names = ({}, set())
        if "plans" in fields:
            plans, plan_names = self.plans(fields["plans"][1], feature_kinds, limit_names)
        add_ons = {}
        if "addOns" in fields:
            add_ons = self.add_ons(fields["addOns"][1], feature_kinds, limit_names, plan_names)
        if not plan_names and not add_ons:
            self.err(root, "plans", ErrorKind.MISSING_REQUIRED,
                     "a pricing needs at least one plan or add-on")

        if self.errors:
            return None
        try:
            return Pricing(
                saas_name=saas_name,
                version=version,
                currency=currency,
                billing_period=billing,
                features=features,
                usage_limits=limits,
                plans=plans,
                add_ons=add_ons,
            )
        except ModelError as exc:  # safety net; the walk above should catch everything
            self.err(root, "", ErrorKind.TYPE_MISMATCH, str(exc))
            return None

    def period(self, node, path: str) -> Period | None:
        fields = self.fields(node, path, _KEYS[Period])
        if fields is None:
            return None
        value = unit = None
        if "value" not in fields:
            self.err(node, f"{path}.value", ErrorKind.MISSING_REQUIRED, "missing required key 'value'")
        else:
            value = self.integer(fields["value"][1], f"{path}.value", minimum=1)
        if "unit" not in fields:
            self.err(node, f"{path}.unit", ErrorKind.MISSING_REQUIRED, "missing required key 'unit'")
        else:
            unit = self.enum(fields["unit"][1], f"{path}.unit", PeriodUnit)
        if value is None or unit is None:
            return None
        return Period(value, unit)

    def features(self, node) -> tuple[dict[str, Feature], dict[str, ValueKind | None]]:
        """Returns the clean catalog plus declared name -> kind (None if dirty)."""
        catalog: dict[str, Feature] = {}
        kinds: dict[str, ValueKind | None] = {}
        items = self.mapping(node, "features")
        if items is None:
            return catalog, kinds
        for name, key_node, value_node in items:
            path = f"features.{name}"
            if not self.identifier_key(name, key_node, path):
                continue
            kinds[name] = None
            fields = self.fields(value_node, path, _KEYS[Feature])
            if fields is None:
                continue
            description = ""
            if "description" in fields:
                description = self.string(fields["description"][1], f"{path}.description") or ""
            if "type" not in fields:
                self.err(value_node, f"{path}.type", ErrorKind.MISSING_REQUIRED,
                         "missing required key 'type'")
                continue
            feature_type = self.enum(fields["type"][1], f"{path}.type", FeatureType)
            value_kind = ValueKind.BOOLEAN
            if "valueType" in fields:
                value_kind = self.enum(fields["valueType"][1], f"{path}.valueType", ValueKind)
            if feature_type is None or value_kind is None:
                continue
            kinds[name] = value_kind
            default = default_value_for(value_kind)
            if "defaultValue" in fields:
                default = self.feature_value(fields["defaultValue"][1],
                                             f"{path}.defaultValue", value_kind)
                if default is None:
                    continue
            catalog[name] = Feature(
                name=name,
                feature_type=feature_type,
                value_kind=value_kind,
                default_value=default,
                description=description,
            )
        return catalog, kinds

    def usage_limits(self, node, feature_kinds) -> tuple[dict[str, UsageLimit], set[str]]:
        catalog: dict[str, UsageLimit] = {}
        names: set[str] = set()
        items = self.mapping(node, "usageLimits")
        if items is None:
            return catalog, names
        for name, key_node, value_node in items:
            path = f"usageLimits.{name}"
            if not self.identifier_key(name, key_node, path):
                continue
            if name in feature_kinds:
                self.err(key_node, path, ErrorKind.DUPLICATE_KEY,
                         f"{name!r} is already the name of a feature")
                continue
            names.add(name)
            fields = self.fields(value_node, path, _KEYS[UsageLimit])
            if fields is None:
                continue
            description = ""
            if "description" in fields:
                description = self.string(fields["description"][1], f"{path}.description") or ""
            kind = metric = default = None
            if "type" not in fields:
                self.err(value_node, f"{path}.type", ErrorKind.MISSING_REQUIRED,
                         "missing required key 'type'")
            else:
                kind = self.enum(fields["type"][1], f"{path}.type", LimitKind)
            if "metric" not in fields:
                self.err(value_node, f"{path}.metric", ErrorKind.MISSING_REQUIRED,
                         "missing required key 'metric'")
            else:
                metric = self.string(fields["metric"][1], f"{path}.metric", nonempty=True)
            if "defaultValue" not in fields:
                self.err(value_node, f"{path}.defaultValue", ErrorKind.MISSING_REQUIRED,
                         "missing required key 'defaultValue'")
            else:
                default = self.decimal(fields["defaultValue"][1], f"{path}.defaultValue")
            period = None
            if "period" in fields:
                period = self.period(fields["period"][1], f"{path}.period")
            linked: list[str] = []
            if "linkedFeatures" in fields:
                for ref, ref_node in self.name_list(fields["linkedFeatures"][1],
                                                    f"{path}.linkedFeatures"):
                    if ref in feature_kinds:
                        linked.append(ref)
                    else:
                        self.err(ref_node, f"{path}.linkedFeatures", ErrorKind.DANGLING_REFERENCE,
                                 f"unknown feature {ref!r}")
            if kind is None or metric is None or default is None:
                continue
            if kind is LimitKind.RENEWABLE and period is None:
                if "period" not in fields:
                    self.err(value_node, f"{path}.period", ErrorKind.MISSING_REQUIRED,
                             "RENEWABLE limits need a period")
                continue
            if kind is LimitKind.NON_RENEWABLE and "period" in fields:
                self.err(fields["period"][0], f"{path}.period", ErrorKind.TYPE_MISMATCH,
                         "NON_RENEWABLE limits must not declare a period")
                continue
            if "period" in fields and period is None:
                continue
            catalog[name] = UsageLimit(
                name=name,
                kind=kind,
                metric=metric,
                default_value=default,
                period=period,
                linked_features=tuple(linked),
                description=description,
            )
        return catalog, names

    def value_wrapper(self, node, path: str):
        """The {value: ...} wrapper used by overrides, grants, and extensions."""
        fields = self.fields(node, path, (WRAPPED_KEY,))
        if fields is None:
            return None
        if "value" not in fields:
            self.err(node, f"{path}.value", ErrorKind.MISSING_REQUIRED,
                     "missing required key 'value'")
            return None
        return fields["value"][1]

    def plans(self, node, feature_kinds, limit_names) -> tuple[dict[str, Plan], set[str]]:
        catalog: dict[str, Plan] = {}
        names: set[str] = set()
        items = self.mapping(node, "plans")
        if items is None:
            return catalog, names
        for name, key_node, value_node in items:
            path = f"plans.{name}"
            if not self.identifier_key(name, key_node, path):
                continue
            names.add(name)
            fields = self.fields(value_node, path, _KEYS[Plan])
            if fields is None:
                continue
            price = None
            if "price" not in fields:
                self.err(value_node, f"{path}.price", ErrorKind.MISSING_REQUIRED,
                         "missing required key 'price'")
            else:
                price = self.decimal(fields["price"][1], f"{path}.price")
            overrides = self.feature_value_map(
                fields.get("features", (None, None))[1], f"{path}.features", feature_kinds)
            limit_overrides = self.limit_value_map(
                fields.get("usageLimits", (None, None))[1], f"{path}.usageLimits", limit_names)
            if price is None:
                continue
            catalog[name] = Plan(name=name, price=price,
                                 feature_overrides=overrides, limit_overrides=limit_overrides)
        return catalog, names

    def feature_value_map(self, node, path: str, feature_kinds) -> dict[str, FeatureValue]:
        out: dict[str, FeatureValue] = {}
        if node is None:
            return out
        items = self.mapping(node, path)
        if items is None:
            return out
        for ref, key_node, value_node in items:
            ref_path = f"{path}.{ref}"
            if ref not in feature_kinds:
                self.err(key_node, ref_path, ErrorKind.DANGLING_REFERENCE,
                         f"unknown feature {ref!r}")
                continue
            inner = self.value_wrapper(value_node, ref_path)
            if inner is None:
                continue
            value = self.feature_value(inner, f"{ref_path}.value", feature_kinds[ref])
            if value is not None:
                out[ref] = value
        return out

    def limit_value_map(self, node, path: str, limit_names, *, positive: bool = False) -> dict[str, Decimal]:
        out: dict[str, Decimal] = {}
        if node is None:
            return out
        items = self.mapping(node, path)
        if items is None:
            return out
        for ref, key_node, value_node in items:
            ref_path = f"{path}.{ref}"
            if ref not in limit_names:
                self.err(key_node, ref_path, ErrorKind.DANGLING_REFERENCE,
                         f"unknown usage limit {ref!r}")
                continue
            inner = self.value_wrapper(value_node, ref_path)
            if inner is None:
                continue
            value = self.decimal(inner, f"{ref_path}.value", positive=positive)
            if value is not None:
                out[ref] = value
        return out

    def add_ons(self, node, feature_kinds, limit_names, plan_names) -> dict[str, AddOn]:
        catalog: dict[str, AddOn] = {}
        items = self.mapping(node, "addOns")
        if items is None:
            return catalog
        for name, key_node, value_node in items:
            path = f"addOns.{name}"
            if not self.identifier_key(name, key_node, path):
                continue
            fields = self.fields(value_node, path, _KEYS[AddOn])
            if fields is None:
                continue
            price = None
            if "price" not in fields:
                self.err(value_node, f"{path}.price", ErrorKind.MISSING_REQUIRED,
                         "missing required key 'price'")
            else:
                price = self.decimal(fields["price"][1], f"{path}.price")
            available: list[str] = []
            if "availableFor" in fields:
                for ref, ref_node in self.name_list(fields["availableFor"][1],
                                                    f"{path}.availableFor"):
                    if ref in plan_names:
                        available.append(ref)
                    else:
                        self.err(ref_node, f"{path}.availableFor", ErrorKind.DANGLING_REFERENCE,
                                 f"unknown plan {ref!r}")
            grants = self.feature_value_map(
                fields.get("features", (None, None))[1], f"{path}.features", feature_kinds)
            extensions = self.limit_value_map(
                fields.get("usageLimitExtensions", (None, None))[1],
                f"{path}.usageLimitExtensions", limit_names, positive=True)
            if not grants and not extensions:
                self.err(value_node, path, ErrorKind.MISSING_REQUIRED,
                         "an add-on must grant at least one feature or extend at least one limit")
                continue
            if price is None:
                continue
            catalog[name] = AddOn(name=name, price=price, available_for=tuple(available),
                                  feature_grants=grants, limit_extensions=extensions)
        return catalog


# -- canonical serialization ------------------------------------------------

_PLAIN_BODY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_ .,'()/+\-]*$")


def _plain_safe(text: str) -> bool:
    if not _PLAIN_BODY_RE.match(text) or text.endswith(" "):
        return False
    if text in _TRUE_WORDS or text in _FALSE_WORDS or text in _NULL_WORDS:
        return False
    return not _NUMBER_RE.match(text)


def _quote(text: str) -> str:
    out = ['"']
    for ch in text:
        code = ord(ch)
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif 0x20 <= code <= 0x7E:
            out.append(ch)
        elif code <= 0xFF:
            out.append(f"\\x{code:02X}")
        elif code <= 0xFFFF:
            out.append(f"\\u{code:04X}")
        else:
            out.append(f"\\U{code:08X}")
    out.append('"')
    return "".join(out)


def _fmt_str(text: str) -> str:
    return text if _plain_safe(text) else _quote(text)


def _fmt_decimal(value: Decimal) -> str:
    return format(value, "f")


def _fmt_value(value: FeatureValue) -> str:
    return _SCALAR_TEXT[type(value.value)](value.value)


# The text of each value written on its key's line, by type.
_SCALAR_TEXT = {
    str: _fmt_str, Decimal: _fmt_decimal, int: str, FeatureValue: _fmt_value,
    bool: lambda value: "true" if value else "false",
    **{enum: attrgetter("value") for enum in (FeatureType, ValueKind, LimitKind, PeriodUnit)},
}


def serialize(pricing: Pricing) -> str:
    """Canonical document text for a valid pricing."""
    lines: list[str] = []
    _emit_fields(pricing, FIELDS[Pricing], "", lines)
    return "\n".join(lines) + "\n"


def _emit_fields(entity, fields, pad: str, lines: list[str]) -> None:
    for key, attr, _, omit in fields:
        value = getattr(entity, attr)
        if value in omit:
            continue
        text = _SCALAR_TEXT.get(type(value))
        if text is not None:
            lines.append(f"{pad}{key}: {text(value)}")
        elif type(value) is tuple:
            lines.append(f"{pad}{key}: [{', '.join(value)}]")
        elif type(value) is Period:
            lines.append(f"{pad}{key}:")
            _emit_fields(value, FIELDS[Period], pad + "  ", lines)
        elif not value:
            lines.append(f"{pad}{key}: {{}}")
        else:  # a map of names to catalog entries, or to values written {value: ...}
            lines.append(f"{pad}{key}:")
            for name, item in value.items():
                lines.append(f"{pad}  {name}:")
                text = _SCALAR_TEXT.get(type(item))
                if text is None:
                    _emit_fields(item, FIELDS[type(item)], pad + "    ", lines)
                else:
                    lines.append(f"{pad}    {WRAPPED_KEY}: {text(item)}")
