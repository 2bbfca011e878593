"""Reading and writing pricing documents.

The document dialect is a small YAML subset whose grammar is fixed by this
module and the field table ``model.FIELDS``; the README carries the
normative description. Parsing is strict: unknown keys, duplicate keys,
dangling references, and value/kind mismatches are all errors.

``parse`` works on the YAML node graph rather than on loaded Python
objects so that every error can point at its source location and so that
numbers can be read as exact decimals from their literal text. One walk
reads every entity by the field table and collects errors instead of
stopping, each with line, column, and document path. Within an entity it
reads the scalar fields first, then the nested ones, each in table order,
and reports errors in that order. A feature without a ``type`` reports
nothing more, and one whose type or value type is unreadable does not
read its default value. Once an entity's fields are read, the rules that
join them, written once in ``model.joins``, are checked and located: a
missing field at the entity's node, a forbidden one at its key.

``serialize`` emits the canonical form: keys in the order of the field
table, catalog entries in declaration order, two-space indent, LF line
endings, the schema defaults the table names omitted. ``serialize`` then
``parse`` is the identity on valid pricings, and ``serialize(parse(...))``
is idempotent on documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import partial
from operator import attrgetter

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .errors import ModelError, PricebookError
from .model import (
    CURRENCY,
    ENTRIES,
    FIELDS,
    NAME,
    NONBLANK,
    POSITIVE,
    WRAPPED_KEY,
    _CATALOG_ATTR,
    Feature,
    FeatureType,
    FeatureValue,
    LimitKind,
    Names,
    Plan,
    Pricing,
    UsageLimit,
    ValueKind,
    Values,
    joins,
    out_of_range,
    unknown,
)
from .periods import Period, PeriodUnit

__all__ = ["ErrorKind", "ParseError", "DocumentError", "parse", "serialize"]

_NUMBER_RE = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")
_INT_RE = re.compile(r"^[-+]?\d+$")

# The keys each entity accepts, from the field table.
_KEYS = {entity: tuple(field.key for field in fields) for entity, fields in FIELDS.items()}

_TRUE_WORDS = frozenset({"true", "True", "TRUE"})
_FALSE_WORDS = frozenset({"false", "False", "FALSE"})
_NULL_WORDS = frozenset({"", "~", "null", "Null", "NULL"})


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
    one on which libyaml and the pure-Python loader agree. Schema errors
    are reported from libyaml's nodes, unless one sits at an empty plain
    scalar, whose mark the two loaders place apart; those documents, and
    every YAML syntax error, are read again on the pure loader. So the
    result and the error text are the same either way.
    """
    if _LIBYAML_LOADER is not None and _libyaml_agrees(text):
        try:
            root = yaml.compose(text, Loader=_LIBYAML_LOADER)
        except (yaml.YAMLError, UnicodeError):
            pass  # recompute, so that syntax errors and their marks are the pure loader's
        else:
            reader = _Reader()
            try:
                return reader.read(root)
            except DocumentError:
                if not reader.at_empty_scalar:
                    raise
    try:
        root = yaml.compose(text, Loader=_PURE_LOADER)
    except yaml.YAMLError as exc:
        raise DocumentError([_yaml_error(exc, text)]) from None
    except RecursionError:
        raise DocumentError(
            [ParseError(1, 1, "", ErrorKind.SYNTAX, "document nesting is too deep")]
        ) from None
    return _Reader().read(root)


# Both loaders resolve no tags. ``_Reader`` never reads ``node.tag``: it
# classifies a plain scalar by its own text, so an explicit tag such as
# "!!str 0" changes nothing. Resolving costs libyaml's C composer three
# calls back into Python per node (``descend_resolver``, ``resolve`` and
# ``ascend_resolver``), about a third of a compose; the regexes those
# calls run are not the cost, so memoizing ``resolve`` saves nothing.
# The subclasses leave PyYAML's own loader classes as they are.
class _Untagged:
    """A loader mixin that resolves no tags: nodes keep only explicit ones."""

    def descend_resolver(self, current_node, current_index):
        pass

    def ascend_resolver(self):
        pass

    def resolve(self, kind, value, implicit):
        return None


_PURE_LOADER = type("PureLoader", (_Untagged, yaml.SafeLoader), {})

# libyaml composes about ten times faster than PyYAML's pure-Python loader,
# which stays the reference. On the texts handed to libyaml the two compose
# the same node graph, marks included, except for the marks of empty plain
# scalars (a bare "---", "{a: , b: c}", a flow key that ends its line);
# tests/test_loaders.py holds them to that. So ``parse`` reports schema
# errors from libyaml's nodes unless one sits at an empty plain scalar. The
# two part ways on some texts, which the pure loader alone reads:
# - tabs and "?": libyaml accepts them in places the pure scanner rejects,
#   such as a trailing tab or "{value: what?}";
# - "!" where a token may start, which opens every tag and tag directive:
#   libyaml accepts some tags the pure scanner rejects ("!~!!str x") and
#   reads others to other nodes ("[!a, b]"). A "!" may open a token only
#   at the start of the text (after a byte-order mark) or after whitespace,
#   a flow indicator, ":" or a closing quote; both loaders refuse one right
#   after an anchor or alias and read any other as text, as in "Great value!";
# - a block scalar header followed directly by a comment, such as ">#c" or
#   "|-#c", which libyaml accepts and the pure scanner rejects;
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
_LIBYAML_LOADER = (type("LibyamlLoader", (_Untagged, yaml.CSafeLoader), {})
                   if hasattr(yaml, "CSafeLoader") else None)
_PURE_ONLY_CHARS = "\t\x85\u2028\u2029?"
# Each pattern opens with one literal character, which a search skips to
# quickly; "[|>]" or a look-behind first would test every position.
_TAG_RE = re.compile(r"!(?<![^\s\ufeff\[\]{},:'\"]!)")
_HEADER_COMMENT_RES = (re.compile(r"\|[-+0-9]*#"), re.compile(r">[-+0-9]*#"))
_MAX_FLOW_OPENERS = 256
_DEEP_LINE_RE = re.compile(r"\n[ :-]{64}")


def _libyaml_agrees(text: str) -> bool:
    return (
        not any(char in text for char in _PURE_ONLY_CHARS)
        and text.find("\ufeff", 1) < 0
        and _TAG_RE.search(text) is None
        and not any(header.search(text) for header in _HEADER_COMMENT_RES)
        and text.count("[") + text.count("{") < _MAX_FLOW_OPENERS
        # a line opens at the start of the text and after "\n" or "\r"
        and _DEEP_LINE_RE.search("\n" + text.replace("\r", "\n")) is None
    )


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
    """Walks the node graph by the field table, collecting errors instead of stopping."""

    def __init__(self):
        self.errors: list[ParseError] = []
        # Every name each catalog declares, whether or not its entry reads;
        # a feature's name maps to the kind of its values, None if unknown.
        self.declared: dict[type, dict[str, ValueKind | None]] = {entry: {} for entry in ENTRIES}
        # Whether an error sits at an empty plain scalar, whose mark the
        # two loaders place apart.
        self.at_empty_scalar = False

    def read(self, root: yaml.nodes.Node | None) -> Pricing:
        """The pricing a composed document holds; raises DocumentError listing every problem."""
        if root is None:
            raise DocumentError(
                [ParseError(1, 1, "", ErrorKind.MISSING_REQUIRED, "document is empty")]
            )
        values, ok = self.entity(Pricing, root, "")
        if ok and not self.errors:
            try:
                return Pricing(**values)
            except ModelError as exc:  # safety net; the walk should catch everything
                self.err(root, "", ErrorKind.TYPE_MISMATCH, str(exc))
        raise DocumentError(self.errors or [
            ParseError(1, 1, "", ErrorKind.SYNTAX, "could not interpret document")])

    def err(self, node: yaml.nodes.Node, path: str, kind: ErrorKind, message: str) -> None:
        line, column = _loc(node)
        self.errors.append(ParseError(line, column, path, kind, message))
        if isinstance(node, ScalarNode) and not node.value and not node.style:
            self.at_empty_scalar = True

    # -- generic node readers -------------------------------------------

    def mapping(self, node: yaml.nodes.Node, path: str):
        """Yield (key, key_node, value_node); reports duplicate keys."""
        if not isinstance(node, MappingNode):
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a mapping")
            return None
        seen: set[str] = set()
        out = []
        for key_node, value_node in node.value:
            if not isinstance(key_node, ScalarNode):
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
        """Classify a scalar: ('bool'|'num'|'str'|'null', value), or (None, None)."""
        if not isinstance(node, ScalarNode):
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a scalar value")
            return None, None
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

    def in_range(self, node, path: str, holds, value):
        """``value`` if ``model.out_of_range`` finds nothing; else None, reported."""
        problem = out_of_range(holds, value)
        if problem is None:
            return value
        self.err(node, path, ErrorKind.TYPE_MISMATCH, problem)
        return None

    def string(self, node, path: str, holds=str) -> str | None:
        kind, value = self.scalar(node, path)
        if kind is None:
            return None
        if kind == "null":
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a string")
            return None
        return self.in_range(node, path, holds, value if kind == "str" else node.value)

    def decimal(self, node, path: str, holds=Decimal) -> Decimal | None:
        kind, value = self.scalar(node, path)
        if kind is None:
            return None
        if kind != "num":
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a number")
            return None
        return self.in_range(node, path, holds, value)

    def count(self, node, path: str) -> int | None:
        if isinstance(node, ScalarNode) and not node.style and _INT_RE.match(node.value):
            # read as a Decimal first: int() refuses literals past 4,300 digits
            value = self.in_range(node, path, int, Decimal(node.value))
            return None if value is None else int(value)
        self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected an integer")
        return None

    def enum(self, node, path: str, enum_cls):
        kind, value = self.scalar(node, path)
        if kind is None:
            return None
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
        kind, value = self.scalar(node, path)
        if kind is None or declared is None:
            return None
        if declared is ValueKind.BOOLEAN:
            if kind != "bool":
                self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected true or false")
                return None
            return FeatureValue.boolean(value)
        if declared is ValueKind.NUMERIC:
            # a negative number reports its sign before its exponent
            if kind != "num" or value < 0:
                self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a number >= 0")
                return None
            value = self.in_range(node, path, Decimal, value)
            return None if value is None else FeatureValue.numeric(value)
        if kind != "str":
            self.err(
                node, path, ErrorKind.TYPE_MISMATCH,
                "expected text (quote values that look like numbers, booleans, or null)",
            )
            return None
        return FeatureValue.text(value)

    # -- the walk over the field table ------------------------------------

    def entity(self, cls, node, path: str) -> tuple[dict, bool]:
        """An entity's field values by attribute, and whether every one read.

        Scalar fields are read first, then nested ones, each in table order.
        A field that fails holds None; an absent optional field is left
        out, to take the dataclass default.
        """
        fields = self.fields(node, path, _KEYS[cls])
        if fields is None:
            return {}, False
        values = {}
        ok = True
        for key, attr, holds, required, read in _WALK[cls]:
            item = fields.get(key)
            if item is None and not required:
                continue
            at = f"{path}.{key}" if path else key
            if item is None:
                self.err(node, at, ErrorKind.MISSING_REQUIRED, f"missing required key {key!r}")
                if cls is Feature:  # a feature without a type reports nothing more
                    return values, False
                ok = False
                continue
            if holds is FeatureValue:  # a feature's default, of the kind it declares
                kind = _declared_kind(values)
                if kind is None:  # its type or value type did not read
                    return values, False
                value = values[attr] = self.feature_value(item[1], at, kind)
            else:
                value = values[attr] = read(self, item[1], at)
            if value is None:
                ok = False
        present = values
        if cls is Pricing:  # a declared plan counts even if it did not read; an add-on must read
            present = {**values, _CATALOG_ATTR[Plan]: self.declared[Plan]}
        for key, missing, message in joins(cls, present):
            at = path if key is None else f"{path}.{key}" if path else key
            if missing:
                self.err(node, at, ErrorKind.MISSING_REQUIRED, message)
            else:
                self.err(fields[key][0], at, ErrorKind.TYPE_MISMATCH, message)
            ok = False
        return values, ok

    def nested(self, node, path: str, entity):
        values, ok = self.entity(entity, node, path)
        return entity(**values) if ok else None

    def catalog(self, node, path: str, entry) -> dict:
        """The entries that read, by name; every identifier declared goes to ``declared``."""
        out = {}
        items = self.mapping(node, path)
        if items is None:
            return out
        declared = self.declared[entry]
        for name, key_node, value_node in items:
            at = f"{path}.{name}"
            if self.in_range(key_node, at, NAME, name) is None:
                continue
            if entry is UsageLimit and name in self.declared[Feature]:
                self.err(key_node, at, ErrorKind.DUPLICATE_KEY,
                         f"{name!r} is already the name of a feature")
                continue
            declared[name] = None
            values, ok = self.entity(entry, value_node, at)
            if entry is Feature:
                declared[name] = _declared_kind(values)
            if ok:
                out[name] = entry(name=name, **values)
        return out

    def name_list(self, node, path: str, entry) -> tuple[str, ...]:
        """Names declared in a catalog; malformed items are reported before unknown names."""
        if not isinstance(node, SequenceNode):
            self.err(node, path, ErrorKind.TYPE_MISMATCH, "expected a list of names")
            return ()
        items = []
        for item in node.value:
            if isinstance(item, ScalarNode):
                items.append(item)
            else:
                self.err(item, path, ErrorKind.TYPE_MISMATCH, "expected a name")
        declared = self.declared[entry]
        out = []
        for item in items:
            if item.value in declared:
                out.append(item.value)
            else:
                self.err(item, path, ErrorKind.DANGLING_REFERENCE, unknown(entry, item.value))
        return tuple(out)

    def value_map(self, node, path: str, holds: Values) -> dict:
        """Values by names declared in a catalog, each written {value: ...}; those that read."""
        out = {}
        items = self.mapping(node, path)
        if items is None:
            return out
        declared = self.declared[holds.entry]
        read = _SCALARS.get(holds.holds)
        for name, key_node, value_node in items:
            at = f"{path}.{name}"
            if name not in declared:
                self.err(key_node, at, ErrorKind.DANGLING_REFERENCE, unknown(holds.entry, name))
                continue
            wrapper = self.fields(value_node, at, (WRAPPED_KEY,))
            if wrapper is None:
                continue
            at = f"{at}.{WRAPPED_KEY}"
            if WRAPPED_KEY not in wrapper:
                self.err(value_node, at, ErrorKind.MISSING_REQUIRED,
                         f"missing required key {WRAPPED_KEY!r}")
                continue
            inner = wrapper[WRAPPED_KEY][1]
            if read is None:  # feature values, of each feature's declared kind
                value = self.feature_value(inner, at, declared[name])
            else:
                value = read(self, inner, at)
            if value is not None:
                out[name] = value
        return out


def _declared_kind(values: dict) -> ValueKind | None:
    """The kind of a feature's values: known once its type and value type have read."""
    if values.get("feature_type") is None:
        return None
    return values.get("value_kind", Feature.value_kind)


# How the walk reads each scalar a field may hold; feature values, whose
# kind depends on the feature, are read by ``entity`` and ``value_map``.
_SCALARS = {
    **{holds: partial(_Reader.string, holds=holds) for holds in (str, NONBLANK, CURRENCY)},
    **{holds: partial(_Reader.decimal, holds=holds) for holds in (Decimal, POSITIVE)},
    int: _Reader.count,
    **{enum: partial(_Reader.enum, enum_cls=enum)
       for enum in (FeatureType, ValueKind, LimitKind, PeriodUnit)},
}


def _reader_of(holds):
    """How the walk reads what a field holds: a function of (reader, node, path)."""
    if holds in _SCALARS:
        return _SCALARS[holds]
    if type(holds) is Names:
        return partial(_Reader.name_list, entry=holds.entry)
    if type(holds) is Values:
        return partial(_Reader.value_map, holds=holds)
    if holds in ENTRIES:
        return partial(_Reader.catalog, entry=holds)
    return partial(_Reader.nested, entity=holds)


def _is_nested(field) -> bool:
    return not (field.holds in _SCALARS or field.holds is FeatureValue)


# The fields of each entity a document holds, in the order the walk reads
# them, as (key, attribute, what it holds, whether it is required, reader).
_WALK = {
    entity: tuple((field.key, field.attr, field.holds, not field.omit, _reader_of(field.holds))
                  for field in sorted(FIELDS[entity], key=_is_nested))
    for entity in (Pricing, Period, *ENTRIES)
}


# -- canonical serialization ------------------------------------------------

_PLAIN_BODY_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_ .,'()/+\-]*")


def _plain_safe(text: str) -> bool:
    if not _PLAIN_BODY_RE.fullmatch(text) or text.endswith(" "):
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
    for key, attr, _, _, omit in fields:
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
