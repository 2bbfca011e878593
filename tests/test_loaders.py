"""libyaml and the pure-Python loader give every text the same outcome.

``parse`` composes on libyaml when PyYAML has it and reads some texts with
the pure loader only. It recomputes with the pure loader every YAML error
and every schema error located at an empty plain scalar; other schema
errors it reports from libyaml's nodes. These tests hold the default path
to the pure loader's outcome: the same canonical text, or the same errors
with the same marks and messages. Both of ``parse``'s loaders resolve no
tags; they are held to PyYAML's own loaders of the same kind, which are
left as they were.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import pricebook
from pricebook import DocumentError, ModelError, Pricing, parse, serialize, yamlio

from test_cli_fuzz import DOC_LINES, EDGE_TEXT

ZOOM_LINES = (Path(__file__).resolve().parent.parent / "fixtures" / "zoom.yml") \
    .read_text(encoding="utf-8").split("\n")

# Characters and tokens on which the two loaders part ways or that move
# error marks, next to ordinary YAML punctuation.
TRICKY = ["\t", "\x85", "\u2028", "\u2029", "\ufeff", "?", "---", "!", "\ud800",
          "\r", "\n", " ", ":", "- ", "[", "]", "{", "}", ",", "#", "'", '"', "&a ",
          "*a", "|", ">", "...", "%YAML 1.1\n", "x", "1"]


def outcome(text):
    """What parse makes of a text: canonical text, or the error lines."""
    try:
        return serialize(parse(text))
    except DocumentError as exc:
        return [str(e) for e in exc.errors]


def pure_outcome(text):
    saved = yamlio._LIBYAML_LOADER
    yamlio._LIBYAML_LOADER = None
    try:
        return outcome(text)
    finally:
        yamlio._LIBYAML_LOADER = saved


@st.composite
def mutated_zoom(draw, tokens=TRICKY):
    lines = list(ZOOM_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from(tokens)) + lines[i][j:]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    mutated_zoom(),
    st.lists(st.sampled_from(TRICKY + ["a", "b: ", "\n  "]), max_size=40).map("".join),
))
def test_same_outcome_as_pure_loader(text):
    assert outcome(text) == pure_outcome(text)


def fuzz_documents():
    """The CLI fuzz document with each line taking, in turn, each value of
    its alphabet, which leaves most documents with a single error or none."""
    for i, line in enumerate(DOC_LINES):
        key, colon, _ = line.partition(":")
        for value in EDGE_TEXT + ["", "- x", "\t", "?"] if colon else ():
            yield "\n".join([*DOC_LINES[:i], f"{key}: {value}", *DOC_LINES[i + 1:]])


@pytest.mark.parametrize("pure", [False, True], ids=["default", "pure"])
def test_parsed_documents_never_reach_the_model_safety_net(pure):
    # Parser and model share their rules, so ``_Reader.read``'s ``except
    # ModelError`` is never taken: a document that reads builds its Pricing.
    refused = []
    check = Pricing.__post_init__

    def recording(pricing):
        try:
            check(pricing)
        except ModelError as exc:
            refused.append(exc)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Pricing, "__post_init__", recording)
        for text in fuzz_documents():
            (pure_outcome if pure else outcome)(text)
    assert refused == []


MINIMAL = (Path(__file__).resolve().parent.parent / "fixtures" / "minimal.yml") \
    .read_text(encoding="utf-8")
WITH_ADD_ON = MINIMAL + ("addOns:\n  extra:\n    price: 1\n    availableFor: [FREE]\n"
                         "    features:\n      basicNotes:\n        value: true\n")


@pytest.mark.parametrize("text", [
    pytest.param(MINIMAL.replace("currency: EUR", "currency: EUR\t"), id="trailing-tab"),
    pytest.param(MINIMAL.replace("currency: EUR", "currency: EUR\t# c"), id="tab-before-comment"),
    pytest.param(MINIMAL.replace("  basicNotes:\n    type: DOMAIN\n",
                                 "  basicNotes: {type: DOMAIN, description: what?}\n"
                                 "  moreNotes:\n    type: DOMAIN\n"), id="question-in-flow"),
    pytest.param(MINIMAL.replace("  FREE:", "\ufeff  FREE:"), id="bom-at-line-start"),
    pytest.param(MINIMAL + "\ufeff", id="bom-at-end"),
    pytest.param("\ufeff" + MINIMAL, id="bom-first"),
    pytest.param(MINIMAL.replace("MiniNotes", "Mini\x85Notes"), id="nel"),
    pytest.param(MINIMAL.replace("MiniNotes", "'Mini\u2028Notes'"), id="ls"),
    pytest.param(MINIMAL.replace("MiniNotes", '"Mini\u2029Notes"'), id="ps"),
    pytest.param("---\n" + MINIMAL, id="document-start"),
    pytest.param(MINIMAL + "---\n", id="second-document"),
    pytest.param(MINIMAL.replace("features:", "---\nfeatures:"), id="split-document"),
    pytest.param(MINIMAL.replace("MiniNotes", "Mini\ud800"), id="lone-surrogate"),
    pytest.param(MINIMAL.replace("MiniNotes", "!~!!str MiniNotes"), id="malformed-tag"),
    pytest.param(WITH_ADD_ON.replace("[FREE]", "[!FREE, FREE]"), id="tag-in-flow"),
    pytest.param(MINIMAL.replace("MiniNotes", ">#c\n  MiniNotes"), id="folded-header-comment"),
    pytest.param(MINIMAL.replace("MiniNotes", "|-#c\n  MiniNotes"), id="literal-header-comment"),
    pytest.param(MINIMAL.replace("MiniNotes", "|+2#c\n   MiniNotes"), id="header-indicators-comment"),
    # errors at empty plain scalars, whose marks libyaml places elsewhere
    pytest.param("---", id="bare-document-start"),
    pytest.param(MINIMAL.replace("  FREE:\n    price: 0", "  FREE: {price: , x: 1}"),
                 id="empty-flow-value"),
    pytest.param(MINIMAL.replace("  FREE:\n    price: 0", "  FREE: {price:\n    }"),
                 id="flow-key-at-line-end"),
])
def test_same_outcome_on_known_differences(text):
    assert outcome(text) == pure_outcome(text)


def node_graph(node, seen=None):
    """What the walk reads of a node and everything under it: class, value,
    whether it is styled, and start mark. Empty plain scalars compare equal
    wherever they start; an alias reads as the index of the node it names."""
    seen = {} if seen is None else seen
    if node is None:
        return None
    if id(node) in seen:
        return seen[id(node)]
    seen[id(node)] = len(seen)
    if isinstance(node, yaml.ScalarNode) and not node.value and not node.style:
        return "empty"
    mark = node.start_mark
    head = (type(node).__name__, mark.line, mark.column)
    if isinstance(node, yaml.ScalarNode):
        return head + (bool(node.style), node.value)
    if isinstance(node, yaml.SequenceNode):
        return head + tuple(node_graph(item, seen) for item in node.value)
    return head + tuple((node_graph(key, seen), node_graph(value, seen))
                        for key, value in node.value)


# Tokens that part the two loaders or move marks, as widened for the graphs.
GRAPH_TOKENS = TRICKY + ["!", ">#", "|-#", "{a: , b: c}", "[a: , b]", "[a:\n]", ": ",
                         "---\n", "%TAG ! tag:x,1:\n", "!~", "a!", "'a'!"]


@pytest.mark.skipif(yamlio._LIBYAML_LOADER is None, reason="PyYAML is built without libyaml")
@settings(max_examples=400, deadline=None)
@given(st.one_of(
    mutated_zoom(GRAPH_TOKENS),
    st.lists(st.sampled_from(GRAPH_TOKENS + ["a", "b: ", "\n  "]), max_size=40).map("".join),
))
def test_libyaml_composes_the_pure_loaders_node_graph(text):
    # parse reports schema errors from libyaml's nodes, so on every text it
    # hands libyaml and libyaml composes, the pure loader composes the same.
    if not yamlio._libyaml_agrees(text):
        return
    try:
        root = yaml.compose(text, Loader=yamlio._LIBYAML_LOADER)
    except (yaml.YAMLError, UnicodeError):
        return
    assert node_graph(root) == node_graph(yaml.compose(text, Loader=yaml.SafeLoader))


# pricebook's loaders, which resolve no tags, next to PyYAML's own of the same kind.
UNTAGGED_AND_STOCK = [pytest.param(yamlio._PURE_LOADER, yaml.SafeLoader, id="pure")]
if yamlio._LIBYAML_LOADER is not None:
    UNTAGGED_AND_STOCK.insert(
        0, pytest.param(yamlio._LIBYAML_LOADER, yaml.CSafeLoader, id="libyaml"))


def read_outcome(text, loader):
    """What the walk makes of a text composed on ``loader``: canonical text,
    the error lines, or the YAML error."""
    try:
        root = yaml.compose(text, Loader=loader)
    except (yaml.YAMLError, UnicodeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    try:
        return serialize(yamlio._Reader().read(root))
    except DocumentError as exc:
        return [str(e) for e in exc.errors]


@pytest.mark.parametrize("untagged, stock", UNTAGGED_AND_STOCK)
def test_untagged_loaders_read_as_the_stock_ones_on_the_fuzz_documents(untagged, stock):
    # The walk never reads a node's tag, so resolving none changes nothing.
    for text in fuzz_documents():
        assert read_outcome(text, untagged) == read_outcome(text, stock), text


@pytest.mark.parametrize("untagged, stock", UNTAGGED_AND_STOCK)
@settings(max_examples=150, deadline=None)
@given(text=mutated_zoom(GRAPH_TOKENS))
def test_untagged_loaders_read_as_the_stock_ones_on_mutated_texts(untagged, stock, text):
    assert read_outcome(text, untagged) == read_outcome(text, stock)


@pytest.mark.parametrize("pure", [False, True], ids=["default", "pure"])
def test_parse_resolves_no_tags(zoom_text, pure, monkeypatch):
    calls = []
    for name in ("resolve", "descend_resolver", "ascend_resolver"):
        def counting(self, *args, _name=name, _method=getattr(yaml.resolver.BaseResolver, name)):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(yaml.resolver.BaseResolver, name, counting)
    if pure:
        monkeypatch.setattr(yamlio, "_LIBYAML_LOADER", None)
    parse(zoom_text)
    assert calls == []
    # the probes do count: PyYAML's own loader of the same kind resolves every node
    stock = yaml.SafeLoader if yamlio._LIBYAML_LOADER is None else yaml.CSafeLoader
    yaml.compose(zoom_text, Loader=stock)
    assert {"resolve", "descend_resolver", "ascend_resolver"} <= set(calls)


@pytest.mark.parametrize("stock", [
    yaml.SafeLoader,
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader", marks=pytest.mark.skipif(
        yamlio._LIBYAML_LOADER is None, reason="PyYAML is built without libyaml")),
], ids=lambda loader: getattr(loader, "__name__", None))
def test_importing_pricebook_leaves_pyyaml_as_it_was(stock):
    for name in ("resolve", "descend_resolver", "ascend_resolver"):
        assert getattr(stock, name) is getattr(yaml.resolver.BaseResolver, name)
    assert yaml.compose("1", Loader=stock).tag == "tag:yaml.org,2002:int"
    assert yaml.load("a: 1", Loader=stock) == {"a": 1}
    assert yaml.safe_load("a: 1") == {"a": 1}


def _block_nest(width):
    """Nesting two levels per column: mapping, indentless sequence, ..."""
    return "".join(f"{' ' * i}a:\n{' ' * i}-\n" for i in range(width))


@pytest.mark.parametrize("text", [
    pytest.param("[" * 255 + "]" * 255, id="flow-at-bound"),
    pytest.param("[" * 256 + "]" * 256, id="flow-past-bound"),
    pytest.param(_block_nest(63), id="block-at-bound"),
    pytest.param(_block_nest(64), id="block-past-bound"),
    pytest.param(_block_nest(63).replace("\n", "\r"), id="block-at-bound-cr"),
    pytest.param(_block_nest(64).replace("\n", "\r"), id="block-past-bound-cr"),
    pytest.param(_block_nest(63) + " " * 63 + "[" * 250 + "]" * 250, id="both-at-bound"),
])
def test_same_outcome_at_the_nesting_bounds(text):
    assert outcome(text) == pure_outcome(text)


def loaders_composing(text, monkeypatch):
    """The loaders ``parse`` composes a text on, in order."""
    loaders = []
    compose = yaml.compose

    def recording(text, Loader):
        loaders.append(Loader)
        return compose(text, Loader=Loader)

    monkeypatch.setattr(yaml, "compose", recording)
    parse(text)
    return loaders


@pytest.mark.skipif(yamlio._LIBYAML_LOADER is None, reason="PyYAML is built without libyaml")
def test_plain_documents_compose_on_libyaml(zoom_text, monkeypatch):
    assert loaders_composing(zoom_text, monkeypatch) == [yamlio._LIBYAML_LOADER]


@pytest.mark.skipif(yamlio._LIBYAML_LOADER is None, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("text", [
    pytest.param(MINIMAL.replace("MiniNotes", "Mini!Notes"), id="plain"),
    pytest.param(MINIMAL.replace("MiniNotes", "'Great value!'"), id="quoted"),
    pytest.param(MINIMAL + "# no tags here!\n", id="comment"),
])
def test_exclamation_marks_inside_text_compose_on_libyaml(text, monkeypatch):
    # "!" opens a tag only where a token may start; anywhere else the pure
    # loader need not read the document.
    assert loaders_composing(text, monkeypatch) == [yamlio._LIBYAML_LOADER]


def test_deep_nesting_is_a_syntax_error_in_a_child_process():
    # libyaml's composer recurses in C without a limit; had parse handed it
    # these texts, the crash would kill the test run, hence a child process.
    script = (
        "from pricebook import DocumentError, parse\n"
        "for text in ['[' * 100_000, '- ' * 100_000 + 'x', '{a: ' * 100_000,\n"
        "             '\\r' + '- ' * 100_000 + 'x', '# c\\r' + '- ' * 100_000 + 'x']:\n"
        "    try:\n"
        "        parse(text)\n"
        "    except DocumentError as exc:\n"
        "        print(*exc.errors, sep='|')\n"
    )
    src = str(Path(pricebook.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["1:1 (root): SYNTAX: document nesting is too deep"] * 5
