"""libyaml and the pure-Python loader give every text the same outcome.

``parse`` composes on libyaml when PyYAML has it, reads some texts with the
pure loader only, and recomputes every failure with the pure loader. These
tests hold the default path to the pure loader's outcome: the same
canonical text, or the same errors with the same marks and messages.
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
def mutated_zoom(draw):
    lines = list(ZOOM_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from(TRICKY)) + lines[i][j:]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    mutated_zoom(),
    st.lists(st.sampled_from(TRICKY + ["a", "b: ", "\n  "]), max_size=40).map("".join),
))
def test_same_outcome_as_pure_loader(text):
    assert outcome(text) == pure_outcome(text)


@pytest.mark.parametrize("pure", [False, True], ids=["default", "pure"])
def test_parsed_documents_never_reach_the_model_safety_net(pure):
    # Parser and model share their rules, so ``_read``'s ``except
    # ModelError`` is never taken: a document that reads builds its Pricing.
    # Each line of the CLI fuzz document takes, in turn, each value of its
    # alphabet, which leaves most documents with a single error or none.
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
        for i, line in enumerate(DOC_LINES):
            key, colon, _ = line.partition(":")
            for value in EDGE_TEXT + ["", "- x", "\t", "?"] if colon else ():
                lines = [*DOC_LINES[:i], f"{key}: {value}", *DOC_LINES[i + 1:]]
                (pure_outcome if pure else outcome)("\n".join(lines))
    assert refused == []


MINIMAL = (Path(__file__).resolve().parent.parent / "fixtures" / "minimal.yml") \
    .read_text(encoding="utf-8")


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
])
def test_same_outcome_on_known_differences(text):
    assert outcome(text) == pure_outcome(text)


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


@pytest.mark.skipif(yamlio._LIBYAML_LOADER is None, reason="PyYAML is built without libyaml")
def test_plain_documents_compose_on_libyaml(zoom_text, monkeypatch):
    loaders = []
    compose = yaml.compose

    def recording(text, Loader):
        loaders.append(Loader)
        return compose(text, Loader=Loader)

    monkeypatch.setattr(yaml, "compose", recording)
    parse(zoom_text)
    assert loaders == [yamlio._LIBYAML_LOADER]


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
