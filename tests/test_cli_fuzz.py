"""No input makes the command line exit with a traceback.

A bounded hypothesis search over mutated documents, mutated state files,
``--amount`` and ``--at`` calls ``cli.main`` in this process, with no
child processes: every run must return an exit code in 0-4 and leave no
traceback on stderr.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricebook import create_subscription, parse, parse_instant, subscription_to_json
from pricebook.cli import main

from support import DAILY_DOC

DOC = DAILY_DOC + """  Q:
    price: 2
    features:
      calls:
        value: true
addOns:
  more:
    price: 1
    availableFor: [Q]
    usageLimitExtensions:
      callsPerDay:
        value: 5
"""
DOC_LINES = DOC.split("\n")
PRICING = parse(DOC)
STATE = json.loads(subscription_to_json(PRICING, create_subscription(
    PRICING, "Q", ["more"], parse_instant("2024-01-31T12:00:00Z"))))

# Scalars at the edges of what each field accepts, next to plain garbage.
EDGE_TEXT = ["0", "1", "-1", "1.5", "9" * 5000, "0" * 5000 + "1", "1e1000", "1e1001",
             "1e999999999", "1e-999999999", "NaN", "sNaN", "Infinity", ".inf", "true", "''",
             "~", "[1, 2]", "{a: 1}", "DAY", "YEAR", "P", "Q", "more", "calls", "callsPerDay",
             "9999-12-31T23:59:59Z", "0001-01-01T00:00:00Z", "2024-02-30T00:00:00Z",
             "9999-12-31T23:00:00-05:00", "2024-01-31T12:00:00.5Z", "2024-03-01T00:00:00"]
INSTANTS = st.one_of(st.sampled_from(EDGE_TEXT), st.text(max_size=25))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(EDGE_TEXT),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=2),
    max_leaves=4,
)


@st.composite
def documents(draw):
    lines = list(DOC_LINES)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key, colon, _ = lines[i].partition(":")
        replacement = draw(st.sampled_from(EDGE_TEXT + ["", "- x", "\t", "?"]))
        lines[i] = f"{key}{colon} {replacement}" if colon else replacement
    return "\n".join(lines)


@st.composite
def states(draw):
    state = json.loads(json.dumps(STATE))
    for _ in range(draw(st.integers(0, 2))):
        target = state
        for key in draw(st.sampled_from([(), ("usage", "callsPerDay"), ("contractPeriod",)])):
            target = target[key] if isinstance(target, dict) and key in target else None
        if isinstance(target, dict):
            key = draw(st.sampled_from(sorted(target) + ["windowIndex", "extra"]))
            target[key] = draw(JSON_VALUES)
    text = json.dumps(state)
    if draw(st.booleans()):
        # integers Python will not read from text, a cut file, or nesting
        # deeper than the interpreter's recursion limit
        text = draw(st.sampled_from([
            text.replace('"windowIndex": 0', '"windowIndex": ' + "9" * 5000),
            text.replace('"value": 1', '"value": ' + "9" * 5000),
            text[:len(text) // 2],
            "[" * 1000 + "]" * 1000,
            text.replace('"used": "0"', '"used": ' + '{"a": ' * 5000 + "0" + "}" * 5000),
        ]))
    return text


def commands(doc, base, state):
    at = st.one_of(st.just([]), INSTANTS.map(lambda value: ["--at", value]))
    amount = st.one_of(st.sampled_from(EDGE_TEXT), st.decimals().map(str), st.text(max_size=10))
    return st.one_of(
        st.just(["validate", doc]),
        st.just(["stats", doc, "--format", "json"]),
        at.map(lambda a: ["evaluate", doc, "--plan", "Q", "--addons", "more", "--all", *a]),
        at.map(lambda a: ["evaluate", doc, "--subscription", state, "--feature", "calls", *a]),
        st.tuples(amount, at).map(lambda t: ["consume", doc, "--subscription", state, "--limit",
                                             "callsPerDay", "--amount", t[0], *t[1]]),
        st.just(["diff", base, doc, "--impact", state]),
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "base.yml").write_text(DOC, encoding="utf-8")
    return {name: str(root / name) for name in ("doc.yml", "base.yml", "state.json")}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), doc=documents(), state=states())
def test_cli_exits_with_a_code_and_no_traceback(files, data, doc, state):
    with open(files["doc.yml"], "w", encoding="utf-8") as fh:
        fh.write(doc)
    with open(files["state.json"], "w", encoding="utf-8") as fh:
        fh.write(state)
    argv = data.draw(commands(files["doc.yml"], files["base.yml"], files["state.json"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
