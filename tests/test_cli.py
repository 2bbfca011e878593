"""Command-line behavior: outputs, exit codes, state-file handling."""

import json
import os
import stat
from decimal import Decimal
from pathlib import Path

import pytest

from pricebook import create_subscription, parse, parse_instant, serialize, subscription_to_json
from pricebook.cli import main

from support import DAILY_DOC, SHARED_PERIODS_DOC, from_raw, to_raw

T0 = "2024-01-31T12:00:00Z"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def zoom_file(zoom_path):
    return str(zoom_path)


@pytest.fixture()
def state_file(tmp_path, zoom):
    sub = create_subscription(zoom, "PRO", ["hugeMeetings"], parse_instant(T0))
    path = tmp_path / "state.json"
    path.write_text(subscription_to_json(zoom, sub), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_fixture(self, capsys, zoom_file):
        code, out, err = run(capsys, "validate", zoom_file)
        assert (code, out.strip(), err) == (0, "valid", "")

    def test_json_report(self, capsys, zoom_file):
        code, out, _ = run(capsys, "validate", zoom_file, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_violations_exit_1(self, capsys, tmp_path, zoom):
        raw = to_raw(zoom)
        raw["plans"]["PRO2"] = {
            "price": Decimal("19.99"),
            "features": dict(raw["plans"]["PRO"]["features"]),
            "usageLimits": dict(raw["plans"]["PRO"]["usageLimits"]),
        }
        bad = tmp_path / "dup.yml"
        bad.write_text(serialize(from_raw(raw)), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "R1_DUPLICATE_PLANS" in out

    def test_parse_errors_exit_2_with_locations(self, capsys, tmp_path):
        bad = tmp_path / "broken.yml"
        bad.write_text("saasName: [unclosed\n", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "broken.yml:" in err

    def test_number_exponent_out_of_range_exit_2(self, capsys, tmp_path, zoom_text):
        bad = tmp_path / "huge.yml"
        bad.write_text(zoom_text.replace("price: 15.99", "price: 1e999999999", 1),
                       encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert "plans.PRO.price: TYPE_MISMATCH" in err and "exponent" in err

    def test_period_value_of_5000_digits_exit_2(self, capsys, tmp_path, minimal_path):
        literal = "9" * 5000
        bad = tmp_path / "long.yml"
        bad.write_text(minimal_path.read_text(encoding="utf-8")
                       .replace("  value: 1\n", f"  value: {literal}\n", 1), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert "billingPeriod.value: TYPE_MISMATCH" in err and literal not in err

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "validate", "does_not_exist.yml")
        assert code == 3
        assert "cannot read" in err

    def test_bad_flags_exit_3(self, capsys, zoom_file):
        code, _, err = run(capsys, "validate", zoom_file, "--format", "xml")
        assert code == 3


class TestEvaluate:
    def test_single_feature(self, capsys, zoom_file):
        code, out, _ = run(capsys, "evaluate", zoom_file,
                           "--plan", "BASIC", "--feature", "chatSupport")
        assert code == 0
        payload = json.loads(out)
        assert payload["enabled"] is False

    def test_extension_reaches_1000(self, capsys, zoom_file):
        code, out, _ = run(capsys, "evaluate", zoom_file, "--plan", "PRO",
                           "--addons", "hugeMeetings", "--feature", "onlineMeetings")
        assert code == 0
        limits = {l["limit"]: l for l in json.loads(out)["limits"]}
        assert limits["maxAssistantsPerMeeting"]["effective"] == "1000"

    def test_all_emits_context(self, capsys, zoom_file):
        code, out, _ = run(capsys, "evaluate", zoom_file, "--plan", "BASIC", "--all")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 12
        enabled = {name for name, result in payload.items() if result["enabled"]}
        assert enabled == {"onlineMeetings", "automatedSubtitles", "endToEndEncryption"}

    def test_unknown_plan_exit_4(self, capsys, zoom_file):
        code, _, err = run(capsys, "evaluate", zoom_file, "--plan", "NOPE", "--all")
        assert code == 4
        assert "unknown plan" in err

    def test_unknown_feature_exit_4(self, capsys, zoom_file):
        code, _, err = run(capsys, "evaluate", zoom_file,
                           "--plan", "BASIC", "--feature", "nope")
        assert code == 4

    def test_with_subscription_state(self, capsys, zoom_file, state_file):
        code, out, _ = run(capsys, "evaluate", zoom_file,
                           "--subscription", state_file, "--feature", "hugeMeetings")
        assert code == 0
        assert json.loads(out)["enabled"] is True

    def test_subscription_conflicts_with_plan(self, capsys, zoom_file, state_file):
        code, _, err = run(capsys, "evaluate", zoom_file, "--subscription", state_file,
                           "--plan", "PRO", "--all")
        assert code == 3


class TestConsume:
    def test_accepts_and_persists(self, capsys, zoom_file, state_file):
        code, out, _ = run(capsys, "consume", zoom_file, "--subscription", state_file,
                           "--limit", "maxAssistantsPerMeeting", "--amount", "10",
                           "--at", "2024-02-01T00:00:00Z")
        assert code == 0
        assert out.strip() == "990"
        state = json.loads(Path(state_file).read_text())
        assert state["usage"]["maxAssistantsPerMeeting"]["used"] == "10"

    def test_quota_exceeded_leaves_file_untouched(self, capsys, zoom_file, state_file):
        before = Path(state_file).read_bytes()
        code, _, err = run(capsys, "consume", zoom_file, "--subscription", state_file,
                           "--limit", "maxAssistantsPerMeeting", "--amount", "1001",
                           "--at", "2024-02-01T00:00:00Z")
        assert code == 4
        assert "quota exceeded" in err
        assert Path(state_file).read_bytes() == before

    def test_window_lapse_across_invocations(self, capsys, zoom_file, state_file):
        code, out, _ = run(capsys, "consume", zoom_file, "--subscription", state_file,
                           "--limit", "maxAssistantsPerMeeting", "--amount", "1000",
                           "--at", "2024-02-01T00:00:00Z")
        assert (code, out.strip()) == (0, "0")
        # next calendar window (anchored Jan-31 -> Feb-29 in a leap year)
        code, out, _ = run(capsys, "consume", zoom_file, "--subscription", state_file,
                           "--limit", "maxAssistantsPerMeeting", "--amount", "1",
                           "--at", "2024-02-29T12:00:00Z")
        assert (code, out.strip()) == (0, "999")
        state = json.loads(Path(state_file).read_text())
        entry = state["usage"]["maxAssistantsPerMeeting"]
        assert entry == {"used": "1", "windowStart": "2024-02-29T12:00:00Z", "windowIndex": 1}

    def test_amount_exponent_out_of_range_exit_3(self, capsys, zoom_file, state_file):
        before = Path(state_file).read_bytes()
        for amount in ("1e1001", "1e-1001", "1e999999999", "1e-999999999"):
            code, out, err = run(capsys, "consume", zoom_file, "--subscription", state_file,
                                 "--limit", "maxAssistantsPerMeeting", "--amount", amount,
                                 "--at", "2024-02-01T00:00:00Z")
            assert (code, out) == (3, "")
            assert err.startswith("error: --amount") and "exponent" in err
        assert Path(state_file).read_bytes() == before

    def test_malformed_state_exit_3(self, capsys, zoom_file, tmp_path):
        bad = tmp_path / "state.json"
        bad.write_text("{\"saasName\": \"Other\"}", encoding="utf-8")
        code, _, err = run(capsys, "consume", zoom_file, "--subscription", str(bad),
                           "--limit", "maxAssistantsPerMeeting", "--amount", "1")
        assert code == 3

    def test_state_field_of_the_wrong_type_exit_3(self, capsys, zoom_file, state_file):
        state = json.loads(Path(state_file).read_text(encoding="utf-8"))
        for key, value in [("startInstant", None), ("plan", ["PRO"]), ("addOns", [{"a": 1}])]:
            with open(state_file, "w", encoding="utf-8") as fh:
                json.dump({**state, key: value}, fh)
            code, out, err = run(capsys, "consume", zoom_file, "--subscription", state_file,
                                 "--limit", "maxAssistantsPerMeeting", "--amount", "1")
            assert (code, out) == (3, "")
            assert err.startswith(f"error: {state_file}: ")

    def test_state_contract_period_out_of_range_exit_3_naming_the_file(self, capsys, zoom_file,
                                                                        state_file):
        state = json.loads(Path(state_file).read_text(encoding="utf-8"))
        for value in (0, 1.5, True, 10**1200):
            with open(state_file, "w", encoding="utf-8") as fh:
                json.dump({**state, "contractPeriod": {"value": value, "unit": "MONTH"}}, fh)
            code, out, err = run(capsys, "consume", zoom_file, "--subscription", state_file,
                                 "--limit", "maxAssistantsPerMeeting", "--amount", "1")
            assert (code, out) == (3, "")
            assert err == f"error: {state_file}: contractPeriod must be {{value, unit}}\n"

    def test_meters_against_a_document_with_violations(self, capsys, tmp_path, zoom,
                                                       state_file):
        # consume does not validate; evaluate refuses the same document
        raw = to_raw(zoom)
        raw["plans"]["PRO2"] = dict(raw["plans"]["PRO"])  # R1: a duplicate of PRO
        dup = tmp_path / "dup.yml"
        dup.write_text(serialize(from_raw(raw)), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(dup))
        assert code == 1 and "R1_DUPLICATE_PLANS" in out
        code, out, err = run(capsys, "consume", str(dup), "--subscription", state_file,
                             "--limit", "maxAssistantsPerMeeting", "--amount", "10",
                             "--at", "2024-02-01T00:00:00Z")
        assert (code, out, err) == (0, "990\n", "")
        state = json.loads(Path(state_file).read_text(encoding="utf-8"))
        assert state["usage"]["maxAssistantsPerMeeting"]["used"] == "10"
        assert run(capsys, "evaluate", str(dup), "--subscription", state_file, "--all")[0] == 1

    @pytest.mark.parametrize("mode", [0o644, 0o640], ids=oct)
    def test_keeps_the_state_file_mode(self, capsys, zoom_file, state_file, mode):
        os.chmod(state_file, mode)
        code, out, _ = run(capsys, "consume", zoom_file, "--subscription", state_file,
                           "--limit", "maxAssistantsPerMeeting", "--amount", "1")
        assert (code, out) == (0, "999\n")
        assert stat.S_IMODE(os.stat(state_file).st_mode) == mode
        state = json.loads(Path(state_file).read_text(encoding="utf-8"))
        assert state["usage"]["maxAssistantsPerMeeting"]["used"] == "1"

    def test_interrupted_write_preserves_state(self, capsys, zoom_file, state_file,
                                               monkeypatch):
        before = Path(state_file).read_bytes()

        def boom(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(KeyboardInterrupt):
            main(["consume", zoom_file, "--subscription", state_file,
                  "--limit", "maxAssistantsPerMeeting", "--amount", "5"])
        monkeypatch.undo()
        assert Path(state_file).read_bytes() == before
        json.loads(before)  # still parseable
        leftovers = [f for f in os.listdir(os.path.dirname(state_file))
                     if f.endswith(".tmp")]
        assert leftovers == []


class TestDiff:
    def test_identical_files(self, capsys, zoom_file):
        code, out, _ = run(capsys, "diff", zoom_file, zoom_file)
        assert (code, out) == (0, "")

    def test_threshold_change_line(self, capsys, zoom_file, tmp_path, zoom):
        raw = to_raw(zoom)
        raw["plans"]["PRO"]["usageLimits"]["maxAssistantsPerMeeting"] = Decimal(300)
        new = tmp_path / "new.yml"
        new.write_text(serialize(from_raw(raw)), encoding="utf-8")
        code, out, _ = run(capsys, "diff", zoom_file, str(new))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "kind": "LimitThresholdChanged", "scope": "PRO",
            "limit": "maxAssistantsPerMeeting", "old": "100", "new": "300",
        }

    def test_impact_filter_empty_for_untouched_plan(self, capsys, zoom_file, tmp_path, zoom):
        raw = to_raw(zoom)
        raw["plans"]["PRO"]["usageLimits"]["maxAssistantsPerMeeting"] = Decimal(300)
        new = tmp_path / "new.yml"
        new.write_text(serialize(from_raw(raw)), encoding="utf-8")
        basic_state = tmp_path / "basic.json"
        basic_state.write_text(
            subscription_to_json(zoom, create_subscription(zoom, "BASIC", [], parse_instant(T0))),
            encoding="utf-8")
        code, out, _ = run(capsys, "diff", zoom_file, str(new),
                           "--impact", str(basic_state))
        assert (code, out) == (0, "")

    def test_parse_failure_exit_2(self, capsys, zoom_file, tmp_path):
        bad = tmp_path / "bad.yml"
        bad.write_text(":\n", encoding="utf-8")
        code, _, _ = run(capsys, "diff", zoom_file, str(bad))
        assert code == 2


class TestStats:
    def test_json_matches_fixture(self, capsys, zoom_file):
        code, out, _ = run(capsys, "stats", zoom_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["plans"] == 3
        assert payload["addOns"] == 2
        assert payload["planManagedFeatures"] == 10
        assert payload["addOnFeatureCounts"] == {"hugeMeetings": 1, "extraStorage": 1}

    def test_text_output(self, capsys, zoom_file):
        code, out, _ = run(capsys, "stats", zoom_file)
        assert code == 0
        assert "plans: 3" in out

    def test_minimal_histogram_has_single_entry(self, capsys, minimal_path):
        code, out, _ = run(capsys, "stats", str(minimal_path), "--format", "json")
        assert code == 0
        histogram = json.loads(out)["featureTypes"]
        assert {name: count for name, count in histogram.items() if count} == {"DOMAIN": 1}

    def test_determinism(self, capsys, zoom_file):
        first = run(capsys, "stats", zoom_file, "--format", "json")
        second = run(capsys, "stats", zoom_file, "--format", "json")
        assert first == second


class TestCalendarEnd:
    def test_evaluate_at_the_last_day(self, capsys, zoom_file):
        code, out, err = run(capsys, "evaluate", zoom_file, "--plan", "PRO", "--all",
                             "--at", "9999-12-31T00:00:00Z")
        assert (code, err) == (0, "")
        assert len(json.loads(out)) == 12

    def test_instant_past_the_calendar_exit_3(self, capsys, zoom_file):
        code, out, err = run(capsys, "evaluate", zoom_file, "--plan", "PRO", "--all",
                             "--at", "9999-12-31T23:00:00-05:00")
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    def test_window_index_past_the_calendar_exit_3(self, capsys, tmp_path):
        doc = tmp_path / "daily.yml"
        doc.write_text(DAILY_DOC, encoding="utf-8")
        pricing = parse(DAILY_DOC)
        sub = create_subscription(pricing, "P", [], parse_instant(T0))
        state = tmp_path / "state.json"
        state.write_text(subscription_to_json(pricing, sub).replace(
            '"windowIndex": 0', '"windowIndex": 1000000000000'), encoding="utf-8")
        code, out, err = run(capsys, "consume", str(doc), "--subscription", str(state),
                             "--limit", "callsPerDay", "--amount", "1")
        assert (code, out) == (3, "")
        assert "windowIndex" in err

    @pytest.fixture()
    def early_state(self, tmp_path, zoom):
        """A valid state file whose subscription starts in the year 999."""
        state = json.loads(subscription_to_json(
            zoom, create_subscription(zoom, "PRO", ["hugeMeetings"], parse_instant(T0))))
        state["startInstant"] = "0999-01-31T00:00:00Z"
        path = tmp_path / "early.json"
        path.write_text(json.dumps(state, indent=2) + "\n", encoding="utf-8")
        return path

    def test_consume_keeps_a_start_before_year_1000_readable(self, capsys, zoom_file,
                                                            early_state):
        consume = ["consume", zoom_file, "--subscription", str(early_state),
                   "--limit", "maxAssistantsPerMeeting", "--amount", "1"]
        assert run(capsys, *consume, "--at", "0999-02-01T00:00:00Z") == (0, "999\n", "")
        assert run(capsys, *consume) == (0, "998\n", "")  # --at falls back to the start
        state = json.loads(early_state.read_text(encoding="utf-8"))
        assert state["startInstant"] == "0999-01-31T00:00:00Z"
        assert state["usage"]["maxAssistantsPerMeeting"]["used"] == "2"

    def test_evaluate_a_subscription_starting_before_year_1000(self, capsys, zoom_file,
                                                               early_state):
        code, out, err = run(capsys, "evaluate", zoom_file, "--subscription", str(early_state),
                             "--all")
        assert (code, err) == (0, "")
        assert len(json.loads(out)) == 12


class TestStateErrorOrder:
    """A state file with several bad counters exits 3 naming the first in catalog order."""

    @pytest.mark.parametrize("entries, message", [
        ({"monthlyB": 10**6, "monthlyA": 10**6}, "'monthlyB' has a windowIndex past the calendar"),
        ({"monthlyB": 0, "monthlyA": "0", "monthlyC": 10**6}, "'monthlyA' needs a windowIndex"),
    ])
    def test_first_bad_counter_exit_3(self, capsys, tmp_path, entries, message):
        doc = tmp_path / "shared.yml"
        doc.write_text(SHARED_PERIODS_DOC, encoding="utf-8")
        pricing = parse(SHARED_PERIODS_DOC)
        state = json.loads(subscription_to_json(
            pricing, create_subscription(pricing, "P", [], parse_instant(T0))))
        for name, index in entries.items():
            state["usage"][name]["windowIndex"] = index
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state), encoding="utf-8")
        for argv in (["consume", "--limit", "daily", "--amount", "1"], ["evaluate", "--all"]):
            code, out, err = run(capsys, argv[0], str(doc), "--subscription", str(path), *argv[1:])
            assert (code, out, err) == (3, "", f"error: {path}: usage entry for {message}\n")



class TestDeeplyNestedState:
    """A state file nested past the interpreter's recursion limit exits 3, not with a traceback."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "{doc}", "--subscription", "{state}", "--feature", "hugeMeetings"],
        ["consume", "{doc}", "--subscription", "{state}", "--limit", "maxAssistantsPerMeeting",
         "--amount", "1"],
        ["diff", "{doc}", "{doc}", "--impact", "{state}"],
    ], ids=["evaluate", "consume", "diff"])
    def test_exit_3(self, capsys, zoom_file, tmp_path, argv):
        path = tmp_path / "state.json"
        path.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(doc=zoom_file, state=path) for arg in argv))
        assert (code, out) == (3, "")
        assert err == f"error: {path}: subscription state is nested too deeply\n"
