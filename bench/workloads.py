"""The four workloads: their inputs, timed operations and oracle checks.

Each workload builds its inputs in ``__init__`` (the set-up that
``setup_s`` times), then runs in batches. ``batch`` performs and times
operations, returning the batch's timed work, one latency per op and the
ops' outputs; ``check`` compares the outputs with
``oracle.py`` outside the timed region and returns the number of
mismatches; ``probe`` runs only in a traced run and splits a layer into
parts. Every call into pricebook goes through ``tracer.call`` so that a
traced run sees each layer boundary.

No usage data exists for pricebook. The share of each kind of op in a
workload is an assumption read from the wording of the workload's
definition, stated where it is set; no share was chosen to place a
percentile, and the tail falls wherever the program puts it.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import timedelta
from decimal import Decimal
from itertools import count
from statistics import median
from time import perf_counter

import yaml

import gen
import oracle
from pricebook import (
    DocumentError,
    Pricing,
    QuotaExceededError,
    classify_features,
    cli,
    create_subscription,
    diff,
    evaluate_feature,
    evaluation_context,
    impact,
    parse,
    pricing_stats,
    record_usage,
    reset_usage,
    serialize,
    subscription_from_json,
    subscription_to_json,
    validate,
)
import tracing


def _rebuild(pricing: Pricing) -> Pricing:
    """An equal Pricing built anew from the parsed fields, sharing no
    feature, limit, plan or add-on object with ``pricing``."""
    def fresh(entries: dict) -> dict:
        return {name: replace(entry) for name, entry in entries.items()}

    return Pricing(pricing.saas_name, pricing.version, pricing.currency,
                   pricing.billing_period, fresh(pricing.features),
                   fresh(pricing.usage_limits), fresh(pricing.plans), fresh(pricing.add_ons))


def _compose_probes(tracer, text: str) -> None:
    tracer.call("pyyaml.compose", yaml.compose, text, yaml.SafeLoader)
    if yaml.__with_libyaml__:
        tracer.call("pyyaml.compose_libyaml", yaml.compose, text, yaml.CSafeLoader)


class Workload:
    """Hooks a workload may leave out."""

    rss_of_children = False
    # op_tail_ms reads this fixed percentile, so that it reads the same
    # point of the distribution however fast the program runs: the highest
    # whole one, up to p99, that leaves ten samples beyond it when an
    # untraced run makes its least, MIN_BATCHES batches. The cap is p99,
    # not p99.9, because on a shared virtual machine the host stalls a
    # process for 10 to 25 ms about once a second, and at p99.9 those
    # stalls, not the program, set the tail of sub-millisecond ops. A
    # traced run makes TRACE_BATCHES batches untraced and as many traced.
    TAIL_PERCENTILE = 99
    MIN_BATCHES = 1
    TRACE_BATCHES = 1
    # Host-speed reference for this workload's ops (see ``tracing``) and
    # its nominal duration: timings read as on a host where it takes this.
    setup_reference = staticmethod(tracing.interpreter_reference)
    REFERENCE_S = 0.015
    # Each batch times a short reference before its work, or before every
    # op when ops are long, untimed, into ``refs``.
    refs = ()

    def reference(self) -> float:
        """Median of the references timed before each op since the last
        call, or one timed on the spot when there are none."""
        refs, self.refs = self.refs, []
        return median(refs) if refs else self.setup_reference()

    def prepare(self) -> None:
        """Compute oracle answers; runs after set-up is timed."""

    def op_keys(self, outputs):
        """Names of a batch's ops when the same ops recur across batches;
        op_tail_ms then reads each named op's median latency (see ReleaseImpact)."""
        return None

    def probe(self, outputs, tracer) -> None:
        """Extra layer measurements, traced runs only; not timed."""

    def layer_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class Ingest(Workload):
    """parse -> validate -> pricing_stats -> serialize over a mixed corpus.

    One cycle holds the zoom fixture and four generated catalogs of each
    size, ~8, ~25 and ~80 KB: a "mixed" corpus read as equal numbers of
    each size. Two small documents carry one planted schema error each
    and one medium document carries planted R1/R2 violations.
    """

    name = "ingest"
    # Compose is over 90% of an ingest op, so a compose of a fixed text
    # tracks the host speed that matters here best.
    setup_reference = staticmethod(tracing.compose_reference)
    REFERENCE_S = 0.010
    TAIL_PERCENTILE = 80  # 13 ops a batch: 52 ops, 10 beyond p80
    MIN_BATCHES = 4
    TRACE_BATCHES = 2

    def __init__(self, root: str, seed: int, small: bool, tracer):
        rng = random.Random(seed)
        with open(os.path.join(root, "fixtures", "zoom.yml"), encoding="utf-8") as fh:
            zoom = fh.read()
        self.docs = [(zoom, None, None)]  # (text, raw or None, planted error or None)
        sizes = ["small"] * 12 if small else ["small"] * 4 + ["medium"] * 4 + ["large"] * 4
        for i, scale in enumerate(sizes):
            raw = gen.generate_catalog(rng, scale, name=f"Doc{i}")
            if i < 2:
                text, error = gen.plant_error(rng, raw, rng.choice(gen.ERROR_KINDS))
                self.docs.append((text, None, error))
            else:
                if i == 4:
                    raw = gen.plant_violations(rng, raw)
                self.docs.append((gen.emit(raw)[0], raw, None))
        rng.shuffle(self.docs)
        self.ops = count()
        self.refs = []

    def prepare(self) -> None:
        expected = []
        for text, raw, error in self.docs:
            if error is not None:
                expected.append(("error", [error]))
                continue
            raw = raw or oracle.raw_from_yaml(yaml.safe_load(text))
            expected.append(("ok", oracle.expected_violations(raw),
                             oracle.expected_stats(raw), text))
        self.expected = expected

    def batch(self, tracer):
        latencies, outputs = [], []
        for text, _, _ in self.docs:
            self.refs.append(tracing.compose_reference(0.03))
            with tracer.span("bench.op", next(self.ops)):
                t0 = perf_counter()
                try:
                    pricing = tracer.call("yamlio.parse", parse, text)
                except DocumentError as exc:
                    out = ("error", exc.errors)
                else:
                    report = tracer.call("validation.validate", validate, pricing)
                    stats = tracer.call("model.pricing_stats", pricing_stats, pricing)
                    canonical = tracer.call("yamlio.serialize", serialize, pricing)
                    out = ("ok", report, stats, canonical, pricing)
                latencies.append(perf_counter() - t0)
            outputs.append(out)
        return sum(latencies), latencies, outputs

    def check(self, outputs) -> int:
        failed = 0
        for out, want in zip(outputs, self.expected):
            if out[0] != want[0]:
                failed += 1
            elif out[0] == "error":
                got = [(e.line, e.column, e.kind.value) for e in out[1]]
                failed += got != want[1]
            else:
                _, report, stats, canonical, _ = out
                got = [(v.rule.value, v.subjects) for v in report.violations]
                failed += (got != want[1] or report.valid != (not want[1])
                           or stats.to_dict() != want[2] or canonical != want[3])
        return failed

    def probe(self, outputs, tracer) -> None:
        for (text, _, _), out in zip(self.docs, outputs):
            _compose_probes(tracer, text)
            if out[0] == "ok":
                tracer.count("validation.violations", len(out[1].violations))
                tracer.call("model.Pricing", _rebuild, out[4])
                tracer.call("model.classify_features", classify_features, out[4])


class Metering(Workload):
    """A subscriber fleet replaying a time-ordered usage timeline.

    Set-up parses one ~80 KB catalog and creates the fleet. Each op is
    one engine call: mostly ``record_usage`` on limits chosen with a skew
    (so some recordings are refused), then ``evaluate_feature``, and now
    and then a whole-catalog ``evaluation_context``, a ``reset_usage`` or
    a state checkpoint. The clock advances about five minutes per op, so
    daily, weekly and monthly windows renew during a run.
    """

    name = "metering"
    # Assumed shares, in percent: "mostly" record_usage is read as 70; the
    # two "occasional" calls and the checkpoint, a state save now and then,
    # get 3 each; evaluate_feature, listed without a qualifier, the rest.
    MIX = (("record", 70), ("evaluate", 21), ("context", 3), ("reset", 3), ("checkpoint", 3))
    BATCH = 500
    MIN_BATCHES = 2
    TRACE_BATCHES = 12

    def __init__(self, root: str, seed: int, small: bool, tracer):
        rng = random.Random(seed)
        self.raw = gen.generate_catalog(rng, "small" if small else "large")
        text = gen.emit(self.raw)[0]
        if tracer.enabled:
            _compose_probes(tracer, text)
        self.pricing = tracer.call("yamlio.parse", parse, text)
        self.members = [gen.pick_subscriber(rng, self.raw) for _ in range(10 if small else 100)]
        self.fleet = [
            tracer.call("subscriptions.create_subscription", create_subscription,
                        self.pricing, plan, add_ons, start)
            for plan, add_ons, start in self.members
        ]
        self.timeline = self._timeline(random.Random(seed + 1))
        self.ops = count()
        self.refs = []

    def _timeline(self, rng: random.Random):
        """Seeded op stream; independent of outcomes, so replays are exact."""
        effective = [oracle.Subscriber(self.raw, *member).effective for member in self.members]
        limits = list(self.raw["limits"])
        rng.shuffle(limits)
        limit_weights = [1.0 / (rank + 1) for rank in range(len(limits))]
        linked = [f for f in self.raw["features"]
                  if any(f in spec["linked"] for spec in self.raw["limits"].values())]
        features = list(self.raw["features"])
        sessions = [name for name, spec in self.raw["limits"].items()
                    if spec["kind"] == "TIME_DRIVEN"] or limits
        kinds, weights = zip(*self.MIX)
        first = max(start for _, _, start in self.members) + timedelta(seconds=1)

        def ops():
            now = first
            while True:
                now += timedelta(seconds=rng.randint(1, 600))
                i = rng.randrange(len(effective))
                kind = rng.choices(kinds, weights)[0]
                if kind == "record":
                    limit = rng.choices(limits, limit_weights)[0]
                    top = max(1, effective[i][limit] // 3)
                    yield kind, i, limit, Decimal(rng.randint(1, top)), now
                elif kind == "evaluate":
                    yield kind, i, rng.choice(linked if rng.random() < 0.8 else features), None, now
                elif kind == "reset":
                    yield kind, i, rng.choice(sessions), None, now
                else:
                    yield kind, i, None, None, now

        return ops()

    def prepare(self) -> None:
        self.oracles = [oracle.Subscriber(self.raw, *member) for member in self.members]
        self.renewed = 0

    def batch(self, tracer):
        pricing, fleet = self.pricing, self.fleet
        latencies, outputs = [], []
        self.refs.append(tracing.interpreter_reference(0.03))
        for _ in range(self.BATCH):
            op = next(self.timeline)
            kind, i, arg, amount, now = op
            with tracer.span("bench.op", next(self.ops)):
                t0 = perf_counter()
                if kind == "record":
                    try:
                        fleet[i] = tracer.call("subscriptions.record_usage", record_usage,
                                               pricing, fleet[i], arg, amount, now)
                        out = fleet[i]
                    except QuotaExceededError as exc:
                        out = exc
                elif kind == "evaluate":
                    out = tracer.call("subscriptions.evaluate_feature", evaluate_feature,
                                      pricing, fleet[i], arg, now)
                elif kind == "reset":
                    fleet[i] = out = tracer.call("subscriptions.reset_usage", reset_usage,
                                                 fleet[i], arg)
                elif kind == "context":
                    out = tracer.call("subscriptions.evaluation_context", evaluation_context,
                                      pricing, fleet[i], now)
                else:
                    text = tracer.call("subscriptions.state_json", subscription_to_json,
                                       pricing, fleet[i])
                    fleet[i] = tracer.call("subscriptions.state_json", subscription_from_json,
                                           pricing, text)
                    out = (text, fleet[i])
                latencies.append(perf_counter() - t0)
            outputs.append((op, out))
        return sum(latencies), latencies, outputs

    @staticmethod
    def _same_evaluation(result, want) -> bool:
        enabled, value, limits = want
        return (result.enabled == enabled and result.value.value == value
                and [(s.limit, s.effective, s.used, s.remaining) for s in result.limits] == limits)

    def check(self, outputs) -> int:
        failed = 0
        renewed = sum(s.windows_renewed for s in self.oracles)
        for (kind, i, arg, amount, now), out in outputs:
            sub = self.oracles[i]
            if kind == "record":
                accepted, seen = sub.record(arg, int(amount), now)
                if accepted:
                    state = out.usage[arg] if not isinstance(out, Exception) else None
                    ok = state is not None and [state.used, state.window_index] == sub.state[arg]
                else:
                    ok = (isinstance(out, QuotaExceededError) and out.used == seen
                          and out.effective == sub.effective[arg] and out.requested == amount)
            elif kind == "evaluate":
                ok = self._same_evaluation(out, sub.evaluate(arg, now))
            elif kind == "reset":
                sub.reset(arg)
                ok = out.usage[arg].used == 0
            elif kind == "context":
                ok = list(out) == list(self.raw["features"]) and all(
                    self._same_evaluation(result, sub.evaluate(f, now))
                    for f, result in out.items())
            else:
                text, restored = out
                want = sub.to_state()
                ok = json.loads(text) == want and all(
                    [restored.usage[name].used, restored.usage[name].window_index]
                    == sub.state[name] for name in want["usage"])
            failed += not ok
        self.renewed = sum(s.windows_renewed for s in self.oracles) - renewed
        return failed

    def probe(self, outputs, tracer) -> None:
        tracer.count("subscriptions.record_usage.refused",
                     sum(isinstance(out, QuotaExceededError) for _, out in outputs))
        tracer.count("subscriptions.windows_renewed", self.renewed)


class ReleaseImpact(Workload):
    """Subscriber verdicts for a history of catalog releases.

    Set-up parses four versions of one ~80 KB catalog, each three planted
    edits on the last, and persists a fleet of subscriber states against
    each old version. One batch is one release: ``validate`` the new
    version, ``diff`` it against the old one, then one verdict per
    subscriber (``subscription_from_json``, ``impact`` and
    ``to_json_lines``). An op's latency is its verdict; the validate and
    the diff count toward the batch's timed work, so ``ops_per_s``
    includes them, but toward no op's latency.

    Each release works on Pricing objects built anew, outside the timed
    work, as a real release sees a new pair once; one old Pricing is
    shared by all its subscribers, as real ``impact`` calls share it.
    """

    name = "release-impact"
    # Assumed: the fleet is the same size as the metering fleet.
    SUBSCRIBERS = 100
    # A verdict takes about a millisecond, less than the slices in which a
    # shared host runs other work, and the tail of single verdicts, at p95
    # as at p99, was set by those pauses: it moved by 25% between runs of
    # the same code. Each verdict recurs every third release, so the tail
    # reads each verdict's median latency over its repeats instead: p96
    # of 300 verdicts leaves 12 beyond it.
    TAIL_PERCENTILE = 96
    MIN_BATCHES = 10
    TRACE_BATCHES = 30

    def __init__(self, root: str, seed: int, small: bool, tracer):
        rng = random.Random(seed)
        base = gen.generate_catalog(rng, "medium" if small else "large")
        self.history = gen.release_history(rng, base, 3, 3)
        texts = [gen.emit(raw)[0] for raw, _ in self.history]
        if tracer.enabled:
            for text in texts:
                _compose_probes(tracer, text)
        self.pricings = [tracer.call("yamlio.parse", parse, text) for text in texts]
        self.states = []
        for raw, _ in self.history[:-1]:
            states = []
            for _ in range(self.SUBSCRIBERS):
                member = gen.pick_subscriber(rng, raw)
                sub = oracle.Subscriber(raw, *member)
                for name, entry in sub.state.items():
                    entry[0] = rng.randint(0, max(0, sub.effective[name]))
                    if entry[1] is not None:
                        entry[1] = rng.randint(0, 3)
                states.append((member, json.dumps(sub.to_state(), indent=2)))
            self.states.append(states)
        self.release = 0
        self.ops = count()
        self.refs = []

    def prepare(self) -> None:
        self.expected = [oracle.expected_diff(new, edits) for new, edits in self.history[1:]]
        self.reach = [[oracle.reachable(raw, plan, add_ons)
                       for (plan, add_ons, _), _ in states]
                      for (raw, _), states in zip(self.history, self.states)]

    def batch(self, tracer):
        r = self.release
        self.release = (r + 1) % len(self.states)
        old, new = _rebuild(self.pricings[r]), _rebuild(self.pricings[r + 1])
        # Untimed: without it, the collector's first pass over the thousands
        # of objects just built, a few milliseconds, would land on a random
        # verdict of each release.
        gc.collect()
        self.refs.append(tracing.interpreter_reference(0.03))
        latencies, verdicts = [], []
        with tracer.span("bench.release", next(self.ops)):
            t0 = perf_counter()
            report = tracer.call("validation.validate", validate, new)
            changes = tracer.call("changes.diff", diff, old, new)
            release = perf_counter() - t0
        for _, text in self.states[r]:
            with tracer.span("bench.op", next(self.ops)):
                t0 = perf_counter()
                sub = tracer.call("subscriptions.state_json", subscription_from_json, old, text)
                kept = tracer.call("changes.impact", impact, old, sub, changes)
                lines = tracer.call("changes.to_json_lines", kept.to_json_lines)
                latencies.append(perf_counter() - t0)
            verdicts.append((sub, kept, lines))
        return release + sum(latencies), latencies, (r, report, changes, verdicts)

    def op_keys(self, record):
        r, _, _, verdicts = record
        return [(r, i) for i in range(len(verdicts))]

    def check(self, record) -> int:
        r, report, changes, verdicts = record
        new_raw = self.history[r + 1][0]
        got = [(c.kind.value, c.subjects) for c in changes]
        failed = int(got != self.expected[r]
                     or [(v.rule.value, v.subjects) for v in report.violations]
                     != oracle.expected_violations(new_raw))
        definitions = {(c.kind.value, c.subjects): c.definition for c in changes}
        for ((plan, add_ons, _), _), reach, (sub, kept, lines) in zip(
                self.states[r], self.reach[r], verdicts):
            kept_changes = [oracle.change_from_json(json.loads(line))
                            for line in lines.splitlines()]
            want = [c for c in got if oracle.kept_by_impact(reach, plan, add_ons, c,
                                                            definitions[c])]
            failed += (kept_changes != want or not set(kept_changes) <= set(got)
                       or sub.plan_name != plan or sorted(sub.add_on_names) != add_ons)
        return failed

    def probe(self, record, tracer) -> None:
        _, report, changes, verdicts = record
        tracer.count("validation.violations", len(report.violations))
        tracer.count("changes.diff.changes", len(changes))
        tracer.count("changes.impact.input", len(changes) * len(verdicts))
        tracer.count("changes.impact.kept", sum(len(kept) for _, kept, _ in verdicts))


class CliOneshot(Workload):
    """Sequential ``python -m pricebook`` processes, timed from spawn to exit.

    One cycle runs each listed command once: ``validate``, ``stats
    --format json`` and ``evaluate --all`` on the zoom fixture and on a
    small generated document; then, on the small document and its state
    file, ``evaluate --subscription``, an accepted ``consume``, a refused
    one (exit 4) and ``diff --impact`` against a newer version (exit 1).
    The state file is reset before every cycle. Before each op, untimed,
    a fresh interpreter imports only pricebook's dependencies: the
    host-speed reference for that op's segment (see ``tracing``).
    """

    name = "cli-oneshot"
    rss_of_children = True
    # Ops here are mostly start-up of child processes, which in-process
    # reference work does not track; a child importing only pricebook's
    # dependencies does.
    setup_reference = staticmethod(tracing.process_reference)
    REFERENCE_S = 0.100
    TAIL_PERCENTILE = 85  # 10 ops a batch: 70 ops, 10 beyond p85
    MIN_BATCHES = 7  # about what 12 s of work holds at the reference speed
    TRACE_BATCHES = 2

    def __init__(self, root: str, seed: int, small: bool, tracer):
        rng = random.Random(seed)
        self.work = os.path.join(root, ".bench_tmp", f"cli-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        path = self._path
        raw = gen.generate_catalog(rng, "small", name="Cli")
        newer = gen.release_history(rng, raw, 1, 2)[1][0]
        plan, add_ons, start = gen.pick_subscriber(rng, raw)
        newer["plans"][plan]["price"] = "999.99"  # the subscriber's own plan changes
        member = oracle.Subscriber(raw, plan, add_ons, start)
        limit = max(member.effective, key=member.effective.get)
        feature = next((f for f in raw["features"] if f in raw["limits"][limit]["linked"]),
                       next(iter(raw["features"])))
        self.state_text = json.dumps(member.to_state(), indent=2)
        with open(path("small.yml"), "w", encoding="utf-8") as fh:
            fh.write(gen.emit(raw)[0])
        with open(path("newer.yml"), "w", encoding="utf-8") as fh:
            fh.write(gen.emit(newer)[0])
        at = oracle.format_instant(start + timedelta(days=rng.randint(1, 20)))
        amount = str(max(1, member.effective[limit] // 2))
        zoom = os.path.join(root, "fixtures", "zoom.yml")
        small_doc, state = path("small.yml"), path("state.json")
        newer_doc = path("newer.yml")
        chosen = ["--plan", plan] + (["--addons", ",".join(add_ons)] if add_ons else [])
        choices = {zoom: ["--plan", "PRO", "--addons", "hugeMeetings"], small_doc: chosen}
        self.commands = [
            (argv, 0)
            for doc, chosen in choices.items()
            for argv in (["validate", doc], ["stats", doc, "--format", "json"],
                         ["evaluate", doc, *chosen, "--all"])
        ] + [
            (["evaluate", small_doc, "--subscription", state, "--feature", feature,
              "--at", at], 0),
            (["consume", small_doc, "--subscription", state, "--limit", limit,
              "--amount", amount, "--at", at], 0),
            (["consume", small_doc, "--subscription", state, "--limit", limit,
              "--amount", str(member.effective[limit]), "--at", at], 4),
            (["diff", small_doc, newer_doc, "--impact", state], 1),
        ]
        self.state, self.twin = state, path("twin.json")
        self._spawn(self.commands[0][0])  # first spawn compiles and caches bytecode
        self.main_ms, self.start_ms, self.import_ms, self.process_ms = [], [], [], []
        self.refs = []
        self.ops = count()

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _spawn(self, argv):
        return subprocess.run([sys.executable, "-m", "pricebook", *argv], env=self.env,
                              capture_output=True, text=True, check=False, timeout=60)

    def _time_python(self, code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=60)
        return (perf_counter() - t0) * 1000

    def batch(self, tracer):
        with open(self.state, "w", encoding="utf-8") as fh:
            fh.write(self.state_text)
        latencies, outputs = [], []
        for argv, _ in self.commands:
            self.refs.append(tracing.process_reference(1))
            with tracer.span("bench.op", next(self.ops)):
                t0 = perf_counter()
                proc = tracer.call("cli.process", self._spawn, argv)
                latencies.append(perf_counter() - t0)
            outputs.append((proc.returncode, proc.stdout))
        if tracer.enabled:
            self.process_ms += [x * 1000 for x in latencies]
        with open(self.state, encoding="utf-8") as fh:
            outputs.append(fh.read())
        return sum(latencies), latencies, outputs

    def check(self, outputs) -> int:
        """Exit codes as expected, and stdout equal to in-process ``cli.main``."""
        with open(self.twin, "w", encoding="utf-8") as fh:
            fh.write(self.state_text)
        failed = 0
        for (argv, code), (returncode, stdout) in zip(self.commands, outputs):
            argv = [self.twin if arg == self.state else arg for arg in argv]
            buffer = io.StringIO()
            t0 = perf_counter()
            with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
                inproc = cli.main(argv)
            self.main_ms.append((perf_counter() - t0) * 1000)
            failed += returncode != code or inproc != code or stdout != buffer.getvalue()
        with open(self.twin, encoding="utf-8") as fh:
            failed += fh.read() != outputs[-1]
        return failed

    def probe(self, outputs, tracer) -> None:
        self.start_ms.append(self._time_python("pass"))
        self.import_ms.append(self._time_python("import pricebook"))

    def layer_metrics(self) -> dict:
        """Medians, so that start + import + work adds up to one process."""
        start, imported = median(self.start_ms), median(self.import_ms)
        return {"cli.interpreter_start_ms": start,
                "cli.import_ms": imported - start,
                "cli.work_ms": median(self.process_ms) - imported,
                "cli.main_inproc_ms": median(self.main_ms)}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Ingest, Metering, ReleaseImpact, CliOneshot)}
