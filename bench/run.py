"""Benchmark of pricebook: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload metering --seed 3 --seconds 12 --trace 0

With ``--workload`` the run happens in this process and the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. Without ``--workload`` every
workload runs in a fresh process of its own, and the exit code is 1 if any
output disagreed with its oracle. Inputs come from ``--seed`` alone. An
untraced run times ``--seconds`` of work (by default BENCHMARK.json's
``run_seconds``); a traced run makes a fixed number of batches instead.
Results, provenance and trace spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from array import array
from collections import defaultdict
from statistics import median
from time import perf_counter

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
SEGMENT_S = 1.0
WORKLOADS = ["ingest", "metering", "release-impact", "cli-oneshot"]

# Spans whose calls and busy time are per-layer metrics.
LAYER_CALLS = [
    "yamlio.parse", "yamlio.serialize", "model.Pricing", "model.pricing_stats",
    "model.classify_features", "validation.validate", "subscriptions.create_subscription",
    "subscriptions.record_usage", "subscriptions.evaluate_feature",
    "subscriptions.evaluation_context", "subscriptions.reset_usage",
    "subscriptions.state_json", "changes.diff", "changes.impact", "changes.to_json_lines",
]
LAYER_BUSY_ONLY = ["pyyaml.compose", "pyyaml.compose_libyaml"]
LAYER_COUNTS = ["validation.violations", "subscriptions.record_usage.refused",
                "subscriptions.windows_renewed", "changes.diff.changes"]


def _load_pricebook():
    """Import pricebook from this checkout's ``src``; exit with status 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "pricebook", "__init__.py")):
        sys.exit(f"error: no pricebook sources under {SRC}")
    sys.path.insert(0, SRC)
    import pricebook

    if os.path.dirname(os.path.dirname(os.path.abspath(pricebook.__file__))) != SRC:
        sys.exit(f"error: imported pricebook from {pricebook.__file__}, not from {SRC}")
    return pricebook


def _git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import yaml

    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _git_commit(),
    }


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _loop(workload, tracer, seconds: float = 0.0, batches: int = 1):
    """Batches until ``seconds`` of timed work and at least ``batches``
    batches, in segments of about SEGMENT_S with the host-speed reference
    timed between segments (see ``tracing``). Timed work is what each
    batch reports; oracle checks and references fall outside.

    Returns (latencies, timed, scaled, failed, rates, keys): latencies
    scaled to the reference host speed, raw and scaled seconds of timed
    work, the scaled ops per second of each segment, and the ops' names
    when the workload gives them (``Workload.op_keys``). The median of the segment
    rates follows the typical speed where the mean would follow every stall.
    """
    refs = [workload.reference()]
    segments, keys = [], []
    timed, failed, done = 0.0, 0, 0
    while timed < seconds or done < batches:
        segment, spent = [], 0.0
        while spent < SEGMENT_S and (timed + spent < seconds or done < batches):
            busy, batch, outputs = workload.batch(tracer)
            spent += busy
            done += 1
            segment.extend(batch)
            failed += workload.check(outputs)
            keys.extend(workload.op_keys(outputs) or ())
            if tracer.enabled:
                workload.probe(outputs, tracer)
        refs.append(workload.reference())
        segments.append((segment, spent))
        timed += spent
    nominal = workload.REFERENCE_S
    factors = [2 * nominal / (a + b) for a, b in zip(refs, refs[1:])]
    latencies = array("d")
    rates = []
    scaled = 0.0
    for (segment, spent), factor in zip(segments, factors):
        latencies.extend(x * factor for x in segment)
        rates.append(len(segment) / (spent * factor))
        scaled += spent * factor
    return latencies, timed, scaled, failed, rates, keys


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_workload(name: str, seed: int, seconds: float, traced: bool, small: bool) -> int:
    _load_pricebook()
    from workloads import WORKLOADS as CLASSES

    cls = CLASSES[name]
    spec = _spec()
    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    setups, raw_setups = [], []
    workload = None
    try:
        for _ in range(1 if traced else SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
            before = cls.setup_reference()
            t0 = perf_counter()
            workload = cls(ROOT, seed, small, tracer)
            spent = perf_counter() - t0
            raw_setups.append(spent)
            setups.append(spent * 2 * cls.REFERENCE_S / (before + cls.setup_reference()))
        workload.prepare()
        _, lat, outputs = workload.batch(tracing.NullTracer())  # warm-up, not timed
        failed = workload.check(outputs)
        attempted = len(lat)
        info: dict = {}
        if traced:
            # A fixed number of batches, untraced then traced: every commit
            # makes the same calls, so busy_s is what those calls cost.
            lat, _, _, bad, rates, _ = _loop(workload, tracing.NullTracer(),
                                             batches=workload.TRACE_BATCHES)
            untraced_rate = median(rates)
            attempted, failed = attempted + len(lat), failed + bad
            lat, timed, scaled, bad, rates, _ = _loop(workload, tracer,
                                                      batches=workload.TRACE_BATCHES)
            attempted, failed = attempted + len(lat), failed + bad
            traced_rate = median(rates)
            speed = scaled / timed  # times read as on the reference host, as end to end
            values = {}
            for call in LAYER_CALLS:
                values[f"{call}.calls"] = tracer.calls[call]
                values[f"{call}.busy_s"] = tracer.busy[call] * speed
            values["yamlio.parse.fail"] = tracer.fails["yamlio.parse"]
            for call in LAYER_BUSY_ONLY:
                values[f"{call}.busy_s"] = tracer.busy[call] * speed
            for counter in LAYER_COUNTS:
                values[counter] = tracer.counts[counter]
            given = tracer.counts["changes.impact.input"]
            values["changes.impact.kept_ratio"] = (
                tracer.counts["changes.impact.kept"] / given if given else 0.0)
            values["cli.interpreter_start_ms"] = values["cli.import_ms"] = 0.0
            values["cli.work_ms"] = values["cli.main_inproc_ms"] = 0.0
            values.update({key: value * speed for key, value in workload.layer_metrics().items()})
            values["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
            specs = spec["per_layer"]
            self_times = {layer: value * speed for layer, value in tracer.self_times().items()}
            info = {"self_s": self_times, "untraced_ops_per_s": untraced_rate,
                    "traced_ops_per_s": traced_rate, "batches": workload.TRACE_BATCHES,
                    "host_speed": 1 / speed}
            spans = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
            tracer.write(spans)
            print(f"{workload.TRACE_BATCHES} batches untraced, then traced; host speed "
                  f"{1 / speed:.3f} of reference")
            print("self time per layer (s): "
                  + ", ".join(f"{layer}={value:.4f}" for layer, value in self_times.items()))
            print(f"tracing overhead: untraced {untraced_rate:.2f} ops/s, traced "
                  f"{traced_rate:.2f} ops/s, difference {untraced_rate - traced_rate:.2f} ops/s")
            print(f"spans: {spans}")
        else:
            lat, timed, scaled, bad, rates, keys = _loop(workload, tracer, seconds,
                                                         workload.MIN_BATCHES)
            n = len(lat)
            attempted, failed = attempted + n, failed + bad
            q = workload.TAIL_PERCENTILE
            samples = lat
            if keys:
                repeats = defaultdict(list)
                for key, x in zip(keys, lat):
                    repeats[key].append(x)
                samples = [median(xs) for xs in repeats.values()]
            tail, beyond = tracing.tail(samples, q)
            values = {
                "setup_s": median(setups),
                "ops_per_s": median(rates),
                "op_p50_ms": median(lat) * 1000,
                "op_tail_ms": tail * 1000,
                "peak_rss_mb": _peak_rss_mb(workload.rss_of_children),
            }
            specs = spec["end_to_end"]
            info = {"tail_percentile": q, "samples": n, "tail_samples": len(samples),
                    "samples_beyond_tail": beyond,
                    "segment_ops_per_s": rates, "host_speed": timed / scaled, "unscaled": {
                        "setup_runs_s": raw_setups, "ops_per_s": n / timed}}
            print(f"host speed {timed / scaled:.3f} of reference; unscaled ops_per_s "
                  f"{n / timed:.6g}, setup_s {median(raw_setups):.6g}")
            print(f"op_tail_ms is p{q:g} of {len(samples)} "
                  f"{'ops' if samples is lat else 'distinct ops, median of repeats'}, "
                  f"{beyond} beyond it")
    finally:
        if workload is not None:
            workload.close()

    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": name, "trace": int(traced), "provenance": provenance(seed),
              "fail_ratio": failed / attempted, **info, "result": result}
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(traced)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for key, metric in metrics.items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name} fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, small: bool) -> int:
    """Every workload in a fresh process, untraced then traced; prints a summary."""
    status = 0
    for name in WORKLOADS:
        for traced in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            if small:
                argv.append("--small")
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload is None:
        _load_pricebook()
        return run_all(args.seed, args.seconds, args.small)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.small)


if __name__ == "__main__":
    sys.exit(main())
