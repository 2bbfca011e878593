"""Spans around the benchmark's calls into pricebook, latency statistics,
and the host-speed reference.

A span records name, start, end, parent span and op id. Spans are kept
in memory and written out when the run ends. ``NullTracer`` has the same
interface and records nothing, so an untraced run pays one extra call per
layer call and no bookkeeping.

On a shared virtual machine the host's speed can drift by up to a factor
of two over tens of seconds. The runner therefore times a fixed piece of
reference work next to every segment of timed work and scales the
segment's timings by the reference's nominal over its measured time.
The reference work runs no pricebook code, so a change to pricebook moves
the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from decimal import Decimal
from time import perf_counter

import yaml


class NullTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name, op=None):
        return nullcontext()

    def count(self, name, amount=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = None
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.fails: Counter = Counter()
        self.counts: Counter = Counter()

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None, self.stack[-1] if self.stack else None, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()
        self.calls[span[0]] += 1
        self.busy[span[0]] += span[2] - span[1]

    def call(self, name, fn, *args):
        span = self._open(name)
        try:
            return fn(*args)
        except Exception:
            self.fails[name] += 1
            raise
        finally:
            self._close(span)

    @contextmanager
    def span(self, name, op=None):
        outer, self.op = self.op, op if op is not None else self.op
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.op = outer

    def count(self, name, amount=1):
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (name up to the first dot) not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return dict(sorted(out.items()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "op": o}
                       for n, s, e, p, o in self.spans], fh)


def tail(samples, percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) at ``percentile``, by nearest rank."""
    n = len(samples)
    rank = max(1, math.ceil(percentile * n / 100))
    return sorted(samples)[rank - 1], n - rank


_REFERENCE_DOC = "items:\n" + "".join(
    f"  k{i:03d}:\n    name: item {i}\n    values: [{i}, {i + 1}, {i + 2}]\n" for i in range(40))


def _compose_round() -> None:
    yaml.compose(_REFERENCE_DOC, Loader=yaml.SafeLoader)


def _interpreter_round() -> None:
    _compose_round()
    rows = []
    for i in range(1500):
        key = f"k{i % 97:03d}"
        rows.append({"name": key, "value": Decimal(i) / 7, "tags": (key, i & 7)})
    rows.sort(key=lambda r: (r["name"], r["tags"][1]))
    sum(r["value"] for r in rows)


def _mean_round(work, budget: float = 0.2) -> float:
    """Mean seconds per call of ``work`` over ``budget`` seconds, collector off."""
    gc.disable()
    try:
        rounds, t0 = 0, perf_counter()
        while perf_counter() - t0 < budget:
            work()
            rounds += 1
        return (perf_counter() - t0) / rounds
    finally:
        gc.enable()


def compose_reference(budget: float = 0.2) -> float:
    """Seconds per PyYAML pure-Python compose of a fixed text."""
    return _mean_round(_compose_round, budget)


def interpreter_reference(budget: float = 0.2) -> float:
    """Seconds per round of compose plus plain dict, sort and Decimal work."""
    return _mean_round(_interpreter_round, budget)


def process_reference(runs: int = 3) -> float:
    """Median of ``runs`` starts of a fresh interpreter importing pricebook's dependencies."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import argparse, dataclasses, decimal, enum, json, yaml"],
                       check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)
