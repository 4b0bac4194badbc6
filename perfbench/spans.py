"""Hooks at sdpc's layer boundaries, installed from outside the package.

A Recorder replaces module attributes that callers look up at call time
(for example `sdpc.construction.plan_step`, which `run()` calls) with
wrappers, and puts the originals back on exit. Every wrapper counts its
calls. With spans on, each call also records a span: name, start, end,
parent span and run id, kept in memory and written out at the end. With
spans off only counts are kept, plus one clock pair per search call,
which the end-to-end metrics need.

A span's layer is the sdpc module that defines the wrapped function.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "stateio", "construction", "admissible", "modular", "search", "primes")

# (module, attribute as the caller looks it up, span name)
BOUNDARIES = (
    ("sdpc.cli", "run_construction", "construction.run"),
    ("sdpc.cli", "initial_state", "construction.initial_state"),
    ("sdpc.cli", "load_state", "stateio.load_state"),
    ("sdpc.cli", "save_state", "stateio.save_state"),
    ("sdpc.construction", "plan_step", "construction.plan_step"),
    ("sdpc.construction", "apply_step", "construction.apply_step"),
    ("sdpc.construction", "verify", "construction.verify"),
    ("sdpc.construction", "crt_combine", "modular.crt_combine"),
    ("sdpc.construction", "is_admissible", "admissible.is_admissible"),
    ("sdpc.construction", "search_with_count", "search.search_with_count"),
    ("sdpc.construction", "primes_up_to", "primes.primes_up_to"),
    ("sdpc.construction", "primes_in_range", "primes.primes_in_range"),
    ("sdpc.search", "is_admissible", "admissible.is_admissible"),
    ("sdpc.search", "is_prime", "search.is_prime"),
    ("sdpc.search", "primes_up_to", "primes.primes_up_to"),
    ("sdpc.admissible", "primes_up_to", "primes.primes_up_to"),
    ("sdpc.admissible", "prime_factors", "primes.prime_factors"),
    ("sdpc.primes", "primes_up_to", "primes.primes_up_to"),
)


@dataclass
class SearchCall:
    task: object
    witness: int | None
    examined: int
    seconds: float


@dataclass
class Recorder:
    run_id: str
    spans_on: bool
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    searches: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- wrappers ---------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _leave(self, index: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def call(self, name: str, fn, args, kwargs):
        self.counts[name] += 1
        if not self.spans_on:
            return fn(*args, **kwargs)
        index, parent = self._enter()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(index, parent, name, start, perf_counter())

    def wrap(self, name: str, fn):
        """A wrapper that counts calls to fn and, with spans on, records spans."""
        call = self.call
        counts = self.counts
        if name == "search.search_with_count":
            return self._wrap_search(name, fn)
        if name == "search.is_prime":
            def certify(*args, **kwargs):
                verdict = call(name, fn, args, kwargs)
                if verdict.accepted:
                    counts["search.is_prime.accepted"] += 1
                return verdict
            return certify
        if name == "stateio.save_state":
            def save(state, path):
                call(name, fn, (state, path), {})
                counts["stateio.state_bytes"] += os.path.getsize(path)
            return save

        def wrapped(*args, **kwargs):
            return call(name, fn, args, kwargs)
        return wrapped

    def _wrap_search(self, name: str, fn):
        def search(task, *args, **kwargs):
            self.counts[name] += 1
            if self.spans_on:
                index, parent = self._enter()
            start = perf_counter()
            try:
                witness, examined = fn(task, *args, **kwargs)
            finally:
                end = perf_counter()
                if self.spans_on:
                    self._leave(index, parent, name, start, end)
            self.searches.append(SearchCall(task, witness, examined, end - start))
            return witness, examined
        return search

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Recorder":
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "run": self.run_id, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list, wall: float) -> dict:
    """Per-span-name totals and per-layer self time for one traced region.

    A span's self time is its duration minus its direct children's. The
    layer self times plus `unattributed` (time inside the region outside
    every root span) add up to `wall`.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    roots = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        total[name] += duration
        self_time[name] += own
        layer_self[layer_of(name)] += own
        if parent < 0:
            roots += duration
    return {
        "total": total,
        "self": self_time,
        "layer_self": layer_self,
        "unattributed": wall - roots,
    }
