"""Layer spans recorded from outside the program.

The tracer wraps public functions at the module attributes through which
other modules call them, so binagg itself is unchanged.  Each call of a
wrapped function is one span: a name, a start, an end and the span that
was open when it began.  Spans are kept in flat arrays in memory and
written out once the pass is over; self times come from those arrays.
"""

from __future__ import annotations

import time
import tracemalloc
from array import array

import numpy as np

from binagg import IiaStage, search_size
from binagg import aggregators as agg
from binagg import cli, fastsweep
from binagg import manipulation as man
from binagg import suites as su
from workloads import sweep_probes, witness_probes


class Tracer:
    """Span store plus the counters observed at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts = {
            "aggregators.profiles": 0,
            "manipulation.probes": 0,
            "manipulation.witnesses": 0,
            "fastsweep.stages": 0,
            "fastsweep.probes": 0,
        }
        self.peak_traced_bytes = 0
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._open.pop()

    def patch(self, owner, attr: str, name, observe=None, run=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``name`` is a span name or a function of the call's arguments;
        ``observe(args, result)`` updates counters after each call;
        ``run`` replaces the original as the function called in the span.
        """
        original = getattr(owner, attr)
        target = run or original
        call = self.call

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            result = call(span, target, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self):
        """(name ids, parent ids, durations, self times) as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name, parent, dur, dur - child

    def save(self, path: str):
        name, parent, _, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer: Tracer):
    """Wrap each layer boundary that the workloads cross."""
    counts = tracer.counts

    def on_table(args, out):
        counts["aggregators.profiles"] += len(out)

    def on_witness(args, w):
        space, _, n = args[:3]
        if w is None:
            counts["manipulation.probes"] += search_size(space, n)
        else:
            counts["manipulation.probes"] += witness_probes(space, n, w.profile, w.voter, w.lie)
            counts["manipulation.witnesses"] += 1

    def on_sweep(args, found):
        stages, probes = sweep_probes(*args[:2], found)
        counts["fastsweep.stages"] += stages
        counts["fastsweep.probes"] += probes

    def sweep_with_peak(*args, **kwargs):
        # tracemalloc runs only inside sweeps: elsewhere its cost would
        # swamp the pure-Python layers
        tracemalloc.start()
        try:
            return original_sweep(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.peak_traced_bytes = max(tracer.peak_traced_bytes, peak)

    original_sweep = fastsweep.all_stage_products_hamming_free
    for owner in (fastsweep, su):
        tracer.patch(owner, "all_stage_products_hamming_free", "fastsweep.sweep", on_sweep, sweep_with_peak)

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "run_suite", lambda args: "suites." + args[0])
    for owner in (man, agg, su):
        tracer.patch(owner, "outcome_table", "aggregators.outcome_table", on_table)
    for owner in (cli, su):
        tracer.patch(owner, "check_structural", "aggregators.check_structural")
    for owner in (cli, man, su):
        tracer.patch(owner, "find_witness", "manipulation.find_witness", on_witness)
    for owner in (agg, fastsweep):
        tracer.patch(owner, "nn_select", "metric.nn_select")
    tracer.patch(su, "mipe_type", "spaces.mipe_type")
    tracer.patch(IiaStage, "__init__", "aggregators.stage_init")
