"""One pass of one workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
numpy/BLAS/OpenMP thread counts pinned to 1.  It sets up (imports, input
generation, input files), runs the workload's operations back to back,
checks their outputs, and prints one JSON object on stdout.  With
--setup-only it stops after set-up, so set-up can be sampled cheaply.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
import tracemalloc

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


YARDSTICK_EVERY_S = 0.5


def _reference() -> float:
    """Seconds taken by a short fixed pure-Python loop that runs no binagg code.

    The host's speed drifts by tens of percent over minutes.  Samples of
    this yardstick, taken every YARDSTICK_EVERY_S while the operations
    run, measure that drift, so that run.py can scale it out.
    """
    # only cached small ints and no allocation, so the state binagg leaves
    # in the heap and caches barely touches it
    t0 = time.perf_counter()
    x = 1
    for _ in itertools.repeat(None, 40_000):
        x = (x * 3 + 1) & 63
    return time.perf_counter() - t0


def _layers(tracer, op_roots: list[int]) -> dict:
    """Per-span-name calls, total and self seconds, and per-operation sums."""
    name, parent, dur, self_s = tracer.arrays()
    layers = {}
    for nid, span in enumerate(tracer.names):
        sel = name == nid
        layers[span] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_s[sel].sum()),
        }
    # an operation's spans are contiguous, from its root to the next root
    bounds = op_roots + [len(dur)]
    op_self = [float(self_s[a:b].sum()) for a, b in zip(bounds, bounds[1:])]
    return {"layers": layers, "op_self_s": op_self}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started this process")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        import numpy
        import workloads

        ops = workloads.build(args.workload, args.seed, tmpdir)
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        results, op_roots, refs = [], [], []

        def sample(signum, frame):
            # tracemalloc, on inside traced sweeps, would slow the yardstick
            if not tracemalloc.is_tracing():
                refs.append(_reference())

        # the timer interrupts the operations between bytecodes to sample
        # the yardstick; each sample adds under 1% to the time it lands in
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, YARDSTICK_EVERY_S, YARDSTICK_EVERY_S)
        for op in ops:
            run = op.run
            if tracer is not None:
                op_roots.append(len(tracer.start))
                run = lambda op=op: tracer.call("bench.op", op.run)
            t0 = time.perf_counter()
            try:
                status, output = run()
                error = None
            except Exception:
                status, output, error = None, None, traceback.format_exc()
            results.append((op, time.perf_counter() - t0, status, output, error))
        signal.setitimer(signal.ITIMER_REAL, 0)
        refs.append(_reference())
        if tracer is not None:
            tracer.uninstall()

        report = {
            "setup_s": setup_s,
            "numpy": numpy.__version__,
            "ref_s": refs,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": [],
        }
        for op, seconds, status, output, error in results:
            if error is not None:
                probes, problems = 0, [error.strip().splitlines()[-1]]
                print(error, file=sys.stderr)
            else:
                probes, problems = workloads.verify(op, status, output, args.seed)
            report["ops"].append(
                {
                    "name": op.name,
                    "group": op.group,
                    "seconds": seconds,
                    "probes": probes,
                    "problems": problems,
                    "digest": workloads.digest(output),
                }
            )
        if tracer is not None:
            report.update(_layers(tracer, op_roots))
            report["counts"] = tracer.counts
            report["peak_traced_mb"] = tracer.peak_traced_bytes / 2**20
            tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
