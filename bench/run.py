"""binagg benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload hunt --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --all            # every workload, untraced and traced

Each workload pass runs in a fresh interpreter (bench/worker.py), because
CLI users pay binagg's lazy set-up on every call.  Passes repeat while
the next one fits in --seconds; at least one always runs.  Set-up is
also sampled in SETUP_SAMPLES set-up-only processes, half before and
half after the passes, and setup_s is the median over all samples.
With --trace 1 each pass is a pair: untraced, then traced, and the
per-layer metrics come from the traced one.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics, or the per-layer ones when traced).
The lines before it give every metric's median, quartiles and sample
count, a detail row per operation, and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("hunt", "sweep", "suites")
SUITES = ("tables", "prop4.1", "thm3.1", "thm4.2", "thm4.3", "lemma5.4", "lemma5.5", "claim5.6", "claim5.7", "claim5.8")
SETUP_SAMPLES = 8
DEADLINE_S = 170.0
# the yardstick's time on the reference host (2-vCPU Xeon, Python 3.11.7,
# numpy 2.4.6); end-to-end times are scaled to that host speed
REF_NOMINAL_S = 0.002
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# span name -> per-layer metric for its self-time share
SELF_SHARES = {
    "aggregators.outcome_table": "aggregators.outcome_table_pct",
    "aggregators.check_structural": "aggregators.check_structural_self_pct",
    "aggregators.stage_init": "aggregators.stage_init_pct",
    "manipulation.find_witness": "manipulation.scan_self_pct",
    "fastsweep.sweep": "fastsweep.sweep_pct",
    "metric.nn_select": "metric.nn_select_pct",
    "spaces.mipe_type": "spaces.mipe_type_pct",
    "cli.main": "cli.self_pct",
    "bench.op": "bench.self_pct",
    **{f"suites.{s}": f"suites.{s}_pct" for s in SUITES},
}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(workload: str, seed: int, trace: int, deadline: float, setup_only: bool = False) -> dict | None:
    """Run one worker; its JSON report, or None if it failed or ran out of time."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(time.monotonic())],
            env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        print(f"worker for {workload} ran out of time", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker for {workload} exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _wall(report: dict) -> float:
    return sum(op["seconds"] for op in report["ops"])


def _group_s(report: dict, group: str) -> float:
    return sum(op["seconds"] for op in report["ops"] if op["group"] == group)


def _pass_scale(report: dict) -> float:
    """Factor taking one pass's times to the reference host speed."""
    return REF_NOMINAL_S / statistics.median(report["ref_s"])


def _probes_per_s(report: dict) -> float:
    scans = [op for op in report["ops"] if op["probes"]]
    return sum(op["probes"] for op in scans) / sum(op["seconds"] for op in scans) if scans else 0.0


def _layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, with its untraced twin for the overhead."""
    layers, counts = traced["layers"], traced["counts"]
    wall = _wall(traced)

    def get(span, key):
        return layers.get(span, {}).get(key, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {
        "aggregators.outcome_table_calls": get("aggregators.outcome_table", "calls"),
        "aggregators.profiles": counts["aggregators.profiles"],
        "aggregators.profiles_per_s": rate(counts["aggregators.profiles"], get("aggregators.outcome_table", "total_s")),
        "aggregators.stage_inits": get("aggregators.stage_init", "calls"),
        "manipulation.find_witness_calls": get("manipulation.find_witness", "calls"),
        "manipulation.probes": counts["manipulation.probes"],
        "manipulation.probes_per_s": rate(counts["manipulation.probes"], get("manipulation.find_witness", "self_s")),
        "manipulation.witnesses": counts["manipulation.witnesses"],
        "fastsweep.calls": get("fastsweep.sweep", "calls"),
        "fastsweep.stages": counts["fastsweep.stages"],
        "fastsweep.probes": counts["fastsweep.probes"],
        "fastsweep.peak_traced_mb": traced["peak_traced_mb"],
        "metric.nn_select_calls": get("metric.nn_select", "calls"),
        "spaces.mipe_type_calls": get("spaces.mipe_type", "calls"),
        "trace.wall_s": wall,
        "trace.overhead_s": wall * _pass_scale(traced) - _wall(untraced) * _pass_scale(untraced),
    }
    for span, metric in SELF_SHARES.items():
        out[metric] = 100.0 * get(span, "self_s") / wall
    return out


UNIT_SUFFIXES = (("_per_s", "1/s"), ("_pct", "%"), ("_mb", "MB"), ("_s", "s"))


def _unit(metric: str) -> str:
    return next((unit for suffix, unit in UNIT_SUFFIXES if metric.endswith(suffix)), "count")


def _trace_problems(traced: dict, untraced: dict) -> list[str]:
    """Cross-checks between the traced pass, its operations and its twin."""
    problems = []
    ops, counts = traced["ops"], traced["counts"]
    for group, counter in (("hunt", "manipulation.probes"), ("sweep", "fastsweep.probes")):
        reported = [op["probes"] for op in ops if op["group"] == group]
        if reported and sum(reported) != counts[counter]:
            problems.append(f"traced {counter} differ from the {group} operations' own probe counts")
    for op, twin, self_s in zip(ops, untraced["ops"], traced["op_self_s"]):
        gap = op["seconds"] - self_s
        if abs(gap) > max(abs(op["seconds"] - twin["seconds"]), 1e-3):
            problems.append(f"{op['name']}: layer self times miss {gap:.4f} s of the traced wall time")
    return problems


def _metric_line(name: str, values: list[float]) -> str:
    med, q1, q3 = _spread(values)
    return f"metric {name} {med:.6g} {_unit(name)} q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, list[str]]:
    """Measure one workload: (result object or None if nothing ran, report lines)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    attempted = failed = 0
    setups: list[float] = []

    def sample_setup(count: int) -> bool:
        for _ in range(count):
            report = _spawn(workload, seed, 0, deadline, setup_only=True)
            if report is None:
                return False
            setups.append(report["setup_s"])
        return True

    # half the set-up samples before the passes and half after, so that
    # their median spans the host's drift over the whole run
    if not sample_setup(SETUP_SAMPLES // 2):
        return None, []
    # a worker that fails counts as one failed operation and ends the run
    pairs: list[tuple[dict, dict | None]] = []
    pass_s: list[float] = []
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced = _spawn(workload, seed, 0, deadline)
        traced = _spawn(workload, seed, 1, deadline) if trace and untraced else None
        if untraced is None or (trace and traced is None):
            attempted, failed = attempted + 1, failed + 1
            break
        pairs.append((untraced, traced))
        pass_s.append(time.monotonic() - t0)
        if time.monotonic() - measure_start + statistics.median(pass_s) > seconds:
            break
    if not pairs or not sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        return None, []

    untraced = [u for u, _ in pairs]
    reports = untraced + [t for _, t in pairs if t is not None]
    setups += [u["setup_s"] for u in untraced]
    refs = [x for u in untraced for x in u["ref_s"]]
    scale = REF_NOMINAL_S / statistics.median(refs)
    lines = [
        f"host python={platform.python_version()} numpy={untraced[0]['numpy']} "
        f"nproc={os.cpu_count()} cpu={_cpu_model()!r}",
        f"run workload={workload} seed={seed} trace={trace} passes={len(pairs)} setups={len(setups)}",
    ]

    op_rows: dict[str, dict] = {}
    for report in reports:
        for op in report["ops"]:
            row = op_rows.setdefault(op["name"], {"seconds": [], "probes": set(), "digests": set(), "problems": []})
            row["seconds"].append(op["seconds"])
            row["probes"].add(op["probes"])
            row["digests"].add(op["digest"])
            row["problems"] += op["problems"]
            attempted += 1
            failed += bool(op["problems"])
    for name, row in op_rows.items():
        if len(row["probes"]) > 1 or len(row["digests"]) > 1:
            row["problems"].append("output or probe count differs between passes")
            failed += 1
        status = "ok" if not row["problems"] else "FAIL: " + "; ".join(sorted(set(row["problems"])))
        lines.append(
            f"op {name} median={_spread(row['seconds'])[0] * scale:.4f} s max={max(row['seconds']) * scale:.4f} s "
            f"n={len(row['seconds'])} probes={min(row['probes'])} {status}"
        )

    samples: dict[str, list[float]] = {}
    if trace:
        for u, t in pairs:
            problems = _trace_problems(t, u)
            lines += [f"trace FAIL: {problem}" for problem in problems]
            failed += bool(problems)
            for metric, value in _layer_metrics(t, u).items():
                samples.setdefault(metric, []).append(value)
        for span, layer in sorted(pairs[-1][1]["layers"].items()):
            lines.append(f"layer {span} calls={layer['calls']} total={layer['total_s']:.4f} s self={layer['self_s']:.4f} s")
    else:
        samples = {
            "setup_s": [x * scale for x in setups],
            "wall_s": [_wall(r) * scale for r in untraced],
            "peak_rss_mb": [r["rss_mb"] for r in untraced],
        }
        # as measured, and the workload-specific figures, which are
        # reported but not in the result object
        for name, values in (
            ("ref_s", refs),
            ("raw_setup_s", setups),
            ("raw_wall_s", [_wall(r) for r in untraced]),
            ("hunt_s", [_group_s(r, "hunt") * scale for r in untraced]),
            ("check_s", [_group_s(r, "check") * scale for r in untraced]),
            ("probes_per_s", [_probes_per_s(r) / scale for r in untraced]),
        ):
            if any(values):
                lines.append(_metric_line(name, values))
    lines.append(f"metric fail_ratio {failed / attempted:.6g} ratio failed={failed} attempted={attempted}")
    lines += [_metric_line(name, values) for name, values in samples.items()]
    metrics = {name: {"value": _spread(values)[0], "unit": _unit(name)} for name, values in samples.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="binagg benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "binagg", "__init__.py")):
        print(f"error: no binagg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload and --all")

    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.all else [(args.workload, args.trace)]
    all_correct = True
    for workload, trace in runs:
        result, lines = run_workload(workload, args.seed, args.seconds, trace)
        if result is None:
            print(f"error: {workload} could not complete a pass", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct or not args.all else 1


if __name__ == "__main__":
    sys.exit(main())
