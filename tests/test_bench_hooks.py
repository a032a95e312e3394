"""The benchmark's tracer must find every attribute it wraps, and its outputs must match their digests.

``bench/spans.py`` records spans by replacing functions at the module
attributes through which binagg calls them.  A renamed or deleted
attribute would otherwise break only a traced benchmark run.  Likewise
an output that drifts from ``bench/digests.json`` would show only as a
failed check in a benchmark run.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from binagg import aggregators, cli, fastsweep, manipulation, suites

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    def hooked():
        return (
            fastsweep.all_stage_products_hamming_free,
            suites.all_stage_products_hamming_free,
            fastsweep.nn_select,
            aggregators.nn_select,
            manipulation.outcome_table,
            aggregators.outcome_table,
            suites.outcome_table,
            cli.check_structural,
            suites.check_structural,
            manipulation.find_witness,
            cli.find_witness,
            suites.find_witness,
            cli.main,
            cli.run_suite,
            suites.mipe_type,
            aggregators.IiaStage.__init__,
        )

    before = hooked()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        during = hooked()
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert hooked() == before


@pytest.mark.parametrize("workload", ("hunt", "sweep", "suites"))
def test_bench_outputs_match_their_digests(workload):
    # one untraced pass at the default seed, whose outputs are all pinned
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0"]
    done = subprocess.run(
        argv + ["--spawned", str(time.monotonic())], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["ops"]
    assert {op["name"]: op["problems"] for op in report["ops"] if op["problems"]} == {}
