"""The benchmark's tracer must find every attribute it wraps.

``bench/spans.py`` records spans by replacing functions at the module
attributes through which binagg calls them.  A renamed or deleted
attribute would otherwise break only a traced benchmark run.
"""

import pathlib

from binagg import aggregators, cli, fastsweep, manipulation, suites

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    def hooked():
        return (
            fastsweep.all_stage_products_hamming_free,
            suites.all_stage_products_hamming_free,
            fastsweep.nn_select,
            manipulation.find_witness,
            cli.main,
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
