"""Every named suite passes and renders deterministically."""

import hashlib
import json
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import oracle
from binagg import engine, fixtures, suites
from binagg.suites import format_report, run_suite, suite_names

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


def test_catalog():
    assert suite_names() == (
        "tables",
        "prop4.1",
        "thm3.1",
        "thm4.2",
        "thm4.3",
        "lemma5.4",
        "lemma5.5",
        "claim5.6",
        "claim5.7",
        "claim5.8",
    )


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", suite_names())
def test_suite_passes(name):
    report = run_suite(name)
    assert report.passed, format_report(report)
    assert report.checks
    # `binagg verify --suite` prints the report plus a newline; its digest pins
    # every rendered count, such as the lemma harvests' hit counts
    text = format_report(report) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[f"suite.{name}"]


def test_reports_byte_identical():
    for name in ("tables", "thm3.1", "claim5.8"):
        assert format_report(run_suite(name)) == format_report(run_suite(name))


def test_report_mentions_shuffle_seed():
    report = run_suite("claim5.6")
    assert "shuffled(seed=20180921)" in format_report(report)


def test_battery_fixtures_deterministic():
    from binagg.fixtures import sampled_stages, tie_battery, weight_battery
    from binagg.spaces import builtin_space

    assert sampled_stages(3, 6, 5) == sampled_stages(3, 6, 5)
    assert weight_battery(4) == ((1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2))
    space = builtin_space("pref3")
    assert [t.ranking for t in tie_battery(space)] == [t.ranking for t in tie_battery(space)]


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
def test_random_harvest_matches_oracle(block_elements):
    # the same draws in the same order: equal pairs and hits, and the
    # generators end in the same state
    ours = random.Random(fixtures.RANDOM_SWEEP_SEED)
    theirs = random.Random(fixtures.RANDOM_SWEEP_SEED)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        assert suites._random_harvest(2000, ours) == oracle.random_harvest(2000, theirs)
    assert ours.getstate() == theirs.getstate()


def test_random_harvest_memory_is_chunked():
    # blocks trace about 1.4 MB here; all 40,000 configurations in one batch, over 13 MB
    tracemalloc.start()
    try:
        suites._random_harvest(40_000, random.Random(fixtures.RANDOM_SWEEP_SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_lemma_suites_share_one_harvest():
    suites._lemma_harvest.cache_clear()
    run_suite("lemma5.4")
    run_suite("lemma5.5")
    assert suites._lemma_harvest.cache_info().misses == 1
