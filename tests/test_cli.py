"""End-to-end command-line behavior, including exit codes."""

import contextlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from binagg import aggregators
from binagg.aggregators import Plurality, check_structural, parse_rule
from binagg import cli
from binagg.cli import main
from binagg.fileio import read_tie_order, read_weights
from binagg.manipulation import find_witness
from binagg.spaces import builtin_space, to_bits


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def profile_file(tmp_path, text):
    path = tmp_path / "profile.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_space_info(capsys):
    code, out, _ = run(capsys, "space", "info", "--space", "pref3")
    assert code == 0
    assert "issues: 3" in out
    assert "feasible: 6" in out
    assert "pref(3)" in out
    assert "a>b b>c c>a" in out


def test_space_mipes(capsys):
    code, out, _ = run(capsys, "space", "mipes", "--space", "doctrinal")
    assert code == 0
    assert out.splitlines() == ["K:{1,3} bits:01", "K:{2,3} bits:01", "K:{1,2,3} bits:110"]


def test_run_unanimity_on_conjunction_profile(tmp_path, capsys):
    prof = profile_file(tmp_path, "profile 3 3\n010\n100\n111\n")
    code, out, _ = run(capsys, "run", "--space", "doctrinal", "--aggregator", "quota:3,3,3", "--profile", prof)
    assert code == 0
    assert out.strip() == "000"


def test_run_majority_marks_infeasible(tmp_path, capsys):
    prof = profile_file(tmp_path, "profile 3 3\n110\n011\n101\n")
    code, out, _ = run(capsys, "run", "--space", "pref3", "--aggregator", "majority", "--profile", prof)
    assert code == 0
    assert out.strip() == "111 (infeasible)"


def test_run_with_weights_and_tieorder(tmp_path, capsys):
    prof = profile_file(tmp_path, "profile 3 3\n110\n011\n101\n")
    weights = tmp_path / "w.txt"
    weights.write_text("1 1 1\n", encoding="utf-8")
    tie = tmp_path / "t.txt"
    tie.write_text("101\n110\n011\n001\n010\n100\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "run",
        "--space", "pref3",
        "--aggregator", "nn(majority)",
        "--profile", prof,
        "--weights", str(weights),
        "--tieorder", str(tie),
    )
    assert code == 0
    assert out.strip() == "101"


def test_run_partition(tmp_path, capsys):
    prof = profile_file(tmp_path, "profile 2 3\n110\n011\n")
    code, out, _ = run(
        capsys, "run", "--space", "pref3", "--aggregator", "partition:1,2;3", "--profile", prof
    )
    assert code == 0
    assert out.strip() == "110"


def test_hunt_corrected_quota_with_weights(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("2 1 1\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "hunt", "--space", "pref3", "--aggregator", "nn(quota:2,2,2)",
        "-n", "3", "--kind", "hamming", "--weights", str(weights),
    )
    assert code == 0
    assert out.strip() == "FREE"


def test_hunt_finds_witness(capsys):
    code, out, _ = run(capsys, "hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "3", "--kind", "partial")
    assert code == 0
    assert "manipulation" in out
    assert "lie:" in out


def test_hunt_free(capsys):
    code, out, _ = run(capsys, "hunt", "--space", "pref3", "--aggregator", "dictator:1", "-n", "3", "--kind", "partial")
    assert code == 0
    assert out.strip() == "FREE"


def test_hunt_deterministic_output(capsys):
    args = ("hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "3", "--kind", "hamming")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_hunt_budget_exceeded(capsys):
    code, _, err = run(
        capsys, "hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "3",
        "--kind", "partial", "--budget", "10",
    )
    assert code == 2
    assert "budget" in err


def test_out_of_memory_is_one_error_line(capsys):
    # a budget past what memory holds: numpy refuses engine.build_table's codes array at once, in the
    # monotone check, the one check that builds an outcome table
    refused = MemoryError("Unable to allocate 2.40 TiB for an array with shape (2641807540224,) and data type uint8")
    argv = ("check", "--space", "pref4", "-n", "9", "--aggregator", "plurality", "--property", "monotone", "--budget", str(10**20))
    with mock.patch.object(aggregators, "build_table", side_effect=refused):
        assert run(capsys, *argv) == (1, "", f"error: {refused}\n")
    # a bare MemoryError carries no message of its own
    with mock.patch.object(aggregators, "build_table", side_effect=MemoryError):
        assert run(capsys, *argv) == (1, "", "error: out of memory\n")


def test_iia_check_past_the_outcome_table_memory_answers(capsys):
    # 24^9 profiles, whose outcome table would not fit in memory: the check stops in the block of its
    # first violation
    argv = ("check", "--space", "pref4", "-n", "9", "--aggregator", "plurality", "--property", "iia", "--budget", str(10**20))
    code, out, err = run(capsys, *argv)
    assert (code, out.splitlines()[0], err) == (0, "property iia: FAILS", "")


def test_hunt_budget_counts_multisets_for_anonymous_rules(capsys):
    # 6**12 * 12 * 6 ordered probes, but only C(17, 12) * 12 * 6 multiset ones
    code, out, err = run(capsys, "hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "12", "--kind", "partial")
    assert code == 0 and "manipulation" in out and not err
    # a dictator is hunted over its own 6 rows, the other voters pinned
    code, out, err = run(capsys, "hunt", "--space", "pref3", "--aggregator", "dictator:1", "-n", "12", "--kind", "partial")
    assert code == 0 and out.strip() == "FREE" and not err
    # one issue per voter: every voter is read, so all 24**6 profiles count
    code, _, err = run(
        capsys, "hunt", "--space", "pref4", "--aggregator", "partition:1;2;3;4;5;6", "-n", "6", "--kind", "partial"
    )
    assert code == 2 and "24^6 profiles" in err


def test_hunt_full_of_a_corrected_stage_answers_at_the_arity_limit(capsys):
    # C(43, 20) * 20 * 24 probes, far past any scan: the correction's type table answers
    start = time.perf_counter()
    code, out, err = run(
        capsys, "hunt", "--space", "pref4", "-n", "20", "--aggregator", "nn(majority)", "--kind", "full",
        "--budget", str(10**15),
    )
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (0, "FREE\n", "") and elapsed < 2
    # the budget is still charged first, as the scan charges it
    code, out, err = run(
        capsys, "hunt", "--space", "pref4", "-n", "8", "--aggregator", "nn(majority)", "--kind", "full",
        "--budget", "10",
    )
    assert code == 2 and not out and "budget is 10" in err


#: the eight-voter reports of the probe scan that answered these hunts before pivot types did
EIGHT_VOTER_REPORTS = {
    "hamming": (
        "voter 4 has a hamming manipulation\n"
        "profile:\n"
        "  voter 1: 001000\n"
        "  voter 2: 001000\n"
        "  voter 3: 001000\n"
        "  voter 4: 001011  (true opinion)\n"
        "  voter 5: 001111\n"
        "  voter 6: 001111\n"
        "  voter 7: 001111\n"
        "  voter 8: 010110\n"
        "lie:              001111\n"
        "truthful outcome: 001000\n"
        "lied outcome:     001111\n"
        "issue relations:  ===-++  (+ gained, - lost, = unchanged)\n"
        "d(true, truthful) = 2\n"
        "d(true, lied)     = 1\n"
    ),
    "partial": (
        "voter 4 has a partial manipulation\n"
        "profile:\n"
        "  voter 1: 001000\n"
        "  voter 2: 001000\n"
        "  voter 3: 001000\n"
        "  voter 4: 001001  (true opinion)\n"
        "  voter 5: 001111\n"
        "  voter 6: 001111\n"
        "  voter 7: 001111\n"
        "  voter 8: 010110\n"
        "lie:              001111\n"
        "truthful outcome: 001000\n"
        "lied outcome:     001111\n"
        "issue relations:  ===--+  (+ gained, - lost, = unchanged)\n"
        "d(true, truthful) = 1\n"
        "d(true, lied)     = 2\n"
    ),
}


@pytest.mark.parametrize("kind", ("hamming", "partial"))
def test_eight_voter_hunts_of_a_corrected_stage_print_the_scans_report(capsys, kind):
    # C(31, 8) * 8 * 24 probes: the walk stops within the block of the first witness
    start = time.perf_counter()
    code, out, err = run(
        capsys, "hunt", "--space", "pref4", "-n", "8", "--aggregator", "nn(majority)", "--kind", kind,
        "--budget", str(10**10),
    )
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (0, EIGHT_VOTER_REPORTS[kind], "") and elapsed < 2


def test_check_property(capsys):
    code, out, _ = run(capsys, "check", "--space", "pref3", "--aggregator", "plurality", "-n", "3", "--property", "iia")
    assert code == 0
    assert "property iia: FAILS" in out
    assert "witness profiles:" in out


@pytest.mark.parametrize("spec", ["nn(majority)", "swm"])
def test_check_with_weights_and_tieorder(tmp_path, capsys, spec):
    space = builtin_space("pref3")
    weights = tmp_path / "w.txt"
    weights.write_text("3 1 1\n", encoding="utf-8")
    tie = tmp_path / "t.txt"
    tie.write_text("".join(to_bits(x, 3) + "\n" for x in reversed(space.feasible)), encoding="utf-8")
    args = ("check", "--space", "pref3", "--aggregator", spec, "-n", "3", "--property", "iia")
    code, out, _ = run(capsys, *args, "--weights", str(weights), "--tieorder", str(tie))
    assert code == 0
    rule = parse_rule(spec).build(space, 3, read_weights(str(weights), 3), read_tie_order(str(tie), space))
    report = check_structural(space, rule, 3, "iia")
    a, b = report.witness
    assert out.splitlines() == [
        "property iia: FAILS",
        "witness profiles:",
        "  A: " + " ".join(to_bits(r, 3) for r in a),
        "  B: " + " ".join(to_bits(r, 3) for r in b),
        f"issue: {report.issue}",
    ]
    # the files reach the rule: without them the first witness differs
    assert run(capsys, *args)[1] != out


def test_verify_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "result: PASS" in out
    assert "runtime" in err  # timing goes to stderr, keeping stdout stable


def test_verify_exits_3_when_a_suite_fails(capsys):
    p3 = builtin_space("pref3")
    witness = find_witness(p3, Plurality(p3), 3, "partial")
    # the three-voter split of three issues, alone, finds a witness: on pref3, doctrinal and cycle6
    with mock.patch("binagg.suites.find_witness", lambda space, rule, n, kind: witness if rule.name == "partition:1;2;3" else None):
        code, out, _ = run(capsys, "verify", "--suite", "prop4.1")
    assert code == 3
    assert "  [FAIL] partition rules on pref3, n=3: partition:1;2;3: profile 001,010,011; voter 1 lies 100: outcome 011 -> 100\n" in out
    assert out.endswith("result: FAIL (7/10 checks)\n")


def test_verify_output_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "tables")
    _, out2, _ = run(capsys, "verify", "--suite", "tables")
    assert out1 == out2


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "run", "--space", "nosuch", "--aggregator", "majority", "--profile", "x")
    assert code == 1 and "neither" in err
    code, _, err = run(capsys, "verify", "--suite", "nosuch")
    assert code == 1 and "unknown suite" in err
    code, _, err = run(capsys, "hunt", "--space", "pref3", "--aggregator", "wat", "-n", "3", "--kind", "full")
    assert code == 1
    bad = profile_file(tmp_path, "profile 1 3\n111\n")
    code, _, err = run(capsys, "run", "--space", "pref3", "--aggregator", "majority", "--profile", bad)
    assert code == 1 and ":2:" in err
    for voters, spec in itertools.product(("0", "-1"), ("swm", "plurality")):
        for command in (("hunt", "--kind", "full"), ("check", "--property", "dictatorial")):
            code, _, err = run(capsys, command[0], "--space", "pref3", "--aggregator", spec, "-n", voters, *command[1:])
            assert code == 1 and err.startswith("error:") and "at least one voter" in err
    for budget in ("-5", "0"):
        for command in (("hunt", "--kind", "full"), ("check", "--property", "monotone")):
            code, _, err = run(capsys, command[0], "--space", "pref3", "--aggregator", "swm", "-n", "3", *command[1:], "--budget", budget)
            assert code == 1 and "budget must be at least 1" in err


# a missing --space path is a usage error instead (test_usage_errors): it is neither an alias nor a file
@pytest.mark.parametrize(
    "flag, problem",
    [
        (flag, problem)
        for flag in ("--space", "--profile", "--weights", "--tieorder")
        for problem in ("missing", "directory", "not utf-8")
        if (flag, problem) != ("--space", "missing")
    ],
)
def test_unreadable_input_files_are_error_lines(tmp_path, capsys, flag, problem):
    bad = tmp_path / "bad"
    if problem == "directory":
        bad.mkdir()
    elif problem == "not utf-8":
        bad.write_bytes(b"profile 1 3\n\xff\xfe\n")
    args = {"--space": "pref3", "--profile": profile_file(tmp_path, "profile 3 3\n110\n011\n101\n")}
    args[flag] = str(bad)
    argv = [token for pair in args.items() for token in pair]
    code, out, err = run(capsys, "run", "--aggregator", "nn(majority)", *argv)
    reason = {"missing": "No such file", "directory": "Is a directory", "not utf-8": "codec can't decode"}[problem]
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}") and reason in err and "Traceback" not in err


def cli_process(*argv, timeout):
    """Run the CLI in its own interpreter, so a hang fails by timeout instead of stalling the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "binagg.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_stage_arity_past_limit_exits_at_once():
    done = cli_process("hunt", "--space", "pref3", "--aggregator", "majority", "-n", "100", "--kind", "full", timeout=2)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "stage arity must be at most" in done.stderr


def test_stage_hunt_at_eighteen_voters():
    done = cli_process("hunt", "--space", "pref3", "--aggregator", "majority", "-n", "18", "--kind", "full", timeout=5)
    assert done.returncode == 0, done.stderr


def test_partition_hunt_skips_voters_without_issues():
    # 6**12 * 12 * 6 probes over every ordered profile; voters 4-12 own no issue
    done = cli_process("hunt", "--space", "pref3", "--aggregator", "partition:1;2;3", "-n", "12", "--kind", "full", timeout=5)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "FREE\n"


@pytest.mark.parametrize("generator", ["choose 200 1", "pref 12"])
def test_space_past_issue_limit_exits_at_once(tmp_path, generator):
    # 2**200 candidate masks, or 12! orders over 66 issues: checked before enumerating
    path = tmp_path / "space.txt"
    path.write_text(f"space {generator}\n", encoding="utf-8")
    done = cli_process("space", "info", "--space", str(path), timeout=2)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "issue count must be in 1..64" in done.stderr


def test_space_past_order_limit_exits_at_once(tmp_path):
    # 55 issues are within the issue limit, but 11! = 39,916,800 orders are not enumerated
    path = tmp_path / "space.txt"
    path.write_text("space pref 11\n", encoding="utf-8")
    done = cli_process("space", "info", "--space", str(path), timeout=2)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "orders; enumeration stops at 40320" in done.stderr


@pytest.mark.parametrize(
    "generator, message",
    [
        # 30 issues are within the issue limit, but C(30, 15) = 155,117,520 committees are not enumerated
        ("choose 30 15", "choose(30,15) has 155117520 members; enumeration stops at 40320"),
        ("pref 3 a>b b>c x>a", "bad pair in orientation: ('x', 'a')"),
    ],
)
def test_space_refused_by_its_generator_exits_1(tmp_path, generator, message):
    path = tmp_path / "space.txt"
    path.write_text(f"space {generator}\n", encoding="utf-8")
    done = cli_process("space", "info", "--space", str(path), timeout=2)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and message in done.stderr and "Traceback" not in done.stderr


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, "hunt", "--space", "pref3")[0] == 1


def test_repeated_calls_match_first_calls(capsys):
    # main builds each command's parser once per process; later calls,
    # after a usage error too, print and exit exactly as a first call does
    commands = [
        ("space", "info", "--space", "pref3"),
        ("hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "3", "--kind", "hamming"),
        ("hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "3", "--kind", "bogus"),
        ("check", "--space", "doctrinal", "--aggregator", "majority", "-n", "3", "--property", "monotone"),
        ("hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "3", "--kind", "full", "--budget", "10"),
        ("verify", "--suite", "tables"),
        ("bogus",),
    ]
    first = []
    for argv in commands:
        cli._build_parser.cache_clear()
        first.append(run(capsys, *argv)[:2])
    assert [code for code, _ in first] == [0, 0, 1, 0, 2, 0, 1]
    cli._build_parser.cache_clear()
    assert [run(capsys, *argv)[:2] for argv in commands * 2] == first * 2
    # one parser per command named, and one with every command for the line that names none
    assert cli._build_parser.cache_info().misses == 5


def test_import_builds_no_parser_and_a_command_builds_its_own_alone():
    # each ArgumentParser built, subparsers included, is counted in a fresh interpreter
    count = (
        "import argparse, sys; built = []; init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k): built.append(k.get('prog')); init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from binagg import cli\n"
        "print(built)\n"
        "status = cli.main(sys.argv[1:]); print(status, built)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["hunt", "--space", "pref3", "--aggregator", "plurality", "-n", "2", "--kind", "full"]
    done = subprocess.run([sys.executable, "-c", count, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[]"
    assert done.stdout.splitlines()[-1] == "0 ['binagg', 'binagg hunt']"


def test_help_and_usage_errors_of_a_line_without_a_command():
    done = cli_process("-h", timeout=60)
    assert done.returncode == 0 and "{space,run,hunt,check,verify}" in done.stdout
    for help_line in ("inspect a space", "apply a rule to a profile", "exhaustive manipulation search",
                      "exhaustive structural property check", "run a named verification suite"):
        assert help_line in done.stdout
    done = cli_process("hunt", "-h", timeout=60)
    assert done.returncode == 0 and done.stdout.startswith("usage: binagg hunt [-h] --space SPACE")
    assert "--kind {partial,full,hamming}" in done.stdout and "probe budget" in done.stdout
    for argv, error in (
        (("bogus",), "error: argument command: invalid choice: 'bogus' (choose from 'space', 'run', 'hunt', 'check', 'verify')\n"),
        ((), "error: the following arguments are required: command\n"),
    ):
        done = cli_process(*argv, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", error)


# ---------------------------------------------------------------------------
# malformed input files

_WORDS = [
    "space", "explicit", "pref", "choose", "cycle", "doctrinal", "profile", "0", "1", "2", "3", "4", "6", "-1", "64",
    "65", "99999999999999999999", "a>b", "b>c", "c>a", "a>x", ">", "a>b>c", "000", "011", "101", "110", "111",
    "0101", "1a0", "1" * 70, "é", "\t",
]
_HEADERS = ["", "space explicit\n", "space pref ", "space choose ", "space cycle ", "profile 3 3\n", "profile 2 3\n"]
_CONTENTS = st.builds(
    lambda head, lines: (head + "\n".join(lines)).encode(),
    st.sampled_from(_HEADERS),
    st.lists(st.lists(st.sampled_from(_WORDS), max_size=5).map(" ".join), max_size=6),
) | st.binary(max_size=40)
_GOOD_PROFILE = b"profile 3 3\n110\n011\n101\n"


def _run_with_file(flag, content):
    """(status, stdout, stderr) of a CLI call reading ``content`` as its ``flag`` file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(content)
        if flag == "--space":
            argv = ["space", "info", "--space", str(path)]
        else:
            profile = Path(tmp) / "profile.txt"
            profile.write_bytes(_GOOD_PROFILE)
            argv = ["run", "--space", "pref3", "--aggregator", "nn(majority)", "--profile", str(profile), flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("--space", "--profile", "--weights", "--tieorder")), _CONTENTS)
@example("--space", b"space pref 99999999999999999999")
@example("--space", b"space cycle 99999999999999999999")
@example("--space", b"space choose 99999999999999999999 2")
@example("--space", b"space explicit\n" + b"1" * 70)
@example("--profile", b"profile 99999999999999999999 3\n110")
@example("--weights", b"99999999999999999999 0 1")
@example("--weights", b"1" * 5000)
@example("--tieorder", b"110\n110\n011\n101\n100\n010\n001")
def test_malformed_input_files_end_in_one_error_line(flag, content):
    """Whatever a file holds, the CLI reads it or exits 1 or 2 with one ``error:`` line, never a traceback."""
    status, out, err = _run_with_file(flag, content)
    if status == 0:
        return  # the draw happened to be a well-formed file
    assert status in (1, 2) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
