"""File format round-trips and line-accurate error reporting."""

import pytest

from binagg.fileio import ParseError, read_profile, read_space, read_tie_order, read_weights
from binagg.spaces import builtin_space, from_bits


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# space files


def test_explicit_space_file(tmp_path):
    path = write(tmp_path, "s.txt", "space explicit\n110000\n001000\n000111\n")
    sp = read_space(path)
    assert sp.m == 6
    assert set(sp.feasible) == {from_bits("110000"), from_bits("001000"), from_bits("000111")}


def test_pref_space_file_with_orientation(tmp_path):
    path = write(tmp_path, "s.txt", "space pref 3 a>b b>c c>a\n")
    sp = read_space(path)
    assert set(sp.feasible) == set(range(8)) - {0, 7}
    assert sp.issue_labels == ("a>b", "b>c", "c>a")


def test_pref_space_file_default_orientation(tmp_path):
    sp = read_space(write(tmp_path, "s.txt", "space pref 3\n"))
    assert sp.size == 6


def test_other_generators(tmp_path):
    assert read_space(write(tmp_path, "a.txt", "space choose 4 2\n")).size == 6
    assert read_space(write(tmp_path, "b.txt", "space cycle 6\n")).size == 6
    assert read_space(write(tmp_path, "c.txt", "space doctrinal\n")).size == 4


def test_space_file_errors(tmp_path):
    cases = [
        ("", 1, "empty"),
        ("spice explicit\n", 1, "expected"),
        ("space explicit\n", 1, "at least one"),
        ("space explicit\n110\n1100\n", 3, "expected 3 characters"),
        ("space explicit\n1a0\n", 2, "0/1"),
        ("space nosuch\n", 1, "unknown generator"),
        ("space cycle 5\n", 1, "even"),
        ("space pref 3 a>b b>c\n", 1, "exactly once"),
        ("space pref 3 a>b b>c x>a\n", 1, "bad pair in orientation: ('x', 'a')"),
        ("space choose 4\n", 1, "choose needs"),
        ("space doctrinal\n111\n", 2, "no body"),
        ("space explicit 5\n110\n", 1, "takes no arguments"),
        ("space doctrinal extra\n", 1, "takes no arguments"),
    ]
    for i, (text, line, fragment) in enumerate(cases):
        with pytest.raises(ParseError) as exc:
            read_space(write(tmp_path, f"bad{i}.txt", text))
        assert exc.value.line == line, text
        assert fragment in str(exc.value), text


# ---------------------------------------------------------------------------
# profile files


def test_profile_file(tmp_path):
    doc = builtin_space("doctrinal")
    rows = read_profile(write(tmp_path, "p.txt", "profile 3 3\n010\n100\n111\n"), doc)
    assert rows == (0b010, 0b100, 0b111)


def test_profile_file_errors(tmp_path):
    doc = builtin_space("doctrinal")
    cases = [
        ("profile 3 4\n", 1, "space has 3"),
        ("profile 2 3\n010\n", 1, "expected 2 rows"),
        ("profile 1 3\n110\n", 2, "infeasible"),
        ("profile 1 3\n11\n", 2, "expected 3 characters"),
        ("rows 1 3\n111\n", 1, "expected 'profile"),
    ]
    for i, (text, line, fragment) in enumerate(cases):
        with pytest.raises(ParseError) as exc:
            read_profile(write(tmp_path, f"bad{i}.txt", text), doc)
        assert exc.value.line == line
        assert fragment in str(exc.value)


# ---------------------------------------------------------------------------
# weights and tie orders


def test_weights_file(tmp_path):
    assert read_weights(write(tmp_path, "w.txt", "3 2 1\n"), 3) == (3, 2, 1)
    with pytest.raises(ParseError):
        read_weights(write(tmp_path, "w2.txt", "3 2\n"), 3)
    with pytest.raises(ParseError):
        read_weights(write(tmp_path, "w3.txt", "3 0 1\n"), 3)
    with pytest.raises(ParseError):
        read_weights(write(tmp_path, "w4.txt", "1 2 3\n4 5 6\n"), 3)


def test_tie_order_file(tmp_path):
    p3 = builtin_space("pref3")
    lines = "\n".join(f"{x:03b}" for x in reversed(p3.feasible))
    tie = read_tie_order(write(tmp_path, "t.txt", lines + "\n"), p3)
    assert tie.ranking == tuple(reversed(p3.feasible))
    with pytest.raises(ParseError):
        read_tie_order(write(tmp_path, "t2.txt", "110\n011\n"), p3)
    with pytest.raises(ParseError):
        read_tie_order(write(tmp_path, "t3.txt", lines + "\n110\n"), p3)
