"""Line-oriented file formats for spaces, profiles, weights and tie orders.

Space file: first line ``space <generator>`` where the generator is one
of ``explicit``, ``pref <k> [pairs...]``, ``choose <m> <k>``,
``cycle <v>`` or ``doctrinal``; for ``explicit`` every following line is
an m-character 0/1 string (issue 1 leftmost).  Preference pairs are
written ``a>b``.  Profile file: ``profile <n> <m>`` then n rows.
Weights file: one line of m positive integers.  Tie-order file: every
feasible evaluation once, best-ranked first.

Every failure to read or parse a file names the file, and the line if there is one.
"""

from __future__ import annotations

from .metric import TieOrder, validate_weights
from .spaces import (
    EvaluationSpace,
    choose_space,
    cycle_space,
    doctrinal_space,
    explicit_space,
    from_bits,
    preference_space,
    validate_profile,
)


class ParseError(ValueError):
    """A malformed or unreadable input file, pointing at the offending line if there is one."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}: {message}" if line is None else f"{path}:{line}: {message}")


def _read_lines(path: str) -> list[tuple[int, str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(path, None, getattr(e, "strerror", None) or str(e)) from None
    return [(i, ln.strip()) for i, ln in enumerate(raw, start=1) if ln.strip()]


def read_space(path: str) -> EvaluationSpace:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty space file")
    lineno, header = lines[0]
    tokens = header.split()
    if not tokens or tokens[0] != "space":
        raise ParseError(path, lineno, f"expected 'space <generator>', got {header!r}")
    if len(tokens) < 2:
        raise ParseError(path, lineno, "missing generator name")
    kind = tokens[1]
    body = lines[1:]
    if kind in ("explicit", "doctrinal") and len(tokens) > 2:
        raise ParseError(path, lineno, f"generator {kind!r} takes no arguments, got {' '.join(tokens[2:])!r}")
    try:
        if kind == "explicit":
            if not body:
                raise ParseError(path, lineno, "explicit space needs at least one evaluation line")
            m = len(body[0][1])
            masks = []
            for ln, text in body:
                if len(text) != m:
                    raise ParseError(path, ln, f"expected {m} characters, got {len(text)}")
                try:
                    masks.append(from_bits(text))
                except ValueError as e:
                    raise ParseError(path, ln, str(e)) from None
            return explicit_space(m, masks)
        if body:
            raise ParseError(path, body[0][0], f"generator {kind!r} takes no body lines")
        if kind == "pref":
            if len(tokens) < 3:
                raise ParseError(path, lineno, "pref needs an alternative count")
            k = int(tokens[2])
            pairs = None
            if len(tokens) > 3:
                pairs = []
                for tok in tokens[3:]:
                    if ">" not in tok:
                        raise ParseError(path, lineno, f"pair must look like a>b, got {tok!r}")
                    p, q = tok.split(">", 1)
                    pairs.append((p, q))
            return preference_space(k, pairs)
        if kind == "choose":
            if len(tokens) != 4:
                raise ParseError(path, lineno, "choose needs '<m> <k>'")
            return choose_space(int(tokens[2]), int(tokens[3]))
        if kind == "cycle":
            if len(tokens) != 3:
                raise ParseError(path, lineno, "cycle needs a vertex count")
            return cycle_space(int(tokens[2]))
        if kind == "doctrinal":
            return doctrinal_space()
    except ParseError:
        raise
    except ValueError as e:
        raise ParseError(path, lineno, str(e)) from None
    raise ParseError(path, lineno, f"unknown generator {kind!r}")


def read_profile(path: str, space: EvaluationSpace) -> tuple[int, ...]:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty profile file")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "profile":
        raise ParseError(path, lineno, f"expected 'profile <n> <m>', got {header!r}")
    try:
        n, m = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ParseError(path, lineno, "voter and issue counts must be integers") from None
    if m != space.m:
        raise ParseError(path, lineno, f"profile is over {m} issues, space has {space.m}")
    body = lines[1:]
    if len(body) != n:
        raise ParseError(path, lineno, f"expected {n} rows, found {len(body)}")
    rows = []
    for ln, text in body:
        if len(text) != m:
            raise ParseError(path, ln, f"expected {m} characters, got {len(text)}")
        try:
            mask = from_bits(text)
        except ValueError as e:
            raise ParseError(path, ln, str(e)) from None
        if not space.is_feasible(mask):
            raise ParseError(path, ln, f"infeasible row {text}")
        rows.append(mask)
    return validate_profile(space, rows)


def read_weights(path: str, m: int) -> tuple[int, ...]:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty weights file")
    lineno, text = lines[0]
    if len(lines) > 1:
        raise ParseError(path, lines[1][0], "weights file must be a single line")
    try:
        weights = [int(tok) for tok in text.split()]
    except ValueError:
        raise ParseError(path, lineno, "weights must be integers") from None
    try:
        return validate_weights(weights, m)
    except ValueError as e:
        raise ParseError(path, lineno, str(e)) from None


def read_tie_order(path: str, space: EvaluationSpace) -> TieOrder:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty tie-order file")
    ranking = []
    for ln, text in lines:
        if len(text) != space.m:
            raise ParseError(path, ln, f"expected {space.m} characters, got {len(text)}")
        try:
            ranking.append(from_bits(text))
        except ValueError as e:
            raise ParseError(path, ln, str(e)) from None
    try:
        return TieOrder(space, ranking, name=f"file:{path}")
    except ValueError as e:
        raise ParseError(path, lines[0][0], str(e)) from None
