"""Feasible evaluation spaces over the boolean hypercube.

An *evaluation* fixes a yes/no position on each of ``m`` issues and is
stored as a plain int bit mask, with issue 1 in the most significant bit.
That convention makes ascending mask order coincide with lexicographic
order on bit strings, which is what every "canonical order" in this
package means.

A space is an explicit, non-empty set of feasible masks.  Generators are
provided for the recurring families: strict-preference encodings over k
alternatives, exactly-k-of-m committees, even cycles embedded in the
hypercube, the three-issue conjunction space, and raw explicit sets.
On top of the raw sets this module implements the combinatorial geometry
used elsewhere: projections, minimally infeasible partial evaluations
(MIPEs), the subcubes they span, betweenness intervals, and neighbor
sets of infeasible points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

MAX_ISSUES = 64
#: most issues whose 2^m hypercube points are listed: infeasible points, the correction table and the type table
MAX_TABLE_ISSUES = 20
#: most members ``preference_space`` (strict orders) and ``choose_space`` (committees) enumerate: 8!
MAX_ORDERS = math.factorial(8)


def from_bits(text: str) -> int:
    """Parse an evaluation written as a 0/1 string (issue 1 leftmost)."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a 0/1 string: {text!r}")
    return int(text, 2)


def to_bits(mask: int, m: int) -> str:
    """Render a mask as an m-character 0/1 string (issue 1 leftmost)."""
    return format(mask, f"0{m}b")


def bit_at(mask: int, issue: int, m: int) -> int:
    """Value of 1-based ``issue`` in ``mask``."""
    return (mask >> (m - issue)) & 1


@dataclass(frozen=True)
class PartialEvaluation:
    """Positions fixed on a subset of issues only.

    ``support`` holds 1-based issue numbers in ascending order and
    ``bits`` the position taken on each of them.
    """

    support: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("partial evaluation needs a non-empty support")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError(f"support must be strictly ascending: {self.support}")
        if len(self.bits) != len(self.support):
            raise ValueError("one bit per supported issue required")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0/1: {self.bits}")

    def restrict(self, issues: Iterable[int]) -> "PartialEvaluation":
        """Restriction to the given subset of the support."""
        keep = sorted(set(issues))
        if any(j not in self.support for j in keep):
            raise ValueError("restriction must stay inside the support")
        pos = {j: i for i, j in enumerate(self.support)}
        return PartialEvaluation(tuple(keep), tuple(self.bits[pos[j]] for j in keep))

    def drop(self, issue: int) -> "PartialEvaluation":
        return self.restrict(j for j in self.support if j != issue)

    def matches(self, mask: int, m: int) -> bool:
        """Does a full evaluation agree with this pattern on the support?"""
        return all(bit_at(mask, j, m) == b for j, b in zip(self.support, self.bits))

    def describe(self) -> str:
        issues = ",".join(str(j) for j in self.support)
        bits = "".join(str(b) for b in self.bits)
        return f"K:{{{issues}}} bits:{bits}"


def _check_issue_count(m: int) -> None:
    """Reject an issue count outside 1..MAX_ISSUES; generators call it before enumerating."""
    if not 1 <= m <= MAX_ISSUES:
        raise ValueError(f"issue count must be in 1..{MAX_ISSUES}, got {m}")


class EvaluationSpace:
    """An explicit non-empty set of feasible evaluations on m issues."""

    def __init__(
        self,
        m: int,
        feasible: Iterable[int],
        issue_labels: Sequence[str] | None = None,
        provenance: str = "explicit",
        alternatives: tuple[str, ...] | None = None,
        orientation: tuple[tuple[int, int], ...] | None = None,
    ):
        _check_issue_count(m)
        masks = sorted(set(feasible))
        if not masks:
            raise ValueError("feasible set must be non-empty")
        if masks[0] < 0 or masks[-1] >= (1 << m):
            raise ValueError(f"feasible mask out of range for m={m}")
        if issue_labels is None:
            issue_labels = tuple(f"x{j}" for j in range(1, m + 1))
        if len(issue_labels) != m:
            raise ValueError("need one label per issue")
        self.m = m
        self.feasible: tuple[int, ...] = tuple(masks)
        self.issue_labels = tuple(issue_labels)
        self.provenance = provenance
        self.alternatives = alternatives
        self.orientation = orientation
        self._members = frozenset(masks)
        self._index = {x: i for i, x in enumerate(self.feasible)}
        self._mipes: tuple[PartialEvaluation, ...] | None = None

    # -- membership ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.feasible)

    def __contains__(self, mask: int) -> bool:
        return mask in self._members

    def is_feasible(self, mask: int) -> bool:
        if not 0 <= mask < (1 << self.m):
            raise ValueError(f"evaluation out of range for m={self.m}: {mask}")
        return mask in self._members

    def index(self, mask: int) -> int:
        """Position of a feasible mask in canonical (ascending) order."""
        try:
            return self._index[mask]
        except KeyError:
            raise ValueError(f"not feasible: {to_bits(mask, self.m)}") from None

    def infeasible(self) -> tuple[int, ...]:
        if self.m > MAX_TABLE_ISSUES:
            raise ValueError(f"{self.m} issues have 2^{self.m} masks; infeasible points are listed up to {MAX_TABLE_ISSUES} issues")
        return tuple(x for x in range(1 << self.m) if x not in self._members)

    def mipes(self) -> tuple[PartialEvaluation, ...]:
        if self._mipes is None:
            self._mipes = enumerate_mipes(self)
        return self._mipes

    def __repr__(self):
        return f"EvaluationSpace(m={self.m}, size={self.size}, provenance={self.provenance!r})"


def validate_profile(space: EvaluationSpace, rows: Sequence[int]) -> tuple[int, ...]:
    """Check every voter row is feasible; returns the rows as a tuple."""
    if len(rows) < 1:
        raise ValueError("a profile needs at least one voter")
    for i, r in enumerate(rows, start=1):
        if not space.is_feasible(r):
            raise ValueError(f"row {i} is infeasible: {to_bits(r, space.m)}")
    return tuple(rows)


# ---------------------------------------------------------------------------
# generators


def explicit_space(m: int, members: Iterable[int | str], issue_labels=None) -> EvaluationSpace:
    masks = [from_bits(x) if isinstance(x, str) else x for x in members]
    return EvaluationSpace(m, masks, issue_labels, provenance="explicit")


def _default_alternatives(k: int) -> tuple[str, ...]:
    if k <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:k])
    return tuple(f"a{i}" for i in range(1, k + 1))


def canonical_orientation(k: int) -> tuple[tuple[int, int], ...]:
    """Default issue list: pairs (i, j) with i < j, bit 1 meaning i over j."""
    return tuple((p, q) for p in range(k) for q in range(p + 1, k))


def preference_space(
    k: int,
    orientation: Sequence[tuple[int | str, int | str]] | None = None,
    alternatives: Sequence[str] | None = None,
) -> EvaluationSpace:
    """All strict total orders of k alternatives, one issue per pair.

    ``orientation`` lists the issues as ordered pairs; bit 1 on issue
    (p, q) means p is ranked above q.  Each unordered pair must appear
    exactly once.  Alternatives may be named or given as 0-based indices.
    More than ``MAX_ORDERS`` orders (nine alternatives or more) are
    refused before enumerating.
    """
    if k < 2:
        raise ValueError(f"need at least two alternatives, got {k}")
    _check_issue_count(k * (k - 1) // 2)  # before naming k alternatives: a huge k must fail at once
    alts = tuple(alternatives) if alternatives else _default_alternatives(k)
    if len(alts) != k or len(set(alts)) != k:
        raise ValueError("alternative names must be distinct and match k")
    if math.factorial(k) > MAX_ORDERS:
        raise ValueError(f"pref({k}) has {k}! = {math.factorial(k)} orders; enumeration stops at {MAX_ORDERS}")
    name_to_idx = {a: i for i, a in enumerate(alts)}

    if orientation is None:
        pairs = canonical_orientation(k)
    else:
        pairs = []
        for p, q in orientation:
            pi = name_to_idx.get(p, -1) if isinstance(p, str) else p
            qi = name_to_idx.get(q, -1) if isinstance(q, str) else q
            if not (0 <= pi < k and 0 <= qi < k) or pi == qi:
                raise ValueError(f"bad pair in orientation: {(p, q)}")
            pairs.append((pi, qi))
        pairs = tuple(pairs)
    covered = {frozenset(pq) for pq in pairs}
    if len(pairs) != k * (k - 1) // 2 or len(covered) != k * (k - 1) // 2:
        raise ValueError("orientation must cover each unordered pair exactly once")

    m = len(pairs)
    feasible = set()
    for perm in itertools.permutations(range(k)):
        pos = {a: i for i, a in enumerate(perm)}
        mask = 0
        for j, (p, q) in enumerate(pairs):
            if pos[p] < pos[q]:
                mask |= 1 << (m - 1 - j)
        feasible.add(mask)
    labels = tuple(f"{alts[p]}>{alts[q]}" for p, q in pairs)
    return EvaluationSpace(
        m,
        feasible,
        labels,
        provenance=f"pref({k})",
        alternatives=alts,
        orientation=pairs,
    )


def choose_space(m: int, k: int) -> EvaluationSpace:
    """All evaluations selecting exactly k of m candidates; more than ``MAX_ORDERS`` are refused before enumerating."""
    if not 0 < k <= m:
        raise ValueError(f"need 0 < k <= m, got k={k}, m={m}")
    _check_issue_count(m)
    if math.comb(m, k) > MAX_ORDERS:
        raise ValueError(f"choose({m},{k}) has {math.comb(m, k)} members; enumeration stops at {MAX_ORDERS}")
    # C(m, k) members, without walking the 2**m masks
    members = [sum(1 << j for j in chosen) for chosen in itertools.combinations(range(m), k)]
    labels = tuple(f"c{j}" for j in range(1, m + 1))
    return EvaluationSpace(m, members, labels, provenance=f"choose({m},{k})")


def cycle_space(vertices: int) -> EvaluationSpace:
    """A simple cycle on an even number of vertices, embedded in {0,1}^(v/2).

    Walking the cycle flips one bit at a time: all-zeros up through
    all-ones along prefixes of ones, then back down along suffixes.
    """
    if vertices < 4 or vertices % 2 != 0:
        raise ValueError(f"cycle length must be even and at least 4, got {vertices}")
    t = vertices // 2
    _check_issue_count(t)
    members = set()
    for i in range(t + 1):
        members.add(from_bits("1" * i + "0" * (t - i)) if i else 0)
    for i in range(1, t):
        members.add(from_bits("0" * (t - i) + "1" * i))
    return EvaluationSpace(t, members, provenance=f"cycle({vertices})")


def doctrinal_space() -> EvaluationSpace:
    """Three issues where the third must equal the conjunction of the first two."""
    members = [x for x in range(8) if bit_at(x, 3, 3) == (bit_at(x, 1, 3) & bit_at(x, 2, 3))]
    return EvaluationSpace(3, members, ("premise1", "premise2", "conclusion"), provenance="doctrinal")


def classifier_space() -> EvaluationSpace:
    """Linear classifiers of the four corner points of the unit square."""
    members = [x for x in range(16) if x not in (0b0110, 0b1001)]
    labels = ("p(0,0)", "p(0,1)", "p(1,0)", "p(1,1)")
    return EvaluationSpace(4, members, labels, provenance="explicit")


# The three-alternative and four-alternative preference fixtures use the
# issue orderings of the worked examples (not the canonical i<j order),
# so that published bit patterns reproduce byte for byte.
PREF3_ORIENTATION = (("a", "b"), ("b", "c"), ("c", "a"))
PREF4_ORIENTATION = (("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("b", "d"), ("c", "d"))

_BUILTIN_FACTORIES = {
    "pref3": lambda: preference_space(3, PREF3_ORIENTATION),
    "pref4": lambda: preference_space(4, PREF4_ORIENTATION),
    "doctrinal": doctrinal_space,
    "classifier4": classifier_space,
    "cycle6": lambda: cycle_space(6),
    "choose4-2": lambda: choose_space(4, 2),
    "choose5-2": lambda: choose_space(5, 2),
}
_builtin_cache: dict[str, EvaluationSpace] = {}


def builtin_space_names() -> tuple[str, ...]:
    return tuple(_BUILTIN_FACTORIES)


def builtin_space(name: str) -> EvaluationSpace:
    """One of the named example spaces (pref3, doctrinal, cycle6, ...)."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        known = ", ".join(_BUILTIN_FACTORIES)
        raise ValueError(f"unknown space alias {name!r} (known: {known})") from None
    if name not in _builtin_cache:
        _builtin_cache[name] = factory()
    return _builtin_cache[name]


# ---------------------------------------------------------------------------
# strict-order codec for preference spaces


class InfeasibleOrderError(ValueError):
    """Decoding failed because the pairwise bits contain a cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("no consistent order: cycle " + " > ".join(cycle + (cycle[0],)))


def _require_pref(space: EvaluationSpace):
    if space.orientation is None or space.alternatives is None:
        raise ValueError(f"not a preference space: provenance {space.provenance!r}")


def encode_order(space: EvaluationSpace, order: Sequence[str]) -> int:
    """Bit pattern of a strict order given best-to-worst."""
    _require_pref(space)
    alts = space.alternatives
    if sorted(order) != sorted(alts):
        raise ValueError(f"order must rank exactly the alternatives {alts}")
    pos = {a: i for i, a in enumerate(order)}
    mask = 0
    for j, (p, q) in enumerate(space.orientation):
        if pos[alts[p]] < pos[alts[q]]:
            mask |= 1 << (space.m - 1 - j)
    return mask


def decode_order(space: EvaluationSpace, mask: int) -> tuple[str, ...]:
    """Invert :func:`encode_order`; reports a witnessing cycle when infeasible."""
    _require_pref(space)
    alts = space.alternatives
    k = len(alts)
    beats = [[False] * k for _ in range(k)]
    for j, (p, q) in enumerate(space.orientation):
        if bit_at(mask, j + 1, space.m):
            beats[p][q] = True
        else:
            beats[q][p] = True
    wins = [sum(row) for row in beats]
    if sorted(wins) != list(range(k)):
        for a, b, c in itertools.permutations(range(k), 3):
            if beats[a][b] and beats[b][c] and beats[c][a]:
                raise InfeasibleOrderError((alts[a], alts[b], alts[c]))
        raise AssertionError("non-transitive tournament without a 3-cycle")
    ranked = sorted(range(k), key=lambda a: -wins[a])
    return tuple(alts[a] for a in ranked)


# ---------------------------------------------------------------------------
# projections and minimally infeasible partial evaluations


def _as_support(space: EvaluationSpace, issues: Iterable[int]) -> tuple[int, ...]:
    K = sorted(set(issues))
    if not K:
        raise ValueError("issue subset must be non-empty")
    if K[0] < 1 or K[-1] > space.m:
        raise ValueError(f"issues out of range 1..{space.m}: {K}")
    return tuple(K)


def _patterns(space: EvaluationSpace, support: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All bit tuples on ``support`` realized by some feasible evaluation."""
    m = space.m
    shifts = [m - j for j in support]
    return frozenset(tuple((x >> s) & 1 for s in shifts) for x in space.feasible)


def project(space: EvaluationSpace, issues: Iterable[int]) -> frozenset[PartialEvaluation]:
    """The restrictions of all feasible evaluations to the given issues."""
    K = _as_support(space, issues)
    return frozenset(PartialEvaluation(K, bits) for bits in _patterns(space, K))


def partial_feasible(space: EvaluationSpace, pe: PartialEvaluation) -> bool:
    """Does some feasible evaluation agree with ``pe`` on its support?"""
    _as_support(space, pe.support)
    return any(pe.matches(x, space.m) for x in space.feasible)


def enumerate_mipes(space: EvaluationSpace) -> tuple[PartialEvaluation, ...]:
    """All minimally infeasible partial evaluations, in canonical order.

    A pattern qualifies when it is infeasible but every restriction to a
    proper non-empty subset of its support is feasible.  Canonical order
    is by support size, then support, then bits.
    """
    m = space.m
    realized: dict[tuple[int, ...], frozenset[tuple[int, ...]]] = {}
    found: list[PartialEvaluation] = []
    for size in range(1, m + 1):
        for K in itertools.combinations(range(1, m + 1), size):
            realized[K] = _patterns(space, K)
        for K in itertools.combinations(range(1, m + 1), size):
            ok_patterns = realized[K]
            for bits in itertools.product((0, 1), repeat=size):
                if bits in ok_patterns:
                    continue
                minimal = True
                for drop in range(size):
                    K2 = K[:drop] + K[drop + 1 :]
                    if not K2:
                        continue
                    if bits[:drop] + bits[drop + 1 :] not in realized[K2]:
                        minimal = False
                        break
                if minimal:
                    found.append(PartialEvaluation(K, bits))
    found.sort(key=lambda pe: (len(pe.support), pe.support, pe.bits))
    return tuple(found)


def is_mipe(space: EvaluationSpace, pe: PartialEvaluation) -> bool:
    if partial_feasible(space, pe):
        return False
    for j in pe.support:
        if len(pe.support) > 1 and not partial_feasible(space, pe.drop(j)):
            return False
    return True


def mipe_set(space: EvaluationSpace, pe: PartialEvaluation) -> tuple[int, ...]:
    """Every point of the full hypercube agreeing with a MIPE on its support."""
    if not is_mipe(space, pe):
        raise ValueError(f"not a MIPE of this space: {pe.describe()}")
    m = space.m
    fixed = sum(1 << (m - j) for j, b in zip(pe.support, pe.bits) if b)
    free = ((1 << m) - 1) & ~sum(1 << (m - j) for j in pe.support)
    return interval(fixed, fixed | free, m)


@lru_cache(maxsize=1024)
def mipe_type(space: EvaluationSpace, mask: int) -> tuple[PartialEvaluation, ...]:
    """The MIPEs whose subcube contains an infeasible evaluation (memoised; a feasible mask always raises)."""
    if space.is_feasible(mask):
        raise ValueError(f"mipe_type is defined on infeasible evaluations only: {to_bits(mask, space.m)}")
    return tuple(pe for pe in space.mipes() if pe.matches(mask, space.m))


# ---------------------------------------------------------------------------
# betweenness geometry


def is_between(a: int, c: int, b: int) -> bool:
    """Is c inside the subcube spanned by a and b?"""
    return (a ^ c) & ~(a ^ b) == 0


def interval(a: int, b: int, m: int) -> tuple[int, ...]:
    """All evaluations agreeing with a (and b) wherever a and b agree."""
    for x in (a, b):
        if not 0 <= x < (1 << m):
            raise ValueError(f"evaluation out of range for m={m}: {x}")
    free = a ^ b
    base = a & ~free
    out = []
    sub = free
    while True:
        out.append(base | sub)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return tuple(sorted(out))


def neighbors_of(space: EvaluationSpace, b: int) -> tuple[int, ...]:
    """Feasible points whose open interval to an infeasible b avoids the space."""
    if space.is_feasible(b):
        raise ValueError(f"neighbors are defined for infeasible points only: {to_bits(b, space.m)}")
    out = []
    for a in space.feasible:
        span = a ^ b
        blocked = False
        for x in space.feasible:
            if x != a and (a ^ x) & ~span == 0:
                blocked = True
                break
        if not blocked:
            out.append(a)
    return tuple(out)
