"""Manipulation predicates and exhaustive witness search.

A voter manipulates when lying about their evaluation moves the social
outcome somewhere they prefer, judged against their *true* opinion.
Three nested notions of "prefer" are implemented: gaining on at least
one issue (partial), gaining on some issue while losing on none (full),
and strictly reducing the weighted Hamming distance to the truth
(hamming).  Every full manipulation is a hamming manipulation under
every weight vector, and every hamming manipulation is partial.

The search walks all (profile, voter, lie) triples in canonical order -
profiles lexicographic by rows, voters ascending, lies in ascending
mask order - through the one chunked walk of :mod:`binagg.engine`
(``engine.scan``), so the first witness found is a deterministic
function of the inputs, independent of how the walk is chunked.
:func:`find_witness`, the one hunt, builds its witness from the first
hit of the walk's block arrays, so it stops within the block that holds
that hit.  It walks an anonymous rule on the multiset lattice, and any
other rule on the ordered profiles of the voters it reads, whose first
hits are that same first witness.

The walk reads its types from one of two sources.  A monotone stage
corrected to its nearest feasible neighbour (``NearestNeighborRule``)
shows each (profile, voter) a pivot type (the argument is in
:mod:`binagg.fastsweep`), read off the profile's issue columns by
:func:`_pivot_types` with no outcome table and no contexts.  Every other
rule - dictators, plurality, partitions, the welfare maximizer, bare
stages and table rules - builds an outcome table, whose context rows
``engine.context_types`` keys.

The pivot source files each type its blocks first meet in the walk's
memo.  The correction's cached type table (:func:`_type_table`) costs
about as much to build as walking 3^m * S * ceil(S / 64) probes, its
word cells, less 5,000.  Once a block would take the walk's probes past
half that line, the source reads the table's flags instead, and a
table with no bad type ends the hunt with no witness.  So a hunt whose
witness comes before that block never builds the table, and one that
walks on pays at most half the line's walk on top of the table.  A full
hunt finds no witness (Theorem 4.2), so once the lattice's probes reach
the whole line it reads the table before it sets up its walk: no bad
type is the theorem's certificate, and the hunt ends there with no
witness.  Below the line a full hunt never reads the table.  The table
is not read past 20 issues, nor by a hamming hunt that weighs distances
unlike the correction.  The hunt is first charged to the budget and its
rule checked, as an outcome table's build would check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import engine
from .aggregators import (
    DEFAULT_BUDGET,
    NearestNeighborRule,
    Rule,
    check_bound,
    lattice_rows,
    lattice_table,
    search_lattice,
)
from .aggregators import outcome_table  # noqa: F401  bench/spans.py wraps outcome_table here
from .engine import HitFn, Lattice, masks_array, scan
from .metric import (
    _correction_table,
    _distances,
    _feasible_distances,
    validate_weights,
    weight_of,
    weighted_hamming,
)
from .spaces import MAX_TABLE_ISSUES, EvaluationSpace, bit_at, is_between, to_bits

KINDS = ("partial", "full", "hamming")

#: per-issue relation of the lied outcome to the truthful one, seen from
#: the liar's true opinion
GAINED = "+"
LOST = "-"
UNCHANGED = "="


def issue_relation(x: int, z: int, w: int, issue: int, m: int) -> str:
    """How issue ``issue`` moved for a voter with true opinion x.

    z is the truthful outcome, w the outcome after the lie.  Returns
    GAINED when w matches x where z did not, UNCHANGED when w and z
    agree, LOST otherwise.
    """
    wj, zj, xj = bit_at(w, issue, m), bit_at(z, issue, m), bit_at(x, issue, m)
    if wj == zj:
        return UNCHANGED
    return GAINED if wj == xj else LOST


def relation_string(x: int, z: int, w: int, m: int) -> str:
    return "".join(issue_relation(x, z, w, j, m) for j in range(1, m + 1))


@dataclass(frozen=True)
class Deviation:
    """Which manipulation predicates an outcome change satisfies."""

    partial: bool
    full: bool
    hamming: bool


def classify_deviation(x: int, z: int, w: int, weights: Sequence[int] | None = None, m: int | None = None) -> Deviation:
    """Classify the move z -> w for a voter whose true opinion is x.

    The flags are computed independently but always satisfy the chain
    full => hamming (for any positive weights) => partial.
    """
    partial = (z ^ x) & ~(w ^ x) != 0
    full = w != z and (w ^ x) & (w ^ z) == 0
    if weights is None:
        hamming = weighted_hamming(x, w) < weighted_hamming(x, z)
    else:
        # validated once here rather than inside each distance
        m = len(weights) if m is None else m
        wv = validate_weights(weights, m)
        hamming = weight_of(x, w, wv, m) < weight_of(x, z, wv, m)
    return Deviation(partial, full, hamming)


@dataclass(frozen=True)
class ManipulationWitness:
    """A concrete (profile, voter, lie) triple certifying a manipulation."""

    m: int
    profile: tuple[int, ...]
    voter: int
    lie: int
    truthful: int
    lied: int
    kind: str
    weights: tuple[int, ...] | None = None

    @property
    def true_opinion(self) -> int:
        return self.profile[self.voter - 1]

    def relations(self) -> str:
        return relation_string(self.true_opinion, self.truthful, self.lied, self.m)

    def report(self) -> str:
        m = self.m
        x = self.true_opinion
        lines = [f"voter {self.voter} has a {self.kind} manipulation"]
        lines.append("profile:")
        for i, row in enumerate(self.profile, start=1):
            marker = "  (true opinion)" if i == self.voter else ""
            lines.append(f"  voter {i}: {to_bits(row, m)}{marker}")
        lines.append(f"lie:              {to_bits(self.lie, m)}")
        lines.append(f"truthful outcome: {to_bits(self.truthful, m)}")
        lines.append(f"lied outcome:     {to_bits(self.lied, m)}")
        lines.append(f"issue relations:  {self.relations()}  (+ gained, - lost, = unchanged)")
        w = self.weights
        dz = weighted_hamming(x, self.truthful, w, m)
        dw = weighted_hamming(x, self.lied, w, m)
        lines.append(f"d(true, truthful) = {dz}")
        lines.append(f"d(true, lied)     = {dw}")
        return "\n".join(lines)


def search_size(space: EvaluationSpace, n: int) -> int:
    """Number of (profile, voter, lie) probes in one exhaustive scan of every ordered profile."""
    return space.size**n * n * space.size


def _validate_kind(kind: str, weights, m: int):
    """The hunt's weights, validated for every kind; None for the kinds that weigh nothing."""
    if kind not in KINDS:
        raise ValueError(f"unknown manipulation kind {kind!r}; pick one of {KINDS}")
    w = validate_weights(weights, m)
    return w if kind == "hamming" else None


def _hit_fn(space: EvaluationSpace, outcomes: Sequence[int], kind: str, weights) -> HitFn:
    """The vectorised predicate of one manipulation kind over outcome codes.

    Code k stands for ``outcomes[k]``: a table's ``values``, or ``space.feasible`` for feasible indices.
    """
    xs = masks_array(space.feasible, space.m)
    values = masks_array(outcomes, space.m)
    if kind == "hamming":
        # dist[k, s]: distance from outcome k to feasible opinion s
        if tuple(outcomes) == space.feasible:
            dist = _feasible_distances(space, weights)
        else:
            dist = _distances(outcomes, space.feasible, weights, space.m)
        return lambda z, w, x, y: dist[w, x] < dist[z, x]
    if kind == "partial":
        return lambda z, w, x, y: (values[z] ^ xs[x]) & ~(values[w] ^ xs[x]) != 0

    def full(z, w, x, y):
        lied = values[w]
        return (w != z) & ((lied ^ xs[x]) & (lied ^ values[z]) == 0)

    return full


def _bad_types(space: EvaluationSpace, weights: tuple[int, ...], correct: np.ndarray, kind: str) -> np.ndarray:
    """Per-opinion bad flags of every pivot type: can opinion x gain by some lie of this kind?

    A (3^m, ceil(S / 8)) uint8 array: bit x of row t (little-endian)
    says some lie gains opinion x at type t, so a type is bad where its
    row is not zero.  Types are numbered as profiles of
    ``ProfileLattice(3, m)``, whose entry j is 0 when the stage fixes
    issue j at 0, 1 when it copies the voter's bit and 2 when it fixes
    it at 1: a type (F, D) of fixed-at-1 and copied issue masks, whose
    outcome at lie y is ``correct[F | (y & D)]``, where ``correct`` is
    the correction table (:func:`metric._correction_table`) under ``weights``.
    Opinion x gains at a type when it moves by the kind's test from its
    row[x] to some outcome the row reaches.  The test is evaluated once
    on every (truthful z, lied w, opinion x) code triple and packed into
    ceil(S / 64)-word masks ``gain[z, x]`` of the w that x gains by; a
    type's reach mask ORs its row's one-hot outcome words, and x is
    flagged where ``gain[row[x], x] & reach`` is not zero.  Rows live
    only for one block of types at a time.
    """
    S, m = space.size, space.m
    masks, codes = np.array(space.feasible, dtype=np.intp), np.arange(S)
    hit = _hit_fn(space, space.feasible, kind, weights)
    k, low_fixed, low_copied, single = _type_blocks(m, S, engine.block_size(S))
    # gain[j, z, x]: word j of the mask of the outcomes x gains by from z (no kind reads the lie), in
    # square tiles of (z, x), so that no kind's test recomputes its (z, w) or (w, x) terms, such as the
    # hamming distances to x, more than S / tile times
    gain = np.empty((len(single), S, S), dtype=single.dtype)
    tile = math.isqrt(engine.block_size(S))
    for z in range(0, S, tile):
        for x in range(0, S, tile):
            gains = _bit_masks(hit(codes[z : z + tile, None, None], codes, codes[x : x + tile, None], None))
            gain[:, z : z + tile, x : x + tile] = gains.transpose(2, 0, 1)
    gain = gain.reshape(len(single), S * S)
    bad = np.empty((3**m, -(-S // 8)), dtype=np.uint8)
    for high in range(3 ** (m - k)):
        # types high * 3^k + low, low < 3^k: the first m - k issues' masks from high, the last k from low
        fixed, copied = _pivot_masks(high, m - k)
        row = correct[(fixed << k | low_fixed)[:, None] | (masks & (copied << k | low_copied)[:, None])].astype(np.intp)
        at = row * S + codes
        flags = np.zeros(row.shape, dtype=bool)
        for gain_word, single_word in zip(gain, single):
            flags |= gain_word[at] & np.bitwise_or.reduce(single_word[row], axis=1)[:, None] != 0
        bad[high * 3**k : (high + 1) * 3**k] = np.packbits(flags, axis=1, bitorder="little")
    return bad


@lru_cache(maxsize=16)
def _type_blocks(m: int, S: int, step: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(k, fixed, copied, single), read-only, to walk the 3^m types of S outcomes in blocks of 3^k <= step:
    the last k issues' masks of types 0..3^k - 1, and single[j, w], word j of outcome w's bit mask."""
    k = next(k for k in range(m, -1, -1) if 3**k <= step)
    layout = (*_pivot_masks(np.arange(3**k), k), _bit_masks(np.eye(S, dtype=bool)).T.copy())
    for array in layout:
        array.flags.writeable = False
    return (k, *layout)


def _pivot_masks(types, m: int):
    """(fixed, copied) issue masks of the pivot types numbered ``types``, an int or an array, on m issues."""
    fixed = copied = 0 * types
    for j in range(m):
        types, digit = divmod(types, 3)
        fixed, copied = fixed | (digit == 2) << j, copied | (digit == 1) << j
    return fixed, copied


def _bit_masks(flags: np.ndarray) -> np.ndarray:
    """(..., ceil(S / 64)) uint64 words whose bit k is ``flags[..., k]``, from (..., S) bools."""
    pad = np.zeros(flags.shape[:-1] + (-flags.shape[-1] % 64,), dtype=bool)
    return np.packbits(np.concatenate((flags, pad), axis=-1), axis=-1, bitorder="little").view("<u8")


@lru_cache(maxsize=16)
def _type_table(space: EvaluationSpace, weights: tuple[int, ...], ranking: tuple[int, ...], kind: str) -> np.ndarray:
    """Read-only :func:`_bad_types` of every pivot type under the correction with these validated
    weights and tie ranking, and the kind's test under the same weights, cached like that
    correction table."""
    # the correction table comes first: past MAX_TABLE_ISSUES it refuses, before type numbers could overflow
    bad = _bad_types(space, weights, _correction_table(space, weights, ranking), kind)
    bad.flags.writeable = False
    return bad


def _walks_types(rule: Rule) -> bool:
    """Whether hunts of the rule walk pivot types: a stage corrected to its nearest feasible
    neighbour, whose deciders ``IiaStage`` has checked monotone."""
    return isinstance(rule, NearestNeighborRule)


def _pivot_types(space: EvaluationSpace, rule: NearestNeighborRule, lattice: Lattice, kind: str, weights, hit: HitFn):
    """The type source of a corrected monotone stage: each (profile, voter)'s pivot type, read off
    the profile's issue columns with no outcome table and no contexts (see :mod:`binagg.fastsweep`).

    Issue j's decider shows a (profile, varying voter) out(0) <= out(1)
    over the voter's bit: the type's digit out(0) + out(1), F's bit
    out(0) and D's bit out(1) - out(0).  A pair's row of codes at every
    lie y is ``correct[F | (y & D)]``.  The types met are filed in the
    walk's memo (``engine.type_memo``), or read off the cached type table
    once the walk would cost more (see the module docstring).  The rule's space and stage
    arity are checked first, even before a full hunt's certificate, as an outcome table's
    build checks them.
    """
    check_bound(space, rule)
    rule.stage._check_shape(space.m, lattice.n)
    S, m, n = space.size, space.m, lattice.n
    # the type table's cost in probes walked (see the module docstring); it is not read past
    # MAX_TABLE_ISSUES, nor when it weighs the hamming test unlike the hunt
    line = math.inf
    if m <= MAX_TABLE_ISSUES and (kind != "hamming" or weights == rule.weights):
        line = 3**m * S * -(-S // 64) - 5000
    key = (space, rule.weights, rule.tie.ranking)
    probes = len(lattice.voters) * S
    if kind == "full":
        # Theorem 4.2's certificate: read before the walk is set up once the lattice's probes reach
        # the line, and then from the first block on; below the line, never
        line = 0 if lattice.size * probes >= line else math.inf
        if not line and not _type_table(*key, kind).any():
            return
    outcomes = rule.indexer()
    file = engine.type_memo(S, hit)
    truth = engine.truth_bits(rule.stage.tables, n).ravel()
    # column j of a block packs issue j's votes, voter 1 most significant, offset to its decider's truth bits
    votes = engine.issue_bits(space.feasible, m)
    weight, offsets = 1 << np.arange(n - 1, -1, -1), (np.arange(m) << n)[:, None]
    own = np.array([1 << (n - 1 - i) for i in lattice.voters])
    feasible = np.array(space.feasible, dtype=np.uint64)
    # type numbers run up to 3^m - 1; past int64, numpy sums Python ints instead
    place = np.array([3 ** (m - 1 - j) for j in range(m)], dtype=np.int64 if 3**m <= 2**63 else object)
    bit = np.array([1 << (m - 1 - j) for j in range(m)], dtype=np.uint64)
    step = engine.block_size(n * (S + m))
    for start in range(0, lattice.size, step):
        # engine.blocks' blocks, each unranked only once the table has not ended the hunt
        stop = min(start + step, lattice.size)
        if 2 * stop * probes >= line:
            bad = _type_table(*key, kind)
            if not bad.any():
                return
            outcomes, line, file = _correction_table(*key).__getitem__, math.inf, None
            flags = np.unpackbits(bad, axis=1, count=S, bitorder="little").view(bool)
        rows = lattice.rows(start, stop)
        columns = votes[:, rows] @ weight + offsets
        types = np.stack([place @ (truth[columns & ~voter] + truth[columns | voter]) for voter in own], axis=1)

        def rows_of(b, j, columns=columns):
            # stage outputs F | (y & D) of the pairs (b, j) at every lie y, with F read off out(0)
            # and F | D off out(1), corrected
            fixed = bit @ truth[columns[:, b] & ~own[j]]
            copied = bit @ truth[columns[:, b] | own[j]] - fixed
            return outcomes(fixed[:, None] | (feasible & copied[:, None]))

        if file:
            distinct = engine._distinct(types.ravel())
            at = np.searchsorted(distinct, types)

            def first_rows(new):
                # one (profile, voter) pair showing each new type: every pair showing it has its row
                where = np.empty(len(distinct), dtype=np.intp)
                where[at.ravel()] = np.arange(at.size)
                return rows_of(*np.divmod(where[np.searchsorted(distinct, new)], len(own)))

            slots, flags = file(distinct.tolist(), first_rows)
            types = slots[at]
        yield start, types, rows[:, lattice.voters], flags, rows_of


def find_witness(
    space: EvaluationSpace,
    rule: Rule,
    n: int,
    kind: str,
    weights: Sequence[int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ManipulationWitness | None:
    """Canonically first witness, or None when the rule is kind-free here.

    An anonymous rule is scanned, and charged to the budget, on the
    multiset lattice; any other rule on the ordered profiles of the
    voters it reads (``Rule.influential``).
    """
    w = _validate_kind(kind, weights, space.m)
    lattice = search_lattice(space, n, rule, n * space.size, budget, "manipulation search")
    table = None if _walks_types(rule) else lattice_table(space, rule, lattice)
    values = space.feasible if table is None else table.values
    hit = _hit_fn(space, values, kind, w)
    typed = _pivot_types(space, rule, lattice, kind, w, hit) if table is None else engine.context_types(lattice, table, hit)
    for block in scan(lattice, typed, hit):
        for pid, i, yi, z, lied in zip(*(a.tolist() for a in block)):
            rows = lattice_rows(space, lattice, pid)
            return ManipulationWitness(space.m, rows, i + 1, space.feasible[yi], values[z], values[lied], kind, w)
    return None


# ---------------------------------------------------------------------------
# proof-diagnostic issue partition


def issue_partition(
    witness: ManipulationWitness,
    stage_truthful: int,
    stage_lied: int,
) -> dict[tuple[int, int], frozenset[int]]:
    """Split the issues by how the stage and corrected outputs moved.

    ``stage_truthful``/``stage_lied`` are the uncorrected per-issue stage
    outputs under the truthful and lied profiles.  The major index
    follows (true opinion vs stage outputs): 1 both agree, 2 the lie
    flipped the stage away from the voter, 3 the stage disagreed either
    way.  The minor index does the same against the corrected outcomes:
    1 both agree, 2 only the truthful outcome agrees, 3 only the lied
    one, 4 neither.  Monotone stages admit no other combination; inputs
    that violate that betweenness are rejected.
    """
    m = witness.m
    x = witness.true_opinion
    v, u = stage_truthful, stage_lied
    if not is_between(x, v, u):
        raise ValueError(
            "stage outputs are not consistent with a monotone stage: "
            f"{to_bits(v, m)} is not between the opinion and {to_bits(u, m)}"
        )
    fx, fy = witness.truthful, witness.lied
    cells: dict[tuple[int, int], set[int]] = {(t, k): set() for t in (1, 2, 3) for k in (1, 2, 3, 4)}
    for j in range(1, m + 1):
        xj, vj, uj = bit_at(x, j, m), bit_at(v, j, m), bit_at(u, j, m)
        if xj == vj:
            t = 1 if vj == uj else 2
        else:
            t = 3
        fxj, fyj = bit_at(fx, j, m), bit_at(fy, j, m)
        if fxj == xj:
            k = 1 if fyj == xj else 2
        else:
            k = 3 if fyj == xj else 4
        cells[(t, k)].add(j)
    return {key: frozenset(issues) for key, issues in cells.items()}
