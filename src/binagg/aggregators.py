"""Aggregation rules from voter profiles to social evaluations.

Two layers live here.  The first is the per-issue layer: an
:class:`IiaStage` decides every issue from that issue's column alone,
through an arbitrary monotone boolean function per issue (quota rules
are the anonymous special case).  Stage outputs may leave the feasible
set; that is the point.  The second layer is the rule zoo mapping
profiles to *feasible* outcomes: dictators, plurality, sequential
partition rules, nearest-neighbor-corrected stages, and the welfare
maximizer that minimizes total weighted distance to the voters.

All rules are immutable values: applying one never mutates it, and the
same inputs always produce the same output.  Each rule, and each stage,
has one evaluator, an array gather over blocks of profiles; calling it
on one profile is a one-row call of that evaluator.  Only
:class:`TableRule` evaluates its function profile by profile.  A rule
whose outcomes are feasible evaluates to feasible indices, which become
its outcome table's codes as they are; a stage or table rule evaluates
to outcome masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import (
    Lattice,
    MultisetLattice,
    OutcomeTable,
    ProfileLattice,
    blocks,
    build_table,
    context_types,
    exact_array,
    issue_bits,
    masks_array,
    scan,
    truth_bits,
)
from .metric import TieOrder, _correction_table, _feasible_distances, _first_nearest, validate_weights
from .metric import nn_select  # noqa: F401  bench/spans.py wraps nn_select
from .spaces import MAX_TABLE_ISSUES, EvaluationSpace, bit_at

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """An exhaustive run would exceed the configured evaluation budget."""

    def __init__(self, required: int, budget: int, context: str):
        self.required = required
        self.budget = budget
        super().__init__(f"{context} needs {required} evaluations, budget is {budget}")


# ---------------------------------------------------------------------------
# per-issue monotone stages


class IiaStage:
    """Independent per-issue deciders, each a monotone function of n votes.

    ``tables[j]`` is the truth table of issue j+1's decider, indexed by
    the packed column (voter 1 most significant).

    Evaluation packs each column into an n-bit *issue lane*: ``64 // n``
    issues to a uint64 word, from mask bit 0 up, the issue at bit j of a
    word holding voter i's bit at offset ``j * n + (n - 1 - i)``.
    """

    __slots__ = ("n", "tables")

    def __init__(self, n: int, tables: Sequence[int]):
        _check_arity(n)
        size = 1 << n
        for j, tab in enumerate(tables, start=1):
            if not 0 <= tab < (1 << size):
                raise ValueError(f"issue {j}: table out of range for arity {n}")
            if not _is_monotone_table(tab, n):
                raise ValueError(f"issue {j}: decider is not monotone")
        self.n = n
        self.tables = tuple(tables)

    @property
    def m(self) -> int:
        return len(self.tables)

    @classmethod
    def quota(cls, n: int, thresholds: Sequence[int]) -> "IiaStage":
        """Issue j passes when at least thresholds[j] voters say yes.

        Thresholds run 1..n+1; n+1 makes the issue constantly 0.
        """
        _check_arity(n)
        for j, t in enumerate(thresholds, start=1):
            if not 1 <= t <= n + 1:
                raise ValueError(f"issue {j}: threshold must be in 1..{n + 1}, got {t}")
        tables = [_quota_table(n, t) for t in thresholds]
        return cls(n, tables)

    @classmethod
    def majority(cls, n: int, m: int) -> "IiaStage":
        return cls.quota(n, [(n + 2) // 2] * m)

    @classmethod
    def unanimity(cls, n: int, m: int) -> "IiaStage":
        return cls.quota(n, [n] * m)

    def _check_shape(self, m: int, n: int) -> None:
        if m != self.m:
            raise ValueError(f"stage decides {self.m} issues, space has {m}")
        if n != self.n:
            raise ValueError(f"stage arity is {self.n}, profile has {n} rows")

    def apply(self, rows: Sequence[int], m: int | None = None) -> int:
        """Stage output for a profile of any masks; may be infeasible.

        A one-row call of the gather :meth:`block_evaluator` makes, on the masks given.
        """
        self._check_shape(self.m if m is None else m, len(rows))
        evaluate = _lane_gather(truth_bits(self.tables, self.n), self.n, np.array(rows, dtype=np.uint64))
        return int(evaluate(np.arange(self.n)[None])[0])

    def block_evaluator(self, space: EvaluationSpace, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """Stage outputs (uint64 masks) for (B, n) blocks of feasible row indices."""
        self._check_shape(space.m, n)
        return _lane_gather(truth_bits(self.tables, self.n), n, np.array(space.feasible, dtype=np.uint64))

    @property
    def is_anonymous(self) -> bool:
        """True when every issue's decider depends on vote counts only."""
        return _stage_is_anonymous(self.tables, self.n)

    def influential(self, n: int) -> tuple[int, ...]:
        """0-based voters whose bit some issue's decider depends on; voter 1 alone when none does."""
        self._check_shape(self.m, n)
        return _stage_influential(self.tables, n)

    def __eq__(self, other):
        return isinstance(other, IiaStage) and (self.n, self.tables) == (other.n, other.tables)

    def __hash__(self):
        return hash((self.n, self.tables))

    def __repr__(self):
        return f"IiaStage(n={self.n}, m={self.m})"


#: largest stage arity: a decider's truth table holds 2**n bits
MAX_STAGE_ARITY = 20


def _check_arity(n: int) -> None:
    if n < 1:
        raise ValueError(f"stage arity must be at least 1, got {n}")
    if n > MAX_STAGE_ARITY:
        raise ValueError(f"stage arity must be at most {MAX_STAGE_ARITY} (truth tables of 2**n bits), got {n}")


def _lane_gather(truth: np.ndarray, n: int, masks: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Outputs (uint64 masks), over issue lanes, for (B, n) indices into the (K,) uint64 ``masks``, of the
    per-issue deciders whose truth bits are ``truth``: issue j+1 gives ``truth[j, c]`` at packed column c
    (voter 1 most significant)."""
    mask = np.uint64((1 << n) - 1)
    bit, shifts, voters, place, offsets = _lanes(len(truth), n)
    # codes[i, w, k]: voter i's lane bits of masks[k] in word w
    codes = (((masks >> bit) & 1) << shifts).sum(axis=1) << voters
    # lane p's truth table starts at p << n, its entries at mask bit p
    truth = (np.pad(truth[::-1], ((0, len(place) - len(truth)), (0, 0))) * place).ravel()

    def evaluate(rows):
        packed = codes[0][:, rows[:, 0]]
        for i in range(1, n):
            packed |= codes[i][:, rows[:, i]]
        return truth[((packed[:, None, :] >> shifts) & mask) + offsets].sum(axis=(0, 1))

    return evaluate


@lru_cache(maxsize=64)
def _lanes(m: int, n: int) -> tuple[np.ndarray, ...]:
    """(bit, shifts, voters, place, offsets) of the issue lanes of :class:`IiaStage` on m issues and n voters."""
    per = min(m, 64 // n)
    # bit[w, l]: the mask bit lane l of word w decides; lanes past bit m - 1 get zero truth tables
    bit = np.arange(-(-m // per) * per, dtype=np.uint64).reshape(-1, per, 1)
    return bit, bit[0] * n, np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None, None], 1 << bit.reshape(-1, 1), bit << n


def _vote_counts(n: int) -> np.ndarray:
    """(2**n,) uint8 array: the number of yes votes in each packed column."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        counts = np.concatenate((counts, counts + 1))
    return counts


def _quota_table(n: int, t: int) -> int:
    """Truth table of "at least t of n voters say yes"."""
    packed = np.packbits(_vote_counts(n) >= t, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _monotone_rows(truth: np.ndarray, n: int) -> np.ndarray:
    """(T,) bool: which rows of a (T, 2**n) truth-bit array are monotone.

    A table is monotone when flipping any single 0-vote to 1 never drops
    the output: for each voter bit b, every column with bit b clear is at
    most the column with it set.
    """
    ok = np.ones(len(truth), dtype=bool)
    for b in range(n):
        halves = truth.reshape(len(truth), -1, 2, 1 << b)
        ok &= (halves[:, :, 0] <= halves[:, :, 1]).all(axis=(1, 2))
    return ok


def _reads_voter(truth: np.ndarray, n: int, i: int) -> bool:
    """True when some row of a (T, 2**n) truth-bit array changes with voter i's bit (0-based)."""
    halves = truth.reshape(len(truth), -1, 2, 1 << (n - 1 - i))
    return bool((halves[:, :, 0] != halves[:, :, 1]).any())


def _anonymous_rows(truth: np.ndarray, n: int) -> np.ndarray:
    """(T,) bool: which rows of a (T, 2**n) truth-bit array depend on vote counts only.

    Column (1 << k) - 1 is the first with k yes votes, so a row must agree
    there with every column of the same count.
    """
    first = (1 << _vote_counts(n).astype(np.intp)) - 1
    return (truth == truth[:, first]).all(axis=1)


@lru_cache(maxsize=None)
def _is_monotone_table(tab: int, n: int) -> bool:
    # memoised because every IiaStage construction checks each of its tables
    return bool(_monotone_rows(truth_bits([tab], n), n)[0])


# memoised because every search and suite check of a stage asks again
@lru_cache(maxsize=1024)
def _stage_is_anonymous(tables: tuple[int, ...], n: int) -> bool:
    return bool(_anonymous_rows(truth_bits(tables, n), n).all())


@lru_cache(maxsize=1024)
def _stage_influential(tables: tuple[int, ...], n: int) -> tuple[int, ...]:
    truth = truth_bits(tables, n)
    return tuple(i for i in range(n) if _reads_voter(truth, n, i)) or (0,)


@lru_cache(maxsize=None)
def monotone_tables(n: int) -> tuple[int, ...]:
    """Truth tables of all monotone boolean functions of n inputs, ascending.

    There are 2**(2**n) candidate tables, so enumeration stops at arity 4;
    a single stage takes arities up to ``MAX_STAGE_ARITY``.
    """
    if n > 4:
        raise ValueError("enumeration is practical for arity <= 4 only")
    tabs = range(1 << (1 << n))
    return tuple(np.flatnonzero(_monotone_rows(truth_bits(tabs, n), n)).tolist())


# ---------------------------------------------------------------------------
# rules


class Rule:
    """Base class: a deterministic map from profiles to evaluations.

    A rule has one evaluator, :meth:`block_evaluator`.  Calling the rule
    on one profile is a one-row call of it.
    """

    #: whether :meth:`block_evaluator` gives outcome masks, which may be
    #: infeasible, rather than feasible indices
    _gives_masks = False

    def __init__(self, space: EvaluationSpace, name: str):
        self.space = space
        self.name = name
        # block evaluator per voter count, built at the first call
        self._evaluators: dict[int, Callable[[np.ndarray], np.ndarray]] = {}

    def __call__(self, rows: Sequence[int]) -> int:
        """Outcome of one profile of feasible rows; an infeasible row is a ValueError."""
        n = len(rows)
        if n < 1:
            raise ValueError("a profile needs at least one voter")
        index = np.array([[self.space.index(r) for r in rows]], dtype=np.intp)
        if n not in self._evaluators:
            self._evaluators[n] = self.block_evaluator(n)
        out = int(self._evaluators[n](index)[0])
        return out if self._gives_masks else self.space.feasible[out]

    @property
    def anonymous(self) -> bool:
        """True when the rule ignores the order of voters by construction.

        Searches then walk the multiset lattice.  Rules whose anonymity
        would have to be tested rather than read off their definition
        say False.
        """
        return False

    def influential(self, n: int) -> tuple[int, ...]:
        """0-based positions of the voters whose rows the rule reads, ascending.

        Known by construction, like :attr:`anonymous`: changing any other
        voter's row never changes the outcome.  Searches of a rule that is
        not anonymous walk the ordered profiles of these voters only.
        Rules that cannot say which voters they read say all n.
        """
        return tuple(range(n))

    def block_evaluator(self, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """Outcomes for (B, n) blocks of feasible row indices.

        Feasible indices of the outcomes, or their masks where
        ``_gives_masks`` says so (stage and table rules).
        """
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class Dictator(Rule):
    def __init__(self, space: EvaluationSpace, voter: int):
        if voter < 1:
            raise ValueError(f"voter index is 1-based, got {voter}")
        super().__init__(space, f"dictator:{voter}")
        self.voter = voter

    def influential(self, n):
        if self.voter > n:
            raise ValueError(f"profile has {n} voters, dictator is voter {self.voter}")
        return (self.voter - 1,)

    def block_evaluator(self, n):
        (voter,) = self.influential(n)
        return lambda rows: rows[:, voter]


class StageRule(Rule):
    """A bare per-issue stage used as the rule itself; may output infeasible."""

    _gives_masks = True

    def __init__(self, space: EvaluationSpace, stage: IiaStage, name: str | None = None):
        if stage.m != space.m:
            raise ValueError(f"stage decides {stage.m} issues, space has {space.m}")
        super().__init__(space, name or "stage")
        self.stage = stage

    @property
    def anonymous(self) -> bool:
        return self.stage.is_anonymous

    def influential(self, n):
        return self.stage.influential(n)

    def block_evaluator(self, n):
        return self.stage.block_evaluator(self.space, n)


class Plurality(Rule):
    """Most frequent row wins; ties go to the tie-order-best tied row.

    Without an explicit tie order (``TieOrder.descending``) the greatest
    bit mask wins, which is the lexicographically greatest evaluation string.
    """

    def __init__(self, space: EvaluationSpace, tie: TieOrder | None = None):
        super().__init__(space, "plurality")
        self.tie = TieOrder.descending(space) if tie is None else tie

    @property
    def anonymous(self) -> bool:
        return True

    def block_evaluator(self, n):
        X = self.space.feasible
        S = len(X)
        # priority among tied rows: the better tie rank
        priority = S - 1 - np.array([self.tie.rank(x) for x in X])

        def evaluate(rows):
            score = np.broadcast_to(priority, (len(rows), S)).copy()
            at = np.arange(len(rows))
            for column in rows.T:
                score[at, column] += S
            return np.argmax(score, axis=1)

        return evaluate


class Partition(Rule):
    """Each voter owns a block of issues, decided sequentially.

    Issues are processed in ascending order; the owner's bit is taken
    unless it would make the prefix infeasible, in which case the
    opposite bit is forced (and is always feasible, by induction).
    """

    def __init__(self, space: EvaluationSpace, blocks: Sequence[Iterable[int]]):
        blocks = tuple(frozenset(b) for b in blocks)
        owner: dict[int, int] = {}
        for v, block in enumerate(blocks, start=1):
            for j in block:
                if not 1 <= j <= space.m:
                    raise ValueError(f"issue {j} out of range 1..{space.m}")
                if j in owner:
                    raise ValueError(f"issue {j} appears in two blocks")
                owner[j] = v
        if len(owner) != space.m:
            missing = sorted(set(range(1, space.m + 1)) - set(owner))
            raise ValueError(f"blocks must cover every issue; missing {missing}")
        name = "partition:" + ";".join(",".join(map(str, sorted(b))) for b in blocks)
        super().__init__(space, name)
        self.blocks = blocks
        self._owner = tuple(owner[j] for j in range(1, space.m + 1))

    def _automaton(self) -> list[np.ndarray]:
        """Per issue j, next prefix state indexed by (state, wanted bit).

        States at issue j are the feasible prefixes of length j in
        ascending order, so the final states are the feasible indices.
        """
        m = self.space.m
        steps = []
        previous = [0]
        for j in range(1, m + 1):
            level = sorted({x >> (m - j) for x in self.space.feasible})
            position = {p: k for k, p in enumerate(level)}
            step = np.empty((len(previous), 2), dtype=np.intp)
            for k, p in enumerate(previous):
                for want in (0, 1):
                    chosen = position.get((p << 1) | want)
                    step[k, want] = position[(p << 1) | (1 - want)] if chosen is None else chosen
            steps.append(step)
            previous = level
        return steps

    def influential(self, n):
        if n != len(self.blocks):
            raise ValueError(f"rule partitions issues over {len(self.blocks)} voters, profile has {n}")
        return tuple(sorted({v - 1 for v in self._owner}))

    def block_evaluator(self, n):
        self.influential(n)  # refuses a voter count other than the blocks'
        bits = issue_bits(self.space.feasible, self.space.m)
        steps = self._automaton()
        owners = [v - 1 for v in self._owner]

        def evaluate(rows):
            state = np.zeros(len(rows), dtype=np.intp)
            for j, step in enumerate(steps):
                state = step[state, bits[j, rows[:, owners[j]]]]
            return state

        return evaluate


class NearestNeighborRule(Rule):
    """A monotone per-issue stage whose output is snapped back into the space.

    Feasible stage outputs pass through unchanged; infeasible ones are
    replaced by their tie-order-minimal nearest neighbor under the
    rule's weights.  Once an evaluator, or a hunt's pivot-type walk, has
    been handed at least 2**m points (:meth:`indexer`), it reads the
    correction of every hypercube point from the table that sweeps share
    (``metric._correction_table``), so building that table never costs
    more than the points it serves; until then, and past 20 issues, it
    corrects only the distinct points seen, with the kernel that builds
    the table (``metric._first_nearest``).
    """

    def __init__(
        self,
        space: EvaluationSpace,
        stage: IiaStage,
        weights: Sequence[int] | None = None,
        tie: TieOrder | None = None,
        name: str | None = None,
    ):
        if stage.m != space.m:
            raise ValueError(f"stage decides {stage.m} issues, space has {space.m}")
        super().__init__(space, name or "nn(stage)")
        self.stage = stage
        self.weights = validate_weights(weights, space.m)
        self.tie = TieOrder.ascending(space) if tie is None else tie

    @property
    def anonymous(self) -> bool:
        # the correction sees the stage output only, never the voters
        return self.stage.is_anonymous

    def influential(self, n):
        return self.stage.influential(n)

    def indexer(self) -> Callable[[np.ndarray], np.ndarray]:
        """Feasible indices of the corrections of an array of hypercube points, in its shape.

        Once it has been handed at least 2**m points, it fetches the shared
        correction table and reads it from then on; until then, and past 20
        issues, it corrects only the distinct points of each call.
        """
        space, weights, ranking = self.space, self.weights, self.tie.ranking
        table, points_seen = None, 0

        def indices(points):
            nonlocal table, points_seen
            points_seen += points.size
            if table is None and space.m <= MAX_TABLE_ISSUES and points_seen >= 1 << space.m:
                table = _correction_table(space, weights, ranking)
            if table is not None:
                return table[points]
            distinct, inverse = np.unique(points, return_inverse=True)
            return _first_nearest(space, distinct, weights, ranking)[inverse].reshape(points.shape)

        return indices

    def block_evaluator(self, n):
        stage_outputs, indices = self.stage.block_evaluator(self.space, n), self.indexer()
        return lambda rows: indices(stage_outputs(rows))


class WelfareMaximizer(Rule):
    """Feasible outcome minimizing total weighted distance to all voters; ties go to the tie-order-best."""

    def __init__(
        self,
        space: EvaluationSpace,
        weights: Sequence[int] | None = None,
        tie: TieOrder | None = None,
    ):
        super().__init__(space, "swm")
        self.weights = validate_weights(weights, space.m)
        self.tie = TieOrder.ascending(space) if tie is None else tie

    @property
    def anonymous(self) -> bool:
        return True

    def block_evaluator(self, n):
        X = self.space.feasible
        S = len(X)
        # key (total distance, tie rank) packed as total * S + rank
        dist = exact_array(_feasible_distances(self.space, self.weights), headroom=n * S) * S
        tie_key = np.array([self.tie.rank(x) for x in X])

        def evaluate(rows):
            key = tie_key + dist[rows[:, 0]]
            for column in rows.T[1:]:
                key += dist[column]
            return np.argmin(key, axis=1)

        return evaluate


class TableRule(Rule):
    """Arbitrary explicit rule; the escape hatch for counterexample rules.

    ``fn`` maps a tuple of feasible rows to an outcome, so this is the one
    rule evaluated profile by profile.
    """

    _gives_masks = True

    def __init__(self, space: EvaluationSpace, fn: Callable[[tuple[int, ...]], int], name: str):
        super().__init__(space, name)
        self._fn = fn

    def block_evaluator(self, n):
        X = self.space.feasible
        return lambda rows: masks_array([self._fn(tuple(X[r] for r in row)) for row in rows.tolist()], self.space.m)


# ---------------------------------------------------------------------------
# committee selection shortcuts


def _committee_size(space: EvaluationSpace) -> int:
    sizes = {x.bit_count() for x in space.feasible}
    if len(sizes) != 1:
        raise ValueError("not a fixed-size committee space")
    k = sizes.pop()
    if len(space.feasible) != math.comb(space.m, k):
        raise ValueError("not a full fixed-size committee space")
    return k


def swm_topk(space: EvaluationSpace, rows: Sequence[int], candidate_order: Sequence[int] | None = None) -> int:
    """Committee of the k most-approved candidates (fixed-size spaces only).

    Ties between equally approved candidates go to the earlier candidate
    in ``candidate_order`` (1-based; identity by default).  Equals the
    welfare maximizer under uniform weights with the induced tie order.
    A one-row call of :func:`_topk_block`.
    """
    return int(_topk_block(space, np.array([rows], dtype=np.uint64), candidate_order)[0])


def _candidate_order(m: int, candidate_order: Sequence[int] | None) -> tuple[int, ...]:
    """The candidate order, 1-based, checked to be a permutation of 1..m; none or an empty one is the identity."""
    order = tuple(candidate_order or range(1, m + 1))
    if sorted(order) != list(range(1, m + 1)):
        raise ValueError("candidate order must be a permutation of 1..m")
    return order


def _topk_block(space: EvaluationSpace, rows: np.ndarray, candidate_order: Sequence[int] | None = None) -> np.ndarray:
    """(B,) uint64 :func:`swm_topk` committees of a (B, n) array of evaluation masks, one profile per row."""
    k = _committee_size(space)
    m = space.m
    order = _candidate_order(m, candidate_order)
    # approvals[b, j]: the rows of profile b approving candidate j + 1
    approvals = issue_bits(rows.ravel(), m).reshape(m, *rows.shape).sum(axis=2).T
    # later[j]: the candidates after candidate j + 1 in the order, so keys are distinct
    # and rank by approvals first, then by the order
    later = np.empty(m, dtype=np.int64)
    later[np.array(order) - 1] = np.arange(m - 1, -1, -1)
    top = np.argsort(-(approvals * m + later), axis=1)[:, :k]
    return (np.uint64(1) << (m - 1 - top).astype(np.uint64)).sum(axis=1, dtype=np.uint64)


def committee_tie_order(space: EvaluationSpace, candidate_order: Sequence[int] | None = None) -> TieOrder:
    """Tie order matching the top-k selection: earlier candidates break ties.

    Committees are ranked so that, among any set, the best is the one
    containing the earliest candidate (per ``candidate_order``) not in
    all of them.  With the identity order this is descending mask order.
    """
    _committee_size(space)
    m = space.m
    order = _candidate_order(m, candidate_order)

    def permuted(mask: int) -> int:
        out = 0
        for p, j in enumerate(order):
            out |= bit_at(mask, j, m) << (m - 1 - p)
        return out

    ranking = sorted(space.feasible, key=lambda x: -permuted(x))
    return TieOrder(space, ranking, name="committee-lex")


# ---------------------------------------------------------------------------
# rule grammar


@dataclass(frozen=True)
class RuleSpec:
    """Parsed form of the textual rule grammar."""

    kind: str
    params: tuple = ()
    corrected: bool = False
    raw: str = ""

    def build(
        self,
        space: EvaluationSpace,
        n: int,
        weights: Sequence[int] | None = None,
        tie: TieOrder | None = None,
    ) -> Rule:
        """Bind the spec to a space and electorate size."""
        if self.kind == "dictator":
            (voter,) = self.params
            if not 1 <= voter <= n:
                raise ValueError(f"dictator voter must be in 1..{n}, got {voter}")
            return Dictator(space, voter)
        if self.kind in ("majority", "quota"):
            if self.kind == "majority":
                stage = IiaStage.majority(n, space.m)
            else:
                thresholds = self.params
                if len(thresholds) != space.m:
                    raise ValueError(f"quota needs {space.m} thresholds, got {len(thresholds)}")
                stage = IiaStage.quota(n, thresholds)
            if self.corrected:
                return NearestNeighborRule(space, stage, weights, tie, name=self.raw)
            return StageRule(space, stage, name=self.raw)
        if self.kind == "plurality":
            return Plurality(space, tie)
        if self.kind == "partition":
            blocks = self.params
            if len(blocks) > n:
                raise ValueError(f"partition has {len(blocks)} blocks but n={n}")
            # voters beyond the listed blocks simply get no influence
            blocks = blocks + (frozenset(),) * (n - len(blocks))
            return Partition(space, blocks)
        if self.kind == "swm":
            return WelfareMaximizer(space, weights, tie)
        raise ValueError(f"unknown rule kind {self.kind!r}")


def parse_rule(text: str) -> RuleSpec:
    """Parse the CLI rule grammar.

    dictator:<i> | majority | quota:<t1,...,tm> | plurality |
    partition:<K1;K2;...> | nn(majority) | nn(quota:...) | swm
    """
    raw = text.strip()
    body = raw
    corrected = False
    if body.startswith("nn(") and body.endswith(")"):
        corrected = True
        body = body[3:-1].strip()
    if body == "majority":
        return RuleSpec("majority", (), corrected, raw)
    if body.startswith("quota:"):
        try:
            thresholds = tuple(int(t) for t in body[len("quota:") :].split(","))
        except ValueError:
            raise ValueError(f"bad quota thresholds in {raw!r}") from None
        return RuleSpec("quota", thresholds, corrected, raw)
    if corrected:
        raise ValueError(f"nn(...) takes majority or quota:..., got {raw!r}")
    if body == "plurality":
        return RuleSpec("plurality", raw=raw)
    if body == "swm":
        return RuleSpec("swm", raw=raw)
    if body.startswith("dictator:"):
        try:
            voter = int(body[len("dictator:") :])
        except ValueError:
            raise ValueError(f"bad dictator voter in {raw!r}") from None
        return RuleSpec("dictator", (voter,), raw=raw)
    if body.startswith("partition:"):
        blocks = []
        for part in body[len("partition:") :].split(";"):
            part = part.strip()
            if not part:
                blocks.append(frozenset())
                continue
            try:
                blocks.append(frozenset(int(j) for j in part.split(",")))
            except ValueError:
                raise ValueError(f"bad partition block {part!r} in {raw!r}") from None
        return RuleSpec("partition", tuple(blocks), raw=raw)
    raise ValueError(f"unknown rule spec {raw!r}")


# ---------------------------------------------------------------------------
# exhaustive profile machinery


def lattice_rows(space: EvaluationSpace, lattice: Lattice, pid: int) -> tuple[int, ...]:
    """The feasible rows of the lattice's profile ``pid``."""
    return tuple(space.feasible[r] for r in lattice.rows(pid, pid + 1)[0].tolist())


def outcome_table(space: EvaluationSpace, rule: Rule, n: int, budget: int = DEFAULT_BUDGET) -> OutcomeTable:
    """Rule outcome for every profile, indexed by canonical profile id.

    The table stores one narrow code per profile into its ``values``:
    the feasible index of the outcome for a rule whose outcomes are
    feasible, else its rank among the distinct outcomes (stage and
    table rules).  Indexing or iterating it yields outcome masks.
    """
    return lattice_table(space, rule, search_lattice(space, n, None, 1, budget, "outcome table"))


def search_lattice(
    space: EvaluationSpace, n: int, rule: Rule | None, per_profile: int, budget: int, context: str
) -> Lattice:
    """The lattice a search walks, once its probes are charged to the budget.

    Without a rule that is every ordered profile, which :func:`outcome_table`
    tabulates and the other structural checks walk with no table.  A
    search for the first hit of ``rule`` (a hunt, or the monotone check)
    walks the multiset lattice when the rule is anonymous, else the
    ordered profiles of the voters it reads (see :mod:`binagg.engine`).
    The search makes ``per_profile`` probes per profile, and builds the
    lattice's table with :func:`lattice_table`, unless it walks pivot
    types (hunts of ``nn(...)`` rules).
    """
    if n < 1:
        raise ValueError(f"a profile needs at least one voter, got n={n}")
    if rule is None:
        lattice = ProfileLattice(space.size, n)
    elif rule.anonymous:
        lattice = MultisetLattice(space.size, n)
    else:
        lattice = ProfileLattice(space.size, n, rule.influential(n))
    required = lattice.size * per_profile
    if required > budget:
        raise BudgetExceededError(required, budget, f"{context} over {lattice}")
    return lattice


def check_bound(space: EvaluationSpace, rule: Rule) -> None:
    """Refuse a rule built for a space with other feasible evaluations."""
    if rule.space is not space and rule.space.feasible != space.feasible:
        raise ValueError(f"{rule!r} is bound to another space")


def lattice_table(space: EvaluationSpace, rule: Rule, lattice: Lattice) -> OutcomeTable:
    """Rule outcome for every profile of the lattice, indexed by its ids.

    Codes are feasible indices over ``space.feasible`` for a rule whose
    outcomes are feasible, and ranks among the distinct outcomes for a
    stage or table rule.  Each search, and the monotone check, builds its
    one table here, and no other structural check builds one;
    :func:`outcome_table` is this table over every ordered profile.
    """
    check_bound(space, rule)
    return build_table(space, lattice, rule.block_evaluator(lattice.n), indexed=not rule._gives_masks)


# ---------------------------------------------------------------------------
# structural property checks


@dataclass(frozen=True)
class StructuralReport:
    """Exhaustive verdict for one structural property of a rule."""

    property: str
    holds: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    issue: int | None = None
    detail: str = ""


_PROPERTIES = ("iia", "monotone", "anonymous", "dictatorial")


def check_structural(
    space: EvaluationSpace,
    rule: Rule,
    n: int,
    property: str,
    budget: int = DEFAULT_BUDGET,
) -> StructuralReport:
    """Exhaustively decide a structural property over all profiles.

    Witnesses are pairs of profiles, the canonically first pair that
    violates the property under a single left-to-right scan.  Only the
    monotone check builds an outcome table, because its probe scan reads
    the outcomes of lied profiles.  That check walks the multiset lattice
    for an anonymous rule, whose first violation is the canonical first
    one, and the ordered profiles of the voters it reads for any other rule
    (see :mod:`binagg.engine`).  The other checks walk every ordered
    profile in blocks, read each block's outcomes from the rule's
    evaluator, and stop in the block of their first violation.  The
    anonymity check of a rule anonymous by construction
    (``Rule.anonymous``) HOLDS once its budget is charged, with no walk.
    """
    if property not in _PROPERTIES:
        raise ValueError(f"unknown property {property!r}; pick one of {_PROPERTIES}")
    m, S, X = space.m, space.size, space.feasible
    per_profile = {"iia": m, "monotone": n * S, "anonymous": 1, "dictatorial": n}[property]
    lattice = search_lattice(
        space, n, rule if property == "monotone" else None, per_profile, budget, f"structural check {property}"
    )
    if property == "anonymous" and rule.anonymous or property == "iia" and S == 1:
        # anonymous by construction, or one profile, its own partner on every issue: nothing to walk
        return StructuralReport(property, True)

    if property == "monotone":
        table = lattice_table(space, rule, lattice)
        xs, values = masks_array(X, m), masks_array(table.values, m)

        def violated(z, w, x, y):
            # the voter flipped an issue, society flipped it too, and
            # ended opposite to where the voter went
            true, lie, lied = xs[x], xs[y], values[w]
            return ((true ^ lie) & (values[z] ^ lied) & (lie ^ lied)) != 0

        for block in scan(lattice, context_types(lattice, table, violated), violated):
            # the first hit of the first block with one
            pid, i, y, z, w = (int(a[0]) for a in block)
            rows = lattice_rows(space, lattice, pid)
            other = rows[:i] + (X[y],) + rows[i + 1 :]
            res, res2 = table.values[z], table.values[w]
            viol = (rows[i] ^ other[i]) & (res ^ res2) & (other[i] ^ res2)
            return StructuralReport(property, False, (rows, other), issue=m - viol.bit_length() + 1)
        return StructuralReport(property, True)

    check_bound(space, rule)
    evaluate = rule.block_evaluator(n)
    xs = masks_array(X, m)
    # outcome masks of a block of profiles
    outcomes = evaluate if rule._gives_masks else lambda rows: xs[evaluate(rows)]

    if property == "iia":
        # issue j's partner of a profile, the canonically first profile with
        # its issue-j column, gives each voter least[j, its bit]: the least
        # feasible index with that bit on issue j
        bits = issue_bits(X, m)
        least = np.stack([bits.argmin(axis=1), bits.argmax(axis=1)], axis=1)
        # partner[j, c]: the outcome's issue-j bit at the partner of column c
        columns = ProfileLattice(2, n)
        partner = np.empty((m, columns.size), dtype=np.uint8)
        shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)[:, None]
        for start, cols in blocks(columns, m * (n + S + m)):
            out = outcomes(least[np.arange(m)[:, None, None], cols].reshape(-1, n)).reshape(m, -1)
            partner[:, start : start + len(cols)] = (out >> shifts) & 1
        # the rule is independent exactly where it agrees with the per-issue
        # deciders that read partner[j] off each issue-j column
        deciders = _lane_gather(partner, n, np.array(X, dtype=np.uint64))
        for start, rows in blocks(lattice, n + S + m):
            moved = outcomes(rows) ^ deciders(rows)
            hits = np.flatnonzero(moved)
            if hits.size:
                # the first issue that moved holds the highest set bit
                b = int(hits[0])
                j = m - int(moved[b]).bit_length()
                pair = tuple(tuple(X[r] for r in voters.tolist()) for voters in (least[j, bits[j, rows[b]]], rows[b]))
                return StructuralReport(property, False, pair, issue=j + 1)
        return StructuralReport(property, True)

    if property == "anonymous":
        for start, rows in blocks(lattice, n + S + m):
            # X is ascending, so sorting row indices sorts the rows
            hits = np.flatnonzero(evaluate(rows) != evaluate(np.sort(rows, axis=1)))
            if hits.size:
                rows = lattice_rows(space, lattice, start + int(hits[0]))
                return StructuralReport(property, False, (rows, tuple(sorted(rows))))
        return StructuralReport(property, True)

    # dictatorial: first_break[i] is the first profile whose outcome differs from voter i's row
    first_break = [-1] * n
    for start, rows in blocks(lattice, n + S + m):
        overruled = xs[rows] != outcomes(rows)[:, None]
        for i in np.flatnonzero(overruled.any(axis=0)).tolist():
            if first_break[i] < 0:
                first_break[i] = start + int(overruled[:, i].argmax())
        if min(first_break) >= 0:
            break
    if min(first_break) < 0:
        return StructuralReport(property, True, detail=f"dictator is voter {first_break.index(-1) + 1}")
    detail = "; ".join(f"voter {i + 1} overruled at profile {pid}" for i, pid in enumerate(first_break))
    return StructuralReport(property, False, detail=detail)
