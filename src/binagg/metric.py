"""Weighted Hamming distances, nearest-neighbor selection and tie orders.

Weights are positive integers and all comparisons are exact integer
arithmetic: ties between candidate nearest neighbors carry real meaning
downstream, and floats would blur them.  Any rational weight vector can
be scaled to integers without changing a single argmin.

Deterministic tie-breaking is expressed as a :class:`TieOrder`, a fixed
total order on the feasible set.  Selecting the order-minimal element of
a nearest-neighbor set is a non-crossing selector: two infeasible points
sharing two candidates can never be resolved in opposite directions.
``check_h2`` audits that non-crossing property for arbitrary selectors.

One exact kernel, :func:`_weigh`, computes every distance, one gather
per 16 issues, and :func:`_first_nearest` on it makes every correction:
the first nearest feasible evaluation of each of an array of points, in
tie order.  Cached, :func:`_feasible_distances` holds every distance
between feasible evaluations and :func:`_correction_table` the
correction of every hypercube point, the one table that ``nn(...)``
rules, sweeps, type tables and both halves of the lemma harvest read.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .engine import _unsigned, block_size, exact_array, masks_array
from .spaces import MAX_TABLE_ISSUES, EvaluationSpace, to_bits


def validate_weights(weights: Sequence[int], m: int) -> tuple[int, ...]:
    """Require one positive integer weight per issue."""
    w = tuple(weights)
    if len(w) != m:
        raise ValueError(f"need {m} weights, got {len(w)}")
    for j, wj in enumerate(w, start=1):
        if not isinstance(wj, int) or isinstance(wj, bool) or wj < 1:
            raise ValueError(f"weight for issue {j} must be a positive integer, got {wj!r}")
    return w


def uniform_weights(m: int) -> tuple[int, ...]:
    return (1,) * m


def weight_of(a: int, b: int, w: tuple[int, ...], m: int) -> int:
    """``weighted_hamming`` for weights already validated."""
    diff = a ^ b
    if diff >= (1 << m) or a < 0 or b < 0:
        raise ValueError(f"evaluation out of range for m={m}")
    total = 0
    while diff:
        low = diff & -diff
        total += w[m - low.bit_length()]
        diff ^= low
    return total


def weighted_hamming(a: int, b: int, weights: Sequence[int] | None = None, m: int | None = None) -> int:
    """Total weight of the issues on which a and b disagree.

    With no weights this is the plain Hamming distance and m is not needed.
    """
    if weights is None:
        return (a ^ b).bit_count()
    if m is None:
        m = len(weights)
    return weight_of(a, b, validate_weights(weights, m), m)


class TieOrder:
    """A fixed total order on the feasible set, best rank first."""

    def __init__(self, space: EvaluationSpace, ranking: Sequence[int], name: str = "custom"):
        ranking = tuple(ranking)
        if sorted(ranking) != list(space.feasible):
            raise ValueError("ranking must be a permutation of the feasible set")
        self.space = space
        self.ranking = ranking
        self.name = name
        self._rank = {x: i for i, x in enumerate(ranking)}

    @classmethod
    def ascending(cls, space: EvaluationSpace) -> "TieOrder":
        return cls(space, space.feasible, name="ascending")

    @classmethod
    def descending(cls, space: EvaluationSpace) -> "TieOrder":
        return cls(space, tuple(reversed(space.feasible)), name="descending")

    @classmethod
    def shuffled(cls, space: EvaluationSpace, seed: int) -> "TieOrder":
        order = list(space.feasible)
        random.Random(seed).shuffle(order)
        return cls(space, order, name=f"shuffled(seed={seed})")

    def rank(self, mask: int) -> int:
        try:
            return self._rank[mask]
        except KeyError:
            raise ValueError(f"evaluation not ranked by this tie order: {mask}") from None

    def __repr__(self):
        return f"TieOrder({self.name}, size={len(self.ranking)})"


#: issues per gather of the distance kernel (:func:`_weigh`)
CHUNK = 16


@lru_cache(maxsize=32)
def _chunk_tables(weights: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only total weight of every disagreement mask of each CHUNK-issue chunk, last issues first,
    all in :func:`engine.exact_array`'s dtype for the total weight, so any sum of chunks stays exact."""
    dtype = exact_array([sum(weights)]).dtype
    tables = []
    for at in range(0, len(weights), CHUNK):
        table = np.zeros(1, dtype=dtype)
        for wj in weights[::-1][at : at + CHUNK]:
            table = np.concatenate((table, table + wj))
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _weigh(diff: np.ndarray, weights: tuple[int, ...]) -> np.ndarray:
    """Total weight of each disagreement mask in ``diff`` (an unsigned or intp array of masks on
    len(weights) issues), exactly: one gather per CHUNK issues, a single one up to CHUNK issues."""
    tables = _chunk_tables(weights)
    if len(tables) == 1:
        return tables[0][diff]
    low = np.array((1 << CHUNK) - 1, dtype=diff.dtype)
    return sum(table[(diff >> np.array(k * CHUNK, dtype=diff.dtype)) & low] for k, table in enumerate(tables))


def _first_nearest(space: EvaluationSpace, points: np.ndarray, weights, ranking: tuple[int, ...] | None) -> np.ndarray:
    """Feasible index, in the narrowest unsigned dtype, of each point's first nearest feasible evaluation in
    the order of this tie ranking (None: ascending) under the weights (None: uniform), a block at a time."""
    m, S = space.m, space.size
    weights = uniform_weights(m) if weights is None else weights
    ranked = masks_array(space.feasible if ranking is None else ranking, m)
    index = np.searchsorted(masks_array(space.feasible, m), ranked).astype(_unsigned(S - 1))
    nearest = np.empty(points.shape, dtype=index.dtype)
    step = block_size(S)
    for at in range(0, len(points), step):
        nearest[at : at + step] = index[_weigh(points[at : at + step, None] ^ ranked, weights).argmin(axis=1)]
    return nearest


def nn_select(space: EvaluationSpace, point: int, weights: Sequence[int] | None = None, tie: TieOrder | None = None):
    """The tie-order-minimal nearest neighbor (ascending mask order by default)."""
    if not 0 <= point < 1 << space.m:
        raise ValueError(f"evaluation out of range for m={space.m}")
    w = None if weights is None else validate_weights(weights, space.m)
    nearest = _first_nearest(space, masks_array([point], space.m), w, None if tie is None else tie.ranking)
    return space.feasible[nearest[0]]


def _distances(rows: Sequence[int], columns: Sequence[int], weights: tuple[int, ...], m: int) -> np.ndarray:
    """(len(rows), len(columns)) weighted distances between masks on m issues, exact (see :func:`_chunk_tables`)."""
    return _weigh(masks_array(rows, m)[:, None] ^ masks_array(columns, m), weights)


@lru_cache(maxsize=32)
def _feasible_distances(space: EvaluationSpace, weights: tuple[int, ...]) -> np.ndarray:
    """Read-only (S, S) weighted distances between feasible evaluations, under validated weights."""
    dist = _distances(space.feasible, space.feasible, weights, space.m)
    dist.flags.writeable = False
    return dist


@lru_cache(maxsize=16)
def _correction_table(space: EvaluationSpace, weights, ranking: tuple[int, ...] | None) -> np.ndarray:
    """Read-only :func:`_first_nearest` of every hypercube point: the feasible index of its first
    nearest feasible evaluation in the order of this tie ranking (None: ascending).

    Keyed on the ranking, not the TieOrder: callers rebuild equal orders
    for every stage.  Sweeps, type tables, ``nn(...)`` rules
    and the lemma harvest all read this one cache.
    """
    if space.m > MAX_TABLE_ISSUES:
        raise ValueError(f"correction table is practical for m <= {MAX_TABLE_ISSUES} only")
    table = _first_nearest(space, np.arange(1 << space.m), weights, ranking)
    table.flags.writeable = False
    return table


def check_h2(
    selector: Callable[[int], int],
    space: EvaluationSpace,
    weights: Sequence[int] | None = None,
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Audit a nearest-neighbor selector for crossing tie decisions.

    The selector must map every infeasible point to one of its nearest
    neighbors (anything else is an error, not a counterexample).  It
    fails the audit when two infeasible points a and b share candidates
    alpha and beta yet resolve to different members of the shared set;
    the witness (a, b, alpha, beta) is returned.
    """
    outside = space.infeasible()
    X, m = space.feasible, space.m
    dist = _distances(outside, X, uniform_weights(m) if weights is None else validate_weights(weights, m), m)
    nearest = (dist == dist.min(axis=1, keepdims=True)).tolist()
    sets = {p: frozenset(x for x, near in zip(X, row) if near) for p, row in zip(outside, nearest)}
    chosen = {}
    for p in outside:
        pick = chosen[p] = selector(p)
        if pick not in sets[p]:
            raise ValueError(
                f"not a nearest-neighbor selector: maps {to_bits(p, m)} "
                f"to {to_bits(pick, m)} outside its nearest set"
            )
    for i, a in enumerate(outside):
        for b in outside[i + 1 :]:
            alpha, beta = chosen[a], chosen[b]
            if alpha == beta:
                continue
            shared = sets[a] & sets[b]
            if alpha in shared and beta in shared:
                return False, (a, b, alpha, beta)
    return True, None
