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

Array forms of both serve the engine, each cached: per space and
weights, :func:`_feasible_distances`, every distance between feasible
evaluations; per space, weights and tie ranking,
:func:`_correction_table`, the feasible index that ``nn_select`` picks
for every hypercube point.  That table is the one correction built
anywhere: ``nn(...)`` rules, sweeps, stage screens and both halves of
the lemma harvest read it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import _unsigned, block_size, exact_array, issue_bits
from .spaces import EvaluationSpace, to_bits


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

    def best(self, candidates: Iterable[int]) -> int:
        return min(candidates, key=self.rank)

    def __repr__(self):
        return f"TieOrder({self.name}, size={len(self.ranking)})"


def nn_set(space: EvaluationSpace, point: int, weights: Sequence[int] | None = None) -> tuple[int, ...]:
    """All feasible points at minimal weighted distance from ``point``."""
    if space.is_feasible(point):
        return (point,)
    m = space.m
    w = None if weights is None else validate_weights(weights, m)
    best = None
    out: list[int] = []
    for x in space.feasible:
        d = (point ^ x).bit_count() if w is None else weight_of(point, x, w, m)
        if best is None or d < best:
            best = d
            out = [x]
        elif d == best:
            out.append(x)
    return tuple(out)


def nn_select(
    space: EvaluationSpace,
    point: int,
    weights: Sequence[int] | None = None,
    tie: TieOrder | None = None,
) -> int:
    """The tie-order-minimal nearest neighbor (ascending mask order by default)."""
    candidates = nn_set(space, point, weights)
    if len(candidates) == 1:
        return candidates[0]
    if tie is None:
        return candidates[0]  # nn_set is ascending already
    return tie.best(candidates)


def _distances(rows: Sequence[int], columns: Sequence[int], weights: tuple[int, ...], m: int) -> np.ndarray:
    """(len(rows), len(columns)) weighted distances between masks on m issues, exact in :func:`engine.exact_array`'s dtype.

    Summed issue by issue, in int64 while the total weight fits and in Python ints past it.
    """
    a, b = issue_bits(rows, m), issue_bits(columns, m)
    dist = np.zeros((len(rows), len(columns)), dtype=np.int64 if sum(weights) < 2**63 else object)
    for j, wj in enumerate(weights):
        dist[a[j][:, None] != b[j]] += wj
    return exact_array(dist)


@lru_cache(maxsize=32)
def _feasible_distances(space: EvaluationSpace, weights: tuple[int, ...]) -> np.ndarray:
    """Read-only (S, S) weighted distances between feasible evaluations, under validated weights."""
    dist = _distances(space.feasible, space.feasible, weights, space.m)
    dist.flags.writeable = False
    return dist


@lru_cache(maxsize=16)
def _correction_table(space: EvaluationSpace, weights, ranking: tuple[int, ...] | None) -> np.ndarray:
    """Read-only feasible index of ``nn_select(space, p, weights, tie)`` for every hypercube point p,
    under the tie order with this ranking (None: no tie order): per block of points, the first nearest
    feasible evaluation in ranking order (ascending without one), by exact distances.  Indices come in
    the narrowest unsigned dtype.

    Keyed on the ranking, not the TieOrder: callers rebuild equal orders
    for every stage.  Sweeps, their one-stage screens, ``nn(...)`` rules
    and the lemma harvest all read this one cache.
    """
    m = space.m
    if m > 20:
        raise ValueError("correction table is practical for m <= 20 only")
    # weight[d]: the total weight of the disagreement mask d, exact (Python ints past int64)
    weight = [0]
    for wj in reversed(uniform_weights(m) if weights is None else weights):
        weight += [d + wj for d in weight]
    weight = exact_array(weight)
    ranking = space.feasible if ranking is None else ranking
    ranked = np.array(ranking, dtype=np.intp)
    index = np.array([space.index(x) for x in ranking], dtype=_unsigned(space.size - 1))
    table = np.empty(1 << m, dtype=index.dtype)
    step = block_size(space.size)
    for at in range(0, 1 << m, step):
        table[at : at + step] = index[weight[np.arange(at, min(at + step, 1 << m))[:, None] ^ ranked].argmin(axis=1)]
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
    sets = {}
    chosen = {}
    for p in outside:
        candidates = frozenset(nn_set(space, p, weights))
        pick = selector(p)
        if pick not in candidates:
            raise ValueError(
                f"not a nearest-neighbor selector: maps {to_bits(p, space.m)} "
                f"to {to_bits(pick, space.m)} outside its nearest set"
            )
        sets[p] = candidates
        chosen[p] = pick
    for i, a in enumerate(outside):
        for b in outside[i + 1 :]:
            alpha, beta = chosen[a], chosen[b]
            if alpha == beta:
                continue
            shared = sets[a] & sets[b]
            if alpha in shared and beta in shared:
                return False, (a, b, alpha, beta)
    return True, None
