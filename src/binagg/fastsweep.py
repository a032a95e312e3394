"""Hamming sweeps over every monotone stage of a small space.

A sweep hunts every product of monotone per-issue deciders (20^m stages
for three voters), each corrected into the space by its nearest
neighbour, and returns the first stage with a weighted-Hamming
manipulation.  Stages are numbered lexicographically over their
per-issue truth tables, last issue fastest.

The screen never probes a lie: a voter's *context* (the other voters'
rows) reaches one outcome per lie, and OR-ing ``1 << code`` along the
lie axis of the engine's per-voter stride view gives the context's
reachable-outcome mask in O(P) per voter.  A voter with true opinion x
and truthful outcome z has a profitable lie iff that mask meets
``better[x, z]``, the outcomes strictly closer to x than z, so the
screen flags exactly the manipulable stages.  The first flagged stage's
witness comes from :func:`binagg.manipulation.find_witness` on that one
stage, so every witness is the engine scan's canonical first probe.

Only one stage per voter-permutation orbit is screened.  Permuting the
voters permutes the inputs of every per-issue table at once, and the
corrected rule of the permuted stage is the original one with its
voters relabelled, so the flagged stages form whole orbits.  The first
flagged stage is then the least stage number of its orbit, its
*leader*, and screening the leaders alone, in ascending order, finds
the same stage and witness: 1,875 of 8,000 stages at n = 3, m = 3.
Stage numbers are walked in blocks of ``engine.block_size(P)``, each
keeping the numbers no greater than their images under the other n! - 1
voter orders, so a block's (stages, profiles) temporaries stay within
the engine's element budget.

Distances are exact Python integers, so any positive weights work.
Outcome masks hold one bit per feasible evaluation in 64 bits, which
limits sweeps to spaces of at most 64 evaluations.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from . import engine
from .aggregators import IiaStage, NearestNeighborRule, monotone_tables
from .manipulation import find_witness
from .metric import TieOrder, nn_select, validate_weights, weighted_hamming
from .spaces import EvaluationSpace


def _correction_indices(space: EvaluationSpace, weights, tie: TieOrder | None) -> np.ndarray:
    """Feasible index of the corrected value for every hypercube point."""
    if space.m > 20:
        raise ValueError("correction table is practical for m <= 20 only")
    table = np.empty(1 << space.m, dtype=np.intp)
    for p in range(1 << space.m):
        table[p] = space.index(nn_select(space, p, weights, tie))
    return table


def _better_masks(space: EvaluationSpace, weights) -> np.ndarray:
    """(S, S) uint64: bit o of [x, z] is set when d(x, o) < d(x, z)."""
    X = space.feasible
    rows = []
    for x in X:
        d = [weighted_hamming(x, o, weights, space.m) for o in X]
        rows.append([sum(1 << o for o, do in enumerate(d) if do < dz) for dz in d])
    return np.array(rows, dtype=np.uint64)


def _permuted_positions(n: int) -> np.ndarray:
    """(n! - 1, T) array: [k, t] is the position in ``monotone_tables(n)`` of table t
    with its inputs permuted by the k-th voter order other than the identity."""
    tabs = monotone_tables(n)
    # column c read as a profile on the one-issue space {0, 1}, whose issue bits are [[0, 1]]
    votes, cube = engine.row_indices(0, 1 << n, 2, n), np.array([[0, 1]])
    orders = [list(order) for order in itertools.permutations(range(n))][1:]
    # columns[k, c]: where the permuted table's column c reads the original table
    columns = np.array([engine.packed_columns(cube, votes[:, order])[0] for order in orders], dtype=np.intp)
    permuted = engine.truth_bits(tabs, n)[:, columns.reshape(-1, 1 << n)].astype(np.int64) @ (1 << np.arange(1 << n))
    return np.searchsorted(tabs, permuted.T)


def _leader_blocks(n: int, m: int, width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Ascending (stage numbers, (m, K) table positions) of every orbit leader.

    Stage numbers are walked in blocks of ``engine.block_size(width)``;
    a leader is a stage number no greater than any of its images under
    a voter permutation, and blocks without one are skipped.
    """
    T = len(monotone_tables(n))
    images = _permuted_positions(n)
    place = np.array([T ** (m - 1 - j) for j in range(m)], dtype=np.int64)
    total = T**m
    step = engine.block_size(width)
    for start in range(0, total, step):
        sids = np.arange(start, min(start + step, total), dtype=np.int64)
        digits = np.empty((m, sids.size), dtype=np.intp)
        rest = sids
        for j in range(m - 1, -1, -1):
            rest, digits[j] = np.divmod(rest, T)
        leader = np.ones(sids.size, dtype=bool)
        for image in images:
            leader &= sids <= place @ image[digits]
        if leader.any():
            yield sids[leader], digits[:, leader]


def all_stage_products_hamming_free(
    space: EvaluationSpace,
    n: int,
    weights: Sequence[int] | None = None,
    tie: TieOrder | None = None,
) -> tuple[int, tuple[int, ...], tuple[int, int, int]] | None:
    """Hamming-hunt every product of monotone per-issue deciders.

    Stages run in lexicographic order over per-issue table choices.
    Returns None when every stage is manipulation-free, otherwise the
    first offending (stage number, stage tables, (pid, voter, lie)),
    where the probe is that stage's canonically first witness.
    """
    if n < 1:
        raise ValueError(f"a profile needs at least one voter, got n={n}")
    S, m = space.size, space.m
    if S > 64:
        raise ValueError(f"sweeps support at most 64 feasible evaluations (one mask bit each), space has {S}")
    if weights is not None:
        weights = validate_weights(weights, m)
    tabs = monotone_tables(n)
    P = S**n
    # int64 masks: bit 63 makes them negative, which & and != 0 ignore
    flat_better = _better_masks(space, weights).view(np.int64).ravel()
    nn_idx = _correction_indices(space, weights, tie)
    rows = engine.row_indices(0, P, S, n)
    column = engine.packed_columns(engine.issue_bits(space), rows)
    # per_issue[j][t, pid]: issue j's bit, in place, under table t at profile pid
    truth = engine.truth_bits(tabs, n).astype(np.intp)
    per_issue = [truth[:, column[j]] << (m - 1 - j) for j in range(m)]
    # better[x, z] sits at flat index x * S + z, x being voter i's opinion
    opinion_offsets = [rows[:, i] * S for i in range(n)]
    for sids, digits in _leader_blocks(n, m, P):
        B = sids.size
        value = per_issue[0][digits[0]]
        for j in range(1, m):
            value |= per_issue[j][digits[j]]
        codes = nn_idx[value]
        flagged = np.zeros(B, dtype=bool)
        for i in range(n):
            # in this shape, [b, hi, y, lo] is the outcome when voter i holds y in context (hi, lo)
            shape = (B, -1, S, S ** (n - 1 - i))
            reach = np.bitwise_or.reduce(np.left_shift(1, codes.reshape(shape)), axis=2, keepdims=True)
            closer = flat_better[codes + opinion_offsets[i]].reshape(shape)
            flagged |= (closer & reach).reshape(B, -1).any(axis=1)
        if not flagged.any():
            continue
        first = int(np.argmax(flagged))
        tables = tuple(tabs[t] for t in digits[:, first].tolist())
        rule = NearestNeighborRule(space, IiaStage(n, tables), weights, tie)
        witness = find_witness(space, rule, n, "hamming", weights)
        pid = sum(space.index(row) * S ** (n - 1 - i) for i, row in enumerate(witness.profile))
        return int(sids[first]), tables, (pid, witness.voter - 1, space.index(witness.lie))
    return None


def stage_product_count(space: EvaluationSpace, n: int) -> int:
    return len(monotone_tables(n)) ** space.m
