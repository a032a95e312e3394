"""Hamming sweeps over every monotone stage of a small space.

A sweep hunts every product of monotone per-issue deciders (20^m stages
for three voters), each corrected into the space by its nearest
neighbour, and returns the first stage with a weighted-Hamming
manipulation.  Stages are numbered lexicographically over their
per-issue truth tables, last issue fastest.

The stages are screened in blocks of ``engine.block_size(P)`` stages,
so a block's (stages, profiles) temporaries stay within the engine's
element budget.  The screen never probes a lie: a voter's *context* (the
other voters' rows) reaches one outcome per lie, and OR-ing ``1 << code``
along the lie axis of the engine's per-voter stride view gives the
context's reachable-outcome mask in O(P) per voter.  A voter with true
opinion x and truthful outcome z has a profitable lie iff that mask
meets ``better[x, z]``, the outcomes strictly closer to x than z, so the
screen flags exactly the manipulable stages.  The first flagged stage's
witness comes from :func:`binagg.manipulation.find_witness` on that one
stage, so every witness is the engine scan's canonical first probe.

Distances are exact Python integers, so any positive weights work.
Outcome masks hold one bit per feasible evaluation in 64 bits, which
limits sweeps to spaces of at most 64 evaluations.
"""

from __future__ import annotations

from typing import Sequence

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


def _stage_tables(sid: int, tabs: tuple[int, ...], m: int) -> tuple[int, ...]:
    digits = []
    for _ in range(m):
        sid, t = divmod(sid, len(tabs))
        digits.append(tabs[t])
    return tuple(reversed(digits))


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
    S, m = space.size, space.m
    if S > 64:
        raise ValueError(f"sweeps support at most 64 feasible evaluations (one mask bit each), space has {S}")
    if weights is not None:
        weights = validate_weights(weights, m)
    tabs = monotone_tables(n)
    T = len(tabs)
    total = T**m
    P = S**n
    # int64 masks: bit 63 makes them negative, which & and != 0 ignore
    flat_better = _better_masks(space, weights).view(np.int64).ravel()
    nn_idx = _correction_indices(space, weights, tie)
    rows = engine.row_indices(0, P, S, n)
    bits = engine.issue_bits(space)
    # column[j, pid]: issue j's packed column; truth[t, c]: bit c of table t
    column = sum(bits[:, rows[:, i]] << (n - 1 - i) for i in range(n))
    truth = np.array([[(t >> c) & 1 for c in range(1 << n)] for t in tabs], dtype=np.intp)
    per_issue = [truth[:, column[j]] << (m - 1 - j) for j in range(m)]
    # better[x, z] sits at flat index x * S + z, x being voter i's opinion
    opinion_offsets = [rows[:, i] * S for i in range(n)]
    step = engine.block_size(P)
    for start in range(0, total, step):
        sids = np.arange(start, min(start + step, total), dtype=np.int64)
        B = sids.size
        value = np.zeros((B, P), dtype=np.intp)
        rest = sids
        for j in range(m - 1, -1, -1):
            rest, tid = np.divmod(rest, T)
            value |= per_issue[j][tid]
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
        sid = start + int(np.argmax(flagged))
        tables = _stage_tables(sid, tabs, m)
        rule = NearestNeighborRule(space, IiaStage(n, tables), weights, tie)
        witness = find_witness(space, rule, n, "hamming", weights)
        pid = sum(space.index(row) * S ** (n - 1 - i) for i, row in enumerate(witness.profile))
        return sid, tables, (pid, witness.voter - 1, space.index(witness.lie))
    return None


def stage_product_count(space: EvaluationSpace, n: int) -> int:
    return len(monotone_tables(n)) ** space.m
