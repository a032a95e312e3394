"""Vectorized exhaustive manipulation hunts over batches of stages.

The single-rule search in :mod:`binagg.manipulation` hunts one rule at
a time on the chunked engine of :mod:`binagg.engine`.  Sweeping *every*
monotone stage of a small space (20^m of them for three voters) adds a
stage axis instead.  This module reproduces exactly the same probe
order with numpy gathers: profiles ascending, voters ascending, lies
ascending, stages enumerated lexicographically over their per-issue
truth tables.  Witnesses found here must match the single-rule search
probe for probe, and the test suite cross-checks that.

Only the weighted-Hamming manipulation kind is implemented; the batch
sweeps exist for Hamming certification sweeps and nothing else.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .aggregators import IiaStage, monotone_tables
from .metric import TieOrder, nn_select, validate_weights, weighted_hamming
from .spaces import EvaluationSpace


def _profile_arrays(space: EvaluationSpace, n: int):
    """Per-(space, n) gather tables for the vectorized probe lattice."""
    X = space.feasible
    S = len(X)
    m = space.m
    P = S**n
    pid = np.arange(P, dtype=np.int64)
    row_idx = np.empty((P, n), dtype=np.int32)
    for i in range(n):
        stride = S ** (n - 1 - i)
        row_idx[:, i] = (pid // stride) % S
    Xa = np.array(X, dtype=np.int64)
    # column value per issue, voter 1 most significant
    col = np.zeros((m, P), dtype=np.int32)
    for j in range(1, m + 1):
        for i in range(n):
            col[j - 1] += ((Xa[row_idx[:, i]] >> (m - j)) & 1).astype(np.int32) << (n - 1 - i)
    # profile id after replacing voter i's row by feasible index y
    repl = np.empty((P, n, S), dtype=np.int32)
    for i in range(n):
        stride = S ** (n - 1 - i)
        base = (pid - row_idx[:, i] * stride).astype(np.int32)
        repl[:, i, :] = base[:, None] + np.arange(S, dtype=np.int32)[None, :] * stride
    return Xa, row_idx, col, repl


def _correction_indices(space: EvaluationSpace, weights, tie: TieOrder | None) -> np.ndarray:
    """Feasible index of the corrected value for every hypercube point."""
    if space.m > 20:
        raise ValueError("correction table is practical for m <= 20 only")
    table = np.empty(1 << space.m, dtype=np.int32)
    for p in range(1 << space.m):
        table[p] = space.index(nn_select(space, p, weights, tie))
    return table


def _distance_matrix(space: EvaluationSpace, weights) -> np.ndarray:
    X = space.feasible
    m = space.m
    return np.array(
        [[weighted_hamming(a, b, weights, m) for b in X] for a in X], dtype=np.int32
    )


def _first_hit(hits: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True in C order, or None."""
    flat = np.flatnonzero(hits.reshape(-1))
    if flat.size == 0:
        return None
    return tuple(int(v) for v in np.unravel_index(flat[0], hits.shape))


def stage_hamming_hunt(
    space: EvaluationSpace,
    stage: IiaStage,
    n: int,
    weights: Sequence[int] | None = None,
    tie: TieOrder | None = None,
) -> tuple[int, int, int] | None:
    """Vectorized hunt for one corrected stage; returns (pid, voter, lie index).

    Mirrors the reference scanner's canonical order exactly.
    """
    if stage.n > 5:
        raise ValueError("vectorized hunts support stage arity <= 5 (table fits an int64 shift)")
    if weights is not None:
        weights = validate_weights(weights, space.m)
    Xa, row_idx, col, repl = _profile_arrays(space, n)
    nn_idx = _correction_indices(space, weights, tie)
    D = _distance_matrix(space, weights)
    m = space.m
    value = np.zeros(col.shape[1], dtype=np.int32)
    for j in range(1, m + 1):
        value += ((stage.tables[j - 1] >> col[j - 1]) & 1).astype(np.int32) << (m - j)
    outcome = nn_idx[value]  # (P,) feasible indices
    dz = D[row_idx, outcome[:, None]]  # (P, n)
    w = outcome[repl]  # (P, n, S)
    dw = D[row_idx[:, :, None], w]  # (P, n, S)
    return _first_hit(dw < dz[:, :, None])


def all_stage_products_hamming_free(
    space: EvaluationSpace,
    n: int,
    weights: Sequence[int] | None = None,
    tie: TieOrder | None = None,
    chunk: int | None = None,
) -> tuple[int, tuple[int, ...], tuple[int, int, int]] | None:
    """Hamming-hunt every product of monotone per-issue deciders.

    Stages run in lexicographic order over per-issue table choices.
    Returns None when every stage is manipulation-free, otherwise the
    first offending (stage number, stage tables, (pid, voter, lie)).
    """
    if weights is not None:
        weights = validate_weights(weights, space.m)
    m = space.m
    tabs = monotone_tables(n)
    T = len(tabs)
    total = T**m
    Xa, row_idx, col, repl = _profile_arrays(space, n)
    nn_idx = _correction_indices(space, weights, tie)
    D = _distance_matrix(space, weights)
    # bit of monotone table t at column c
    M = np.array([[(t >> c) & 1 for c in range(1 << n)] for t in tabs], dtype=np.int32)
    per_issue = [M[:, col[j]] for j in range(m)]  # each (T, P)

    P = col.shape[1]
    S = space.size
    if chunk is None:
        # keep the (B, P, n, S) temporaries around a few dozen MB
        chunk = max(1, 8_000_000 // max(1, P * n * S))
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        value = np.zeros((ids.size, P), dtype=np.int32)
        rest = ids.copy()
        for j in range(m - 1, -1, -1):
            tid = rest % T
            rest //= T
            value += per_issue[j][tid] << (m - 1 - j)
        outcome = nn_idx[value]  # (B, P)
        dz = D[row_idx[None, :, :], outcome[:, :, None]]  # (B, P, n)
        w = outcome[np.arange(ids.size)[:, None, None, None], repl[None, :, :, :]]
        dw = D[row_idx[None, :, :, None], w]  # (B, P, n, S)
        hit = _first_hit(dw < dz[:, :, :, None])
        if hit is None:
            continue
        b, pid, voter, lie = hit
        sid = start + b
        digits = []
        rest = sid
        for _ in range(m):
            digits.append(tabs[rest % T])
            rest //= T
        stage_tables = tuple(reversed(digits))
        return sid, stage_tables, (pid, voter, lie)
    return None


def stage_product_count(space: EvaluationSpace, n: int) -> int:
    return len(monotone_tables(n)) ** space.m


def iter_stage_products(space: EvaluationSpace, n: int):
    """All monotone stages in the sweep's lexicographic order."""
    tabs = monotone_tables(n)
    for combo in itertools.product(tabs, repeat=space.m):
        yield IiaStage(n, combo)
