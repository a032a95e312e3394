"""Hamming sweeps over every monotone stage.

A sweep hunts every product of monotone per-issue deciders (20^m stages
for three voters), each corrected into the space by its nearest
neighbour, and returns the first stage with a weighted-Hamming
manipulation.  Stages are numbered lexicographically over their
per-issue truth tables, last issue fastest.

No stage is enumerated.  Fix a voter i and the other voters' rows, a
*context*.  Monotone deciders cannot invert a vote, so on each issue the
stage then fixes the output at 0, copies voter i's bit, or fixes it at
1.  Every lie y therefore yields the stage output F | (y & D) for one
of 3^m *pivot types* (F, D), and whether some opinion gains by some lie
depends on the type alone.  A type is itself a context row: the
corrected outcome of each lie, read off the 2^m correction table.  It is
*bad* when some opinion x gains, by the probe scan's own test
(``manipulation._hit_fn``), by moving from row[x] to an outcome the row
reaches: one walk over the types, in blocks, flags each type's opinions
from S^3 gain bit masks (``manipulation._bad_types``), 3^m * S *
ceil(S/64) word ANDs.

A stage is manipulable exactly when some (voter, context) shows it a
bad type.  The stages showing type b at (i, c) form a product over
issues, so the least of them is sum_j first[i, col_j(c), b_j] * T^(m-1-j),
where ``first`` is the least position in ``monotone_tables(n)`` of a
decider behaving like b_j under issue j's context column.  The first
manipulable stage is the minimum of that sum over voters, contexts and
bad types.  Contexts are walked in ``engine.blocks`` of the other
voters' profile lattice, one key per type each, so a block's
temporaries stay within the engine's element budget.  The witness
comes from :func:`binagg.manipulation.find_witness` on that one stage,
so it is the engine scan's canonical first probe.

Constant and dictator deciders show every type in every context, so
the verdict does not depend on n: no bad type means every stage is
free, for any number of voters.  Distances are exact integers, so any
positive weights work, and sweeps take spaces of any number of
feasible evaluations.

The sweep reads its bad types off one cached type table per correction
(``manipulation._type_table``).  The same argument, applied to each
(profile, voter) of one corrected stage, is one of the two type sources
of the probe walk (``engine.scan``): hunts of ``nn(...)`` rules of every
kind read each pair's pivot type off the profile's issue columns
(``manipulation._pivot_types``) instead of keying context rows off an
outcome table, and switch to the same cached table once their walk
would cost more (see :mod:`binagg.manipulation`), where a full hunt
with no bad type ends before its walk: Theorem 4.2's certificate.
Hunts of every other rule, bare stages included, key context rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import engine, manipulation
from .aggregators import IiaStage, NearestNeighborRule, monotone_tables
from .manipulation import find_witness
from .metric import TieOrder, nn_select, validate_weights  # noqa: F401  bench/spans.py wraps nn_select
from .spaces import EvaluationSpace


def _pivot_kinds(truth: np.ndarray, n: int, i: int) -> np.ndarray:
    """(T, 2**(n-1)): [t, c] is the pivot type of truth-bit row t towards voter i
    where the others' bits pack to c: 0 fixed at 0, 1 copying the voter, 2 fixed at 1."""
    # halves[t, hi, b, lo]: output when voter i votes b and the others pack to (hi, lo)
    halves = truth.reshape(len(truth), -1, 2, 1 << (n - 1 - i))
    return (halves[:, :, 0] + halves[:, :, 1]).reshape(len(truth), -1)


def _context_columns(space: EvaluationSpace, n: int, width: int) -> Iterator[np.ndarray]:
    """(m, B) issue columns per block of the other n-1 voters' profiles, ``width`` elements per context:
    [j, c] packs their bits on issue j in context c, the first of them most significant."""
    bits = engine.issue_bits(space.feasible, space.m)
    voter_bits = 1 << np.arange(n - 2, -1, -1)
    for _, rows in engine.blocks(engine.ProfileLattice(space.size, n - 1), width):
        yield bits[:, rows] @ voter_bits


@lru_cache(maxsize=8)
def _first_positions(n: int) -> np.ndarray:
    """(n, 2**(n-1), 3): [i, c, k] is the least position in ``monotone_tables(n)`` of a decider
    with pivot type k towards voter i where the others' bits pack to c (read-only: it is shared)."""
    truth = engine.truth_bits(monotone_tables(n), n)
    first = np.empty((n, 1 << (n - 1), 3), dtype=np.int64)
    for i in range(n):
        first[i] = (_pivot_kinds(truth, n, i)[:, :, None] == np.arange(3)).argmax(axis=0)
    first.flags.writeable = False
    return first


def _least_stage(space: EvaluationSpace, n: int, bad: np.ndarray) -> int:
    """Least stage number that shows some voter, in some context, a type flagged in ``bad``."""
    m = space.m
    T = len(monotone_tables(n))
    # keys run up to T^m - 1; past int64, numpy sums Python ints instead
    place = np.array([T ** (m - 1 - j) for j in range(m)], dtype=np.int64 if T**m <= 2**63 else object)
    # scaled[i, j, c, k]: issue j's share of the least stage number showing type k to voter i in column c
    scaled = _first_positions(n)[:, None] * place[:, None, None]
    best = T**m
    for columns in _context_columns(space, n, 3**m):
        B = columns.shape[1]
        for i in range(n):
            # key[c, b]: least stage number showing type b to voter i in context c, built
            # last issue first so that each sum broadcasts along its long trailing axis
            key = np.zeros((B, 1), dtype=place.dtype)
            for j in range(m - 1, -1, -1):
                key = (scaled[i, j][columns[j]][:, :, None] + key[:, None, :]).reshape(B, -1)
            best = min(best, int(key.min(axis=0)[bad].min()))
    return best


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
    if weights is not None:
        weights = validate_weights(weights, m)
    bad = manipulation._type_table(space, weights, None if tie is None else tie.ranking, "hamming").any(axis=1)
    if not bad.any():
        return None
    tabs = monotone_tables(n)
    T = len(tabs)
    best = _least_stage(space, n, bad)
    digits, rest = [], best
    for _ in range(m):
        rest, digit = divmod(rest, T)
        digits.append(digit)
    tables = tuple(tabs[d] for d in reversed(digits))
    rule = NearestNeighborRule(space, IiaStage(n, tables), weights, tie)
    witness = find_witness(space, rule, n, "hamming", weights)
    pid = sum(space.index(row) * S ** (n - 1 - i) for i, row in enumerate(witness.profile))
    return best, tables, (pid, witness.voter - 1, space.index(witness.lie))
