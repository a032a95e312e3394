"""Hamming sweeps over every monotone stage of a small space.

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
depends on the type alone.  One walk over the types, as the profile
lattice of m issues taking three values, flags the *bad* ones from
exact distance ranks and the 2^m correction table.

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
free, for any number of voters.  Distances are exact Python integers
compared through their ranks, so any positive weights work, and sweeps
take spaces of any number of feasible evaluations.
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


def _bad_types(space: EvaluationSpace, weights, tie: TieOrder | None) -> np.ndarray:
    """(3^m,) bool: can some opinion gain by some lie under each pivot type?

    Types are numbered as profiles of ``ProfileLattice(3, m)``, whose
    entry j is 0 when the stage fixes issue j at 0, 1 when it copies the
    voter's bit and 2 when it fixes it at 1.
    """
    S, m = space.size, space.m
    correct = _correction_indices(space, weights, tie)
    # rank[x, o]: place of d(x, o) among the distinct distances from x
    rank = np.empty((S, S), dtype=np.intp)
    for x, opinion in enumerate(space.feasible):
        d = [weighted_hamming(opinion, o, weights, m) for o in space.feasible]
        levels = {v: k for k, v in enumerate(sorted(set(d)))}
        rank[x] = [levels[v] for v in d]
    masks = np.array(space.feasible, dtype=np.intp)
    place = 1 << np.arange(m - 1, -1, -1)
    opinions = np.arange(S)
    bad = []
    for _, types in engine.blocks(engine.ProfileLattice(3, m), S * S):
        # outcome[b, y]: feasible index of the corrected outcome when the voter says y
        outcome = correct[((types == 2) @ place)[:, None] | (masks & ((types == 1) @ place)[:, None])]
        # distance[b, x, y]: rank of that outcome's distance from opinion x
        distance = rank[opinions[:, None], outcome[:, None, :]]
        bad.append((distance.min(axis=2) < distance[:, opinions, opinions]).any(axis=1))
    return np.concatenate(bad)


def _first_positions(n: int) -> np.ndarray:
    """(n, 2**(n-1), 3): [i, c, k] is the least position in ``monotone_tables(n)``
    of a decider with pivot type k towards voter i where the others' bits pack to c."""
    truth = engine.truth_bits(monotone_tables(n), n)
    first = np.empty((n, 1 << (n - 1), 3), dtype=np.int64)
    for i in range(n):
        # halves[t, hi, b, lo]: output when voter i votes b and the others pack to (hi, lo)
        halves = truth.reshape(len(truth), -1, 2, 1 << (n - 1 - i))
        kind = (halves[:, :, 0] + halves[:, :, 1]).reshape(len(truth), -1)
        first[i] = (kind[:, :, None] == np.arange(3)).argmax(axis=0)
    return first


def _least_stage(space: EvaluationSpace, n: int, bad: np.ndarray) -> int:
    """Least stage number that shows some voter, in some context, a type flagged in ``bad``."""
    S, m = space.size, space.m
    T = len(monotone_tables(n))
    # keys run up to T^m - 1; past int64, numpy sums Python ints instead
    place = np.array([T ** (m - 1 - j) for j in range(m)], dtype=np.int64 if T**m <= 2**63 else object)
    # scaled[i, j, c, k]: issue j's share of the least stage number showing type k to voter i in column c
    scaled = _first_positions(n)[:, None] * place[:, None, None]
    bits = engine.issue_bits(space)
    voter_bits = 1 << np.arange(n - 2, -1, -1)
    best = T**m
    for _, rows in engine.blocks(engine.ProfileLattice(S, n - 1), 3**m):
        # columns[j, c]: the other voters' bits on issue j, voter 1 most significant
        columns = bits[:, rows] @ voter_bits
        for i in range(n):
            # key[c, b]: least stage number showing type b to voter i in context c, built
            # last issue first so that each sum broadcasts along its long trailing axis
            key = np.zeros((len(rows), 1), dtype=place.dtype)
            for j in range(m - 1, -1, -1):
                key = (scaled[i, j][columns[j]][:, :, None] + key[:, None, :]).reshape(len(rows), -1)
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
    bad = _bad_types(space, weights, tie)
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


def stage_product_count(space: EvaluationSpace, n: int) -> int:
    return len(monotone_tables(n)) ** space.m
