"""Pure-Python reference scanners that the numpy probe engine and the batch sweep are checked against.

These are the original one-profile-at-a-time loops: they call the rule
on every profile and walk every (profile, voter, lie) probe in canonical
order, one stage at a time for sweeps.  They are slow and obviously
correct, which is their job.
"""

import itertools

from binagg.aggregators import IiaStage, NearestNeighborRule, StructuralReport, iter_profiles, monotone_tables
from binagg.manipulation import ManipulationWitness
from binagg.metric import uniform_weights, weighted_hamming


def outcome_list(space, rule, n):
    """Rule outcome for every profile, indexed by canonical profile id."""
    return [rule(rows) for _, _, rows in iter_profiles(space, n)]


def iter_witnesses(space, rule, n, kind, weights=None):
    """Every witness of the given kind, in canonical scan order."""
    w = (tuple(weights) if weights is not None else uniform_weights(space.m)) if kind == "hamming" else None
    out = outcome_list(space, rule, n)
    X = space.feasible
    S = len(X)
    strides = [S ** (n - 1 - i) for i in range(n)]
    m = space.m

    dist = {}
    if kind == "hamming":
        for v in set(out):
            dist[v] = [weighted_hamming(x, v, w, m) for x in X]

    for pid, ridx, rows in iter_profiles(space, n):
        z = out[pid]
        for i in range(n):
            xi = rows[i]
            base = pid - ridx[i] * strides[i]
            for yi in range(S):
                y = X[yi]
                if y == xi:
                    continue
                res = out[base + yi * strides[i]]
                if res == z:
                    continue
                if kind == "hamming":
                    hit = dist[res][ridx[i]] < dist[z][ridx[i]]
                elif kind == "partial":
                    hit = (z ^ xi) & ~(res ^ xi) != 0
                else:
                    hit = (res ^ xi) & (res ^ z) == 0
                if hit:
                    yield ManipulationWitness(m, rows, i + 1, y, z, res, kind, w)


def check_monotone(space, rule, n):
    """The monotone verdict of ``check_structural``, by the original loop."""
    out = outcome_list(space, rule, n)
    m = space.m
    X = space.feasible
    S = len(X)
    for pid, ridx, rows in iter_profiles(space, n):
        res = out[pid]
        for i in range(n):
            stride = S ** (n - 1 - i)
            base = pid - ridx[i] * stride
            xi = rows[i]
            for yi, y in enumerate(X):
                if y == xi:
                    continue
                res2 = out[base + yi * stride]
                # violation: voter flipped the issue, society flipped it
                # too, and ended opposite to where the voter went
                viol = (xi ^ y) & (res ^ res2) & (y ^ res2)
                if viol:
                    j = m - viol.bit_length() + 1
                    other = rows[:i] + (y,) + rows[i + 1 :]
                    return StructuralReport("monotone", False, (rows, other), issue=j)
    return StructuralReport("monotone", True)


def iter_stages(space, n):
    """Every monotone stage, lexicographic over its per-issue truth tables."""
    for tables in itertools.product(monotone_tables(n), repeat=space.m):
        yield IiaStage(n, tables)


def first_manipulable_stage(space, n, weights=None, tie=None):
    """The batch sweep's answer, one corrected stage at a time.

    Returns (stage number, tables, (pid, voter index, lie index)) of the
    first stage with a hamming witness, or None when every stage is free.
    """
    S = space.size
    for sid, stage in enumerate(iter_stages(space, n)):
        rule = NearestNeighborRule(space, stage, weights, tie)
        witness = next(iter_witnesses(space, rule, n, "hamming", weights), None)
        if witness is not None:
            pid = sum(space.index(row) * S ** (n - 1 - i) for i, row in enumerate(witness.profile))
            return sid, stage.tables, (pid, witness.voter - 1, space.index(witness.lie))
    return None
