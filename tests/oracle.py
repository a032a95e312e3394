"""Pure-Python reference scanners that the numpy probe engine and the batch sweep are checked against.

These are the original one-profile-at-a-time loops.  The reference
evaluators are the per-profile rule bodies, :func:`outcome` and
:func:`stage_output`, and the top-k committee selection,
:func:`swm_topk`, which the library evaluates in array blocks
instead.  The scanners evaluate the rule on every profile through them,
walk every (profile, voter, lie) probe in canonical order, one stage at
a time for sweeps, and decide each structural property profile by
profile, and they apply one randomly drawn stage at a time in the lemma
harvest, walk its draws' slots one word at a time, and take its
exhaustive half one witness at a time.  They are
slow and obviously correct, which is their job.  :func:`bad_types`
flags each of a correction's pivot types' opinions that some lie gains,
with the probe scan's own numpy type step, all S opinions by all S lies
of each type: the reference for the library's gain-mask kernel.
"""

import itertools
from collections import Counter
from functools import lru_cache

import numpy as np

from binagg import engine, fixtures, manipulation
from binagg.aggregators import (
    Dictator,
    IiaStage,
    NearestNeighborRule,
    Partition,
    Plurality,
    StageRule,
    StructuralReport,
    TableRule,
    WelfareMaximizer,
    monotone_tables,
)
from binagg.manipulation import ManipulationWitness, classify_deviation
from binagg.metric import uniform_weights, validate_weights, weight_of, weighted_hamming
from binagg.spaces import builtin_space


def stage_output(stage, rows):
    """A stage's output for a profile of any masks, issue by issue and voter by voter."""
    if len(rows) != stage.n:
        raise ValueError(f"stage arity is {stage.n}, profile has {len(rows)} rows")
    m = stage.m
    out = 0
    for j, tab in enumerate(stage.tables, start=1):
        shift = m - j
        # issue j's column, packed with voter 1 most significant
        column = 0
        for r in rows:
            column = (column << 1) | ((r >> shift) & 1)
        out |= ((tab >> column) & 1) << shift
    return out


def outcome(rule, rows):
    """A built-in rule's outcome for one profile, by its original per-profile body."""
    space = rule.space
    m = space.m
    if isinstance(rule, Dictator):
        return rows[rule.voter - 1]
    if isinstance(rule, StageRule):
        return stage_output(rule.stage, rows)
    if isinstance(rule, NearestNeighborRule):
        v = stage_output(rule.stage, rows)
        return v if v in space else _nearest(space, v, rule.weights, rule.tie)
    if isinstance(rule, Plurality):
        counts = Counter(rows)
        top = max(counts.values())
        tied = [r for r, c in counts.items() if c == top]
        return max(tied) if rule.tie is None else min(tied, key=rule.tie.rank)
    if isinstance(rule, Partition):
        # the owner's bit, unless no feasible evaluation starts with the prefix it makes
        owner = {j: v for v, block in enumerate(rule.blocks) for j in block}
        prefix = 0
        for j in range(1, m + 1):
            starts = {x >> (m - j) for x in space.feasible}
            want = (rows[owner[j]] >> (m - j)) & 1
            prefix = (prefix << 1) | (want if ((prefix << 1) | want) in starts else 1 - want)
            assert prefix in starts, f"both extensions infeasible at issue {j}"
        return prefix
    if isinstance(rule, WelfareMaximizer):
        # least (total distance, tie rank or mask) over the space
        def key(v):
            total = sum(weighted_hamming(v, r, rule.weights, m) for r in rows)
            return total, rule.tie.rank(v) if rule.tie else v

        return min(space.feasible, key=key)
    assert isinstance(rule, TableRule), rule
    return rule._fn(tuple(rows))


def swm_topk(space, rows, candidate_order=None):
    """The k most-approved candidates of one profile, sorted by (approvals, candidate order)."""
    m = space.m
    order = tuple(candidate_order) if candidate_order else tuple(range(1, m + 1))
    priority = {j: p for p, j in enumerate(order)}
    sums = [sum((r >> (m - j)) & 1 for r in rows) for j in range(1, m + 1)]
    ranked = sorted(range(1, m + 1), key=lambda j: (-sums[j - 1], priority[j]))
    return sum(1 << (m - j) for j in ranked[: space.feasible[0].bit_count()])


def nn_set(space, point, weights=None):
    """All feasible points at minimal weighted distance from ``point``, feasible point by feasible point."""
    if space.is_feasible(point):
        return (point,)
    m = space.m
    w = None if weights is None else validate_weights(weights, m)
    best = None
    out = []
    for x in space.feasible:
        d = (point ^ x).bit_count() if w is None else weight_of(point, x, w, m)
        if best is None or d < best:
            best = d
            out = [x]
        elif d == best:
            out.append(x)
    return tuple(out)


def nn_select(space, point, weights=None, tie=None):
    """The tie-order-minimal member of ``nn_set`` (ascending mask order by default)."""
    candidates = nn_set(space, point, weights)
    if len(candidates) == 1 or tie is None:
        return candidates[0]  # nn_set is ascending already
    return min(candidates, key=tie.rank)


@lru_cache(maxsize=4096)
def _nearest(space, point, weights, tie):
    # spaces and tie orders hash by identity
    return nn_select(space, point, weights, tie)


def iter_profiles(space, n):
    """Yields (pid, row indices, rows) over all profiles in canonical order."""
    X = space.feasible
    for pid, ridx in enumerate(itertools.product(range(len(X)), repeat=n)):
        yield pid, ridx, tuple(X[i] for i in ridx)


def profile_at(space, pid, n):
    """Rows of the pid-th profile in canonical (lexicographic) order."""
    S = space.size
    return tuple(space.feasible[pid // S ** (n - 1 - i) % S] for i in range(n))


def outcome_list(space, rule, n):
    """Rule outcome for every profile, indexed by canonical profile id."""
    return [outcome(rule, rows) for _, _, rows in iter_profiles(space, n)]


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


def check_structural(space, rule, n, property):
    """The report of ``check_structural``, by the original loops."""
    out = outcome_list(space, rule, n)
    m = space.m
    X = space.feasible
    S = len(X)

    if property == "monotone":
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
                        return StructuralReport(property, False, (rows, other), issue=j)
        return StructuralReport(property, True)

    if property == "iia":
        seen = [dict() for _ in range(m)]
        for pid, ridx, rows in iter_profiles(space, n):
            res = out[pid]
            for j in range(1, m + 1):
                col = _column_index(rows, j, m)
                bit = (res >> (m - j)) & 1
                prev = seen[j - 1].setdefault(col, (pid, bit))
                if prev[1] != bit:
                    return StructuralReport(
                        property, False, (profile_at(space, prev[0], n), rows), issue=j
                    )
        return StructuralReport(property, True)

    if property == "anonymous":
        for pid, ridx, rows in iter_profiles(space, n):
            sorted_rows = tuple(sorted(rows))
            if sorted_rows == rows:
                continue
            spid = 0
            for i, r in enumerate(sorted_rows):
                spid += space.index(r) * (S ** (n - 1 - i))
            if out[pid] != out[spid]:
                return StructuralReport(property, False, (rows, sorted_rows))
        return StructuralReport(property, True)

    # dictatorial
    candidates = set(range(n))
    first_break = {}
    for pid, ridx, rows in iter_profiles(space, n):
        res = out[pid]
        for i in list(candidates):
            if rows[i] != res:
                candidates.discard(i)
                first_break.setdefault(i, pid)
        if not candidates:
            break
    if candidates:
        voter = min(candidates) + 1
        return StructuralReport(property, True, detail=f"dictator is voter {voter}")
    detail = "; ".join(
        f"voter {i + 1} overruled at profile {pid}" for i, pid in sorted(first_break.items())
    )
    return StructuralReport(property, False, detail=detail)


def _column_index(rows, issue, m):
    """Pack one column of a profile into an int, voter 1 most significant."""
    n = len(rows)
    c = 0
    for i, r in enumerate(rows):
        c |= ((r >> (m - issue)) & 1) << (n - 1 - i)
    return c


def quota_table(n, t):
    """Truth table of "at least t of n voters say yes", column by column."""
    tab = 0
    for c in range(1 << n):
        if c.bit_count() >= t:
            tab |= 1 << c
    return tab


def is_monotone_table(tab, n):
    """Whether flipping any single 0-vote to 1 never drops the output, bit by bit."""
    for c in range(1 << n):
        if not (tab >> c) & 1:
            continue
        for b in range(n):
            if not (c >> b) & 1 and not (tab >> (c | (1 << b))) & 1:
                return False
    return True


def is_anonymous_table(tab, n):
    """Whether the decider depends on vote counts only, column by column."""
    by_count = {}
    for c in range(1 << n):
        bit = (tab >> c) & 1
        if by_count.setdefault(c.bit_count(), bit) != bit:
            return False
    return True


def iter_stages(space, n):
    """Every monotone stage, lexicographic over its per-issue truth tables."""
    for tables in itertools.product(monotone_tables(n), repeat=space.m):
        yield IiaStage(n, tables)


def permuted_table(table, order):
    """The truth table that reads voter order[i]'s vote where ``table`` reads voter i's."""
    n = len(order)
    out = 0
    for c in range(1 << n):
        moved = sum(((c >> (n - 1 - order[i])) & 1) << (n - 1 - i) for i in range(n))
        out |= ((table >> moved) & 1) << c
    return out


def orbit_leaders(n, m):
    """Stage numbers that are least among their images under every voter permutation."""
    tabs = monotone_tables(n)
    position = {t: k for k, t in enumerate(tabs)}
    images = [[position[permuted_table(t, order)] for t in tabs] for order in itertools.permutations(range(n))]
    leaders = set()
    for sid, digits in enumerate(itertools.product(range(len(tabs)), repeat=m)):
        numbers = []
        for image in images:
            number = 0
            for d in digits:
                number = number * len(tabs) + image[d]
            numbers.append(number)
        if sid == min(numbers):
            leaders.add(sid)
    return leaders


def pivot_types(space, stage):
    """Every type a stage shows some voter in some context (the other voters' rows).

    Entry j is 0 when issue j's output is 0 whatever the voter says, 2
    when it is 1, and 1 when it copies the voter's bit.
    """
    n, m = stage.n, space.m
    types = set()
    for i in range(n):
        for others in itertools.product(space.feasible, repeat=n - 1):
            # the voter says no, then yes, on every issue at once
            no, yes = (stage_output(stage, others[:i] + (row,) + others[i:]) for row in (0, (1 << m) - 1))
            types.add(tuple(((no >> (m - 1 - j)) & 1) + ((yes >> (m - 1 - j)) & 1) for j in range(m)))
    return types


def bad_types(space, weights, correct, kind="hamming"):
    """``manipulation._bad_types`` by the probe scan's type step: every type's row of S lied
    outcomes, tested for all S opinions and S lies in one broadcast (``engine.type_hits``).
    Returns (3^m, S) per-opinion bad flags."""
    S, m = space.size, space.m
    masks = np.array(space.feasible, dtype=np.intp)
    place = 1 << np.arange(m - 1, -1, -1)
    digit = 3 ** np.arange(m - 1, -1, -1)
    hit = manipulation._hit_fn(space, space.feasible, kind, manipulation._validate_kind(kind, weights, m))
    step = engine.block_size(S * S)
    bad = []
    for at in range(0, 3**m, step):
        digits = np.arange(at, min(at + step, 3**m))[:, None] // digit % 3
        rows = correct[((digits == 2) @ place)[:, None] | (masks & ((digits == 1) @ place)[:, None])]
        bad.append(engine.type_hits(rows, hit))
    return np.concatenate(bad)


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


def exhaustive_harvest(space, tie):
    """The exhaustive lemma harvest's (sorted pairs, hits), witness by witness.

    The witnesses are the library's enumeration of every hamming witness
    of the three-voter majority corrected under uniform weights and
    ``tie``; each pair is the per-profile stage output at the witness's
    profile and at its lied profile.
    """
    stage = IiaStage.majority(3, space.m)
    rule = NearestNeighborRule(space, stage, uniform_weights(space.m), tie)
    pairs, hits = set(), 0
    for w in manipulation.iter_witnesses(space, rule, 3, "hamming"):
        lied = w.profile[: w.voter - 1] + (w.lie,) + w.profile[w.voter :]
        pairs.add((stage_output(stage, w.profile), stage_output(stage, lied)))
        hits += 1
    return sorted(pairs), hits


def slot_walk(thresholds, words, slot):
    """(slot drawing next, accepted flags) after reading ``words`` one at a time from ``slot``.

    Slot s draws a bound whose threshold is ``thresholds[s]``: it takes a
    word exactly when the word is below that threshold, and then the next
    slot, cyclically, draws.
    """
    accepted = []
    for word in words:
        accepted.append(word < thresholds[slot])
        if accepted[-1]:
            slot = (slot + 1) % len(thresholds)
    return slot, accepted


def random_harvest(configs, rng):
    """The randomized lemma harvest's (sorted pairs, hits), one configuration at a time."""
    space = builtin_space("pref4")
    m = space.m
    X = space.feasible
    S = len(X)
    tabs = monotone_tables(3)
    ties = fixtures.tie_battery(space, extra=fixtures.four_candidate_tie_order())
    weight_options = fixtures.weight_battery(m)
    corrected = {
        (t, wv): [nn_select(space, p, wv, t) for p in range(1 << m)] for t in ties for wv in weight_options
    }
    random_pairs = set()
    random_hits = 0
    for _ in range(configs):
        stage = IiaStage(3, tuple(rng.choice(tabs) for _ in range(m)))
        t = ties[rng.randrange(len(ties))]
        wv = weight_options[rng.randrange(len(weight_options))]
        rows = tuple(X[rng.randrange(S)] for _ in range(3))
        voter = rng.randrange(3)
        lie = X[rng.randrange(S)]
        if lie == rows[voter]:
            continue
        lied_rows = rows[:voter] + (lie,) + rows[voter + 1 :]
        v = stage_output(stage, rows)
        u = stage_output(stage, lied_rows)
        nearest = corrected[t, wv]
        z, w = nearest[v], nearest[u]
        if z != w and classify_deviation(rows[voter], z, w, wv, m).hamming:
            random_hits += 1
            random_pairs.add((v, u))
    return sorted(random_pairs), random_hits
