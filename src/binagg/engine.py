"""The probe engine: outcome tables and chunked scans over a profile lattice.

A profile of n voters over a space of S feasible evaluations is named by
its canonical id, ``sum(r[i] * S**(n-1-i))`` where ``r[i]`` is voter
i+1's feasible index, so ascending ids are lexicographic order on rows.
A *probe* is one (profile, voter, lie) triple.  Probes are ordered by
profile id, then voter, then lie index: C order over a (P, n, S) array.

Two lattices name the profiles a scan walks.  :class:`ProfileLattice`
holds all S**n ordered profiles, or those of some voters with the rest
pinned.  :class:`MultisetLattice` holds the C(S+n-1, n) non-decreasing
rows, in lexicographic order: one representative per multiset of
opinions.  Both compute each block's rows from its ids, so a walk that
stops early has built one block of rows, not the lattice; a scan of the
multiset lattice, whose table build and contexts walk it whole, unranks
its rows once into a table and slices them from there.  Searches and
the monotone check of a rule that is anonymous by construction (quota
and majority stages, ``nn(...)`` of them, plurality, the welfare
maximizer) walk the multiset lattice.  Its first
hit is the canonical first probe of the ordered lattice.  Every probe
predicate depends only on the multiset, the liar's opinion and the lie,
so each permutation of a profile with a hit has a hit too.  The sorted
permutation has the smallest id of them all, so the first profile with a
hit is sorted.  Sorted rows in lexicographic order are exactly the
multiset lattice, and on that profile both lattices probe the same
voters and lies in the same order.  Budgets count the probes actually
scanned: C(S+n-1, n) * n * S on the multiset lattice.

Searches and the monotone check of any other rule walk the ordered
lattice over only the voters the rule reads (``Rule.influential``:
a dictator, the owners of a partition's non-empty blocks, the voters a
stage's truth tables depend on).  Every other voter is pinned to
feasible index 0, so the lattice holds S**k profiles for k readers, and
its first hit is again the canonical first probe of the full ordered
lattice.  A pinned voter's lie never changes the outcome, so every
predicate is false there (w == z).  A varying voter's probe sees the
same outcomes whatever the pinned rows hold.  So zeroing the pinned rows
of a profile with a hit keeps its hits and lowers its id: the first
profile with a hit has zero pinned rows.  Among those profiles, full
lexicographic order is the order of the reduced ids, and voters and
lies are probed in the same order on both lattices.  Budgets count
S**k * n * S probes there.

An *outcome table* (:func:`build_table`) holds one code per profile of
a lattice.  For a rule whose outcomes are feasible (dictators,
plurality, partitions, the welfare maximizer, ``nn(...)``) the code is
the outcome's feasible index; for a stage or table rule, whose outcomes
may be infeasible, it is the outcome's rank among the table's distinct
outcomes.

A *context* is one varying voter plus the other voters' rows: an
(n-1)-multiset on the multiset lattice, or the profile of the other k-1
varying voters on the ordered one.  Each lattice has one lie map,
``lied(ids, lies)``, from context ids and lies (broadcast together) to
the ids of the profiles the voter reaches.  A context's *row* is the S
outcome codes at those profiles, and its truthful outcome is the row's
entry at the voter's opinion.

:func:`scan` is the one walk that lists hits.  Every probe predicate
(:data:`HitFn`) depends only on a (profile, voter)'s row, its opinion
and the lie, so the walk tests each distinct row, a *type*, once for
all S opinions and S lies, in one memo (:func:`type_memo`); a (profile,
voter) is then one lookup of its type's flag at its opinion, and lies
are listed only where that flag is set.  A *type source* gives each
block's types.  :func:`context_types` keys each distinct context a block
is first to reach once, by its row's bytes, off an outcome table: two
contexts share a type exactly when their rows are equal.  The pivot
types of a monotone stage corrected to its nearest neighbour need no
outcome table and no contexts (the argument is in
:mod:`binagg.fastsweep`; the source is ``manipulation._pivot_types``).

The engine never builds a (P, n, S) array, nor any (P, n) one.  It
walks a lattice in blocks of whole profiles, sized from S, n and m so
that each block's temporaries stay within BLOCK_ELEMENTS elements (a
megabyte or less).  :func:`scan` yields each block's hits as the arrays
(ids, voters, lies, truthful codes, lied codes), in C order, so the
first entry of its first block is the canonically first probe, and a
caller that stops early stops within that block.  The context memo
holds one narrow entry per context, k * P / S of them for k varying
voters on the ordered lattice and C(S+n-2, n-1) <= n * P / S on the
multiset one, in the narrowest unsigned dtype holding that count.  The
type memo holds S flags per type, with capacity doubled as types
arrive; it reaches the context memo's size times S only when nearly
every context row is distinct.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .spaces import EvaluationSpace

#: target element count of one block's largest temporaries
BLOCK_ELEMENTS = 1 << 16


def block_size(width: int) -> int:
    """Profiles per block when each profile needs ``width`` temporary elements."""
    return max(1, BLOCK_ELEMENTS // width)


_UNSIGNED = tuple((dtype, int(np.iinfo(dtype).max)) for dtype in (np.uint8, np.uint16, np.uint32, np.uint64))


def _unsigned(top: int):
    """The narrowest unsigned dtype holding 0..top."""
    for dtype, most in _UNSIGNED:
        if top <= most:
            return dtype
    raise OverflowError(f"{top} does not fit in 64 bits")


def masks_array(masks, m: int) -> np.ndarray:
    """Evaluation masks on m issues in the narrowest unsigned dtype (up to uint64)."""
    return np.array(masks, dtype=_unsigned((1 << m) - 1))


def issue_bits(masks: Sequence[int], m: int) -> np.ndarray:
    """(m, K) array: row j holds issue j+1's bit of each of the K masks on m issues."""
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    return ((np.array(masks, dtype=np.uint64)[None, :] >> shifts[:, None]) & np.uint64(1)).astype(np.intp)


def truth_bits(tables: Sequence[int], n: int) -> np.ndarray:
    """(len(tables), 2**n) uint8 array: [k, c] is bit c of the n-input truth table ``tables[k]``."""
    nbytes = max(1, (1 << n) // 8)
    packed = np.frombuffer(b"".join(t.to_bytes(nbytes, "little") for t in tables), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little").reshape(len(tables), -1)[:, : 1 << n]


def exact_array(rows, headroom: int = 1) -> np.ndarray:
    """Non-negative integer array that stays exact when entries are summed ``headroom`` times.

    The narrowest unsigned dtype up to uint32, then int64 (which mixes
    with other signed arrays without turning into floats), then Python
    ints: weights are arbitrary positive integers and ties must stay exact.
    """
    # an integer array finds its maximum without boxing every entry
    a = rows if isinstance(rows, np.ndarray) and rows.dtype != object else np.array(rows, dtype=object)
    top = int(a.max()) * headroom if a.size else 0
    if top >= 2**63:
        return a.astype(object)
    return a.astype(_unsigned(top) if top < 2**32 else np.int64)


@lru_cache(maxsize=16)
def strides(S: int, n: int) -> np.ndarray:
    """(n,) weight of each voter's row index in a profile id (read-only: it is shared)."""
    place = np.array([S ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    place.flags.writeable = False
    return place


class ProfileLattice:
    """The ordered profiles of n voters, by canonical id over the voters that vary.

    By default every voter varies and the lattice holds all S**n profiles.
    Given ``voters`` (0-based, ascending), only those vary and every other
    voter is pinned to feasible index 0: the S**k profiles are named by
    their canonical ids over the k varying voters.  Only varying voters
    have contexts: a pinned voter's lie leaves the profile where it is.
    """

    def __init__(self, S: int, n: int, voters: Sequence[int] | None = None):
        self.S, self.n = S, n
        self.voters = tuple(range(n)) if voters is None else tuple(sorted(voters))
        self.size = S ** len(self.voters)
        self.context_count = len(self.voters) * self.size // S

    def __str__(self) -> str:
        k = len(self.voters)
        if k == self.n:
            return f"{self.S}^{self.n} profiles"
        varying = ", ".join(str(i + 1) for i in self.voters)
        return f"{self.S}^{k} profiles of voter{'s' if k > 1 else ''} {varying}, the rest pinned"

    def rows(self, start: int, stop: int) -> np.ndarray:
        """(B, n) feasible row indices of the profiles with ids start..stop-1, 0 where pinned."""
        pids = np.arange(start, stop, dtype=np.int64)
        varying = (pids[:, None] // strides(self.S, len(self.voters))) % self.S
        if len(self.voters) == self.n:
            return varying
        rows = np.zeros((stop - start, self.n), dtype=varying.dtype)
        rows[:, self.voters] = varying
        return rows

    def contexts(self, start: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B, k) context ids and true opinions of each profile's k varying voters.

        The context of the j-th varying voter in a profile is the other
        varying voters' rows.  Its id is j * S**(k-1) plus the canonical id
        of those rows as a profile of k-1 voters.
        """
        opinions = rows if len(self.voters) == self.n else rows[:, self.voters]
        drop, offsets = _context_weights(self.S, len(self.voters))
        return opinions @ drop + offsets, opinions

    def lied(self, ids: np.ndarray, lies: np.ndarray) -> np.ndarray:
        """Ids of the profiles that context ``ids``' voter reaches with feasible index ``lies`` (broadcast)."""
        j, context = np.divmod(ids, self.size // self.S)
        stride = strides(self.S, len(self.voters))[j]
        hi, lo = np.divmod(context, stride)
        # the other voters' rows hi/lo with the j-th varying voter's row set to each lie
        return hi * (self.S * stride) + lo + stride * lies


class MultisetLattice:
    """The C(S+n-1, n) profiles whose rows are non-decreasing, in lexicographic order.

    Each stands for every ordering of its multiset of opinions.  Rows are
    unranked block by block from prefix sums of tuple counts (the
    combinatorial number system, :func:`_tuple_counts`).  A scan's
    contexts and lie map read tables built on first use: the rows of the
    whole lattice, and the lied profile of (k, voter i, lie y) is
    ``add[remove[k, i], y]``, where ``remove`` maps a profile and a
    position to the (n-1)-multiset left without it, and ``add`` maps an
    (n-1)-multiset and a lie back to a profile here.  One recursion on the
    tuple length builds rows and ``remove`` together from the same
    counts, and ``add`` is scattered from them.  Once they are built,
    rows are sliced from them.
    """

    def __init__(self, S: int, n: int):
        self.S, self.n = S, n
        self.voters = tuple(range(n))
        self.size = math.comb(S + n - 1, n)
        self.context_count = math.comb(S + n - 2, n - 1)

    def __str__(self) -> str:
        return f"{self.size} multisets of {self.n} opinions from {self.S}"

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _multiset_tables(self.S, self.n)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """(B, n) sorted feasible row indices of the multisets with ids start..stop-1."""
        if "_tables" in vars(self):
            return self._tables[0][start:stop].astype(np.intp)
        return _unrank(self.S, self.n, start, stop)

    def contexts(self, start: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B, n) context ids and true opinions: the (n-1)-multiset left without each position."""
        return self._tables[1][start : start + len(rows)].astype(np.intp), rows

    def lied(self, ids: np.ndarray, lies: np.ndarray) -> np.ndarray:
        """Ids of the multisets that (n-1)-multisets ``ids`` reach with feasible index ``lies`` (broadcast)."""
        return self._tables[2][ids, lies]


Lattice = ProfileLattice | MultisetLattice


@lru_cache(maxsize=8)
def _context_weights(S: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(drop, offsets) naming the contexts of k varying voters of S rows each.

    ``drop[l, j]`` weighs varying voter l's row in the context id of
    varying voter j, and ``offsets[j]`` is voter j's first context id.
    """
    place = strides(S, k)
    drop = [[0 if l == j else place[l] // S if l < j else place[l] for j in range(k)] for l in range(k)]
    return np.array(drop, dtype=np.int64).reshape(k, k), np.arange(k) * (S**k // S)


@lru_cache(maxsize=8)
def _tuple_counts(S: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (below, steps), (k, S + 1) int64 prefix sums ranking the sorted k-tuples from 0..S-1.

    ``below[j, a]`` counts the sorted tuples that agree with a given one
    before position j and hold some v < a there, with v no less than the
    entry before: the sum over v < a of C(S-v+tail-1, tail), tail = k-1-j
    entries after position j.  So the rank of a sorted tuple t sums
    ``below[j, t[j]] - below[j, t[j-1]]`` over j (t[-1] = 0), and
    ``steps[j] = below[j + 1] - below[j]`` (0 past the last position)
    moves those partial sums from one position to the next.  Row j also
    ranks the sorted (k-j)-tuples alone: ``below[j, a]`` of them start
    below a, and a followed by a (k-j-1)-tuple of rank r ranks
    ``r - steps[j, a]``.  :func:`_unrank` and the recursion of
    :func:`_multiset_tables` read this one table.
    """
    below = np.zeros((k, S + 1), dtype=np.int64)
    for j in range(k):
        tail = k - 1 - j
        below[j, 1:] = np.cumsum([math.comb(S - v + tail - 1, tail) for v in range(S)])
    steps = np.diff(below, axis=0, append=np.zeros((1, S + 1), dtype=np.int64))
    below.flags.writeable = steps.flags.writeable = False
    return below, steps


def _unrank(S: int, n: int, start: int, stop: int) -> np.ndarray:
    """(B, n) intp rows of the sorted n-tuples from 0..S-1 of ranks start..stop-1."""
    below, steps = _tuple_counts(S, n)
    # rank: each tuple's rank plus below[j, its entry before position j]
    rank = np.arange(start, stop, dtype=np.int64)
    rows = np.empty((n, len(rank)), dtype=np.intp)
    for j in range(n):
        # the largest entry v with below[j, v] <= rank
        rows[j] = entry = below[j, 1:].searchsorted(rank, "right")
        rank += steps[j].take(entry)
    return rows.T


@lru_cache(maxsize=8)
def _multiset_tables(S: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, remove, add) of the multiset lattice of n opinions from S, each in its narrowest dtype."""
    size, smaller = math.comb(S + n - 1, n), math.comb(S + n - 2, n - 1)
    below, steps = _tuple_counts(S, n)
    # Level k holds the sorted k-tuples (row n - k of ``below`` ranks them), built up from level 1:
    # faster than unranking them block by block.  Those that start with a are a followed by their
    # tails, the tuples of level k-1 from rank below[n-k+1, a] on.  Less its first entry, a tuple is
    # its tail; less a later entry, it is a followed by its tail less one entry, whose rank at level
    # k-2 (the row of ``remove`` one level down) -steps[n-k+1, a] >= 0 moves to level k-1.  Every
    # step copies or adds in place in the tables' dtypes; ``ids`` names the tails and the profiles.
    ids = np.arange(size, dtype=_unsigned(size - 1))
    rows = np.arange(S, dtype=_unsigned(S - 1))[:, None]
    remove = np.zeros((S, 1), dtype=_unsigned(smaller - 1))
    for j in range(n - 2, -1, -1):
        starts, tails = below[j].tolist(), below[j + 1].tolist()
        shift = (-steps[j + 1, :S]).astype(remove.dtype)
        next_rows = np.empty((starts[S], n - j), dtype=rows.dtype)
        next_remove = np.empty(next_rows.shape, dtype=remove.dtype)
        for a in range(S):
            block, tail = slice(starts[a], starts[a + 1]), tails[a]
            next_rows[block, 0] = a
            next_rows[block, 1:] = rows[tail:]
            next_remove[block, 0] = ids[tail : len(rows)]
            np.add(remove[tail:], shift[a], out=next_remove[block, 1:])
        rows, remove = next_rows, next_remove
    # every (n-1)-multiset plus a lie is some multiset k less one of its positions
    add = np.empty((smaller, S), dtype=ids.dtype)
    spot = np.empty(size, dtype=np.intp)
    for i in range(n):
        spot[:] = remove[:, i]
        spot *= S
        spot += rows[:, i]
        add.reshape(-1)[spot] = ids
    return rows, remove, add


def blocks(lattice: Lattice, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, rows) for each block of ``block_size(width)`` profiles of the lattice, in id order.

    ``rows`` holds the (B, n) row indices of the profiles with ids start..start+B-1.
    """
    step = block_size(width)
    for start in range(0, lattice.size, step):
        yield start, lattice.rows(start, min(start + step, lattice.size))


class OutcomeTable(Sequence):
    """A rule's outcome for every profile, indexed by canonical profile id.

    ``values`` lists outcome masks in ascending order and ``codes[pid]``
    is the position of profile pid's outcome in it, stored in the
    narrowest unsigned dtype that holds every position.  For a rule whose
    outcomes are feasible, ``values`` is ``space.feasible`` and a code is
    a feasible index, whether or not every evaluation is an outcome; for
    a stage or table rule, ``values`` lists the distinct outcomes and a
    code is an outcome's rank among them.
    """

    __slots__ = ("values", "codes")

    def __init__(self, values: tuple[int, ...], codes: np.ndarray):
        self.values = values
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, pid: int) -> int:
        return self.values[self.codes[pid]]

    def __iter__(self):
        return map(self.values.__getitem__, self.codes.tolist())


def build_table(
    space: EvaluationSpace, lattice: Lattice, evaluate: Callable[[np.ndarray], np.ndarray], indexed: bool = False
) -> OutcomeTable:
    """Outcome table over the lattice from a function of (B, n) row indices.

    With ``indexed``, ``evaluate`` returns B feasible indices, written
    straight into the codes over ``space.feasible``.  Otherwise it returns
    B outcome masks, feasible or not, coded by rank among the distinct
    masks of the whole table.
    """
    total = lattice.size
    if isinstance(lattice, MultisetLattice):
        # only a scan builds a table over a multiset lattice, and it reads the lattice's rows,
        # remove and add tables: build them first, so that both walks slice one rows table
        lattice._tables
    # rules hold (n,), (S,) and (m,) temporaries per profile
    width = lattice.n + lattice.S + space.m
    if indexed:
        codes = np.empty(total, dtype=_unsigned(space.size - 1))
        for start, rows in blocks(lattice, width):
            codes[start : start + len(rows)] = evaluate(rows)
        return OutcomeTable(space.feasible, codes)
    index: dict[int, int] = {}
    codes = np.empty(total, dtype=np.uint8)
    for start, rows in blocks(lattice, width):
        distinct, inverse = np.unique(evaluate(rows), return_inverse=True)
        lookup = [index.setdefault(v, len(index)) for v in distinct.tolist()]
        if codes.dtype != _unsigned(len(index) - 1):
            codes = codes.astype(_unsigned(len(index) - 1))
        codes[start : start + len(rows)] = np.array(lookup, dtype=codes.dtype)[inverse]
    # codes were handed out in discovery order; renumber them by value so
    # the table does not depend on where blocks start
    values = sorted(index)
    renumber = np.empty(len(values), dtype=codes.dtype)
    renumber[[index[v] for v in values]] = np.arange(len(values))
    step = block_size(width)
    for start in range(0, total, step):
        codes[start : start + step] = renumber[codes[start : start + step]]
    return OutcomeTable(tuple(values), codes)


#: hit(z, w, x, y) -> bool array of probe hits over T rows.  w: (T, 1, S)
#: rows of outcome codes, the lied outcome of each lie; x: the liars' true
#: feasible indices, (1, S, 1) for every opinion or (T, 1, 1) for one per
#: row; z: (T, S, 1) or (T, 1, 1), the truthful outcome codes, which are
#: w's entries at those opinions; y: (S,) lie feasible indices.  The
#: result broadcasts to (T, S, S) or (T, 1, S).  A hit depends on these
#: alone and is false wherever w == z: a lie that leaves the outcome in
#: place is never a hit.  ``manipulation._hit_fn`` builds one per
#: manipulation kind, none of which reads y; the monotone check's
#: ``violated`` reads it.  A walk calls it in two places: the type memo
#: flags each new type with it (:func:`type_hits`), and :func:`scan`
#: lists the lies of flagged pairs with it.  ``manipulation._bad_types``
#: calls a kind's predicate on (z, w, x) tiles with y None.
HitFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

#: one block of a type source: (start, slots, opinions, flags, rows_of).  The
#: block's profiles have ids start..start+B-1; slots and opinions are (B, k),
#: each varying voter's type slot and true feasible index; flags is (T, S)
#: bool, [t, x] saying some lie is a hit for opinion x at the type in slot t;
#: rows_of(b, j) is the (len(b), S) outcome codes, at every lie, of the pairs
#: (profile b, varying voter j).
TypedBlock = tuple[int, np.ndarray, np.ndarray, np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def type_hits(rows: np.ndarray, hit: HitFn) -> np.ndarray:
    """(T, S) bool: [t, x] says some lie is a hit for opinion x in the row of codes ``rows[t]``.

    Rows of S outcome codes, one per lie, are tested in chunks of ``block_size(S * S)``.
    """
    S = rows.shape[1]
    lies = np.arange(S)
    step = block_size(S * S)
    out = np.empty(rows.shape, dtype=bool)
    for at in range(0, len(rows), step):
        chunk = rows[at : at + step]
        out[at : at + step] = hit(chunk[:, :, None], chunk[:, None, :], lies[None, :, None], lies).any(axis=2)
    return out


def type_memo(S: int, hit: HitFn) -> Callable[[list, Callable[[list], np.ndarray]], tuple[np.ndarray, np.ndarray]]:
    """A memo of the types a walk meets: ``file(keys, rows)`` returns the slots of ``keys`` and the
    (T, S) flags of every type filed so far, flagging each new key once by :func:`type_hits`
    on its row of S outcome codes, ``rows(new keys)``."""
    slots: dict = {}
    flags = np.zeros((0, S), dtype=bool)

    def file(keys, rows):
        nonlocal flags
        new = [key for key in dict.fromkeys(keys) if key not in slots]
        if new:
            known = len(slots)
            slots.update(zip(new, range(known, known + len(new))))
            if len(slots) > len(flags):
                # room for as many types again; rows past the last slot are never read
                flags = np.resize(flags, (2 * len(slots), S))
            flags[known : len(slots)] = type_hits(rows(new), hit)
        return np.fromiter(map(slots.__getitem__, keys), np.intp, len(keys)), flags

    return file


def _distinct(values: np.ndarray) -> np.ndarray:
    """Ascending distinct entries, without ``np.unique``, whose plain form imports ``numpy.ma`` (about 0.5 MB)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def context_types(lattice: Lattice, table: OutcomeTable, hit: HitFn) -> Iterator[TypedBlock]:
    """The type source of an outcome table: each context's row of codes at the profiles its voter reaches.

    A block keys each distinct context it is first to reach once, by its
    row's bytes, and files it in the memo; a context's slot is its type.
    Rows of flagged pairs are read again through the lie map.
    """
    S, codes = lattice.S, table.codes
    lies = np.arange(S)
    file = type_memo(S, hit)
    # at[c]: the slot of context c, or `unseen` until a block reaches c; there are no more types than contexts
    unseen = lattice.context_count
    at = np.full(lattice.context_count, unseen, dtype=_unsigned(unseen))
    flags = np.zeros((0, S), dtype=bool)
    for start, rows in blocks(lattice, lattice.n * S):
        ids, opinions = lattice.contexts(start, rows)
        slots = at[ids]
        fresh = _distinct(ids[slots == unseen])
        if len(fresh):
            keys = codes[lattice.lied(fresh[:, None], lies)].view(f"V{S * codes.itemsize}").ravel().tolist()
            at[fresh], flags = file(keys, lambda new: np.frombuffer(b"".join(new), dtype=codes.dtype).reshape(-1, S))
            slots = at[ids]
        yield start, slots, opinions, flags, lambda b, j, ids=ids: codes[lattice.lied(ids[b, j, None], lies)]


def scan(lattice: Lattice, typed: Iterable[TypedBlock], hit: HitFn) -> Iterator[tuple[np.ndarray, ...]]:
    """(ids, voter indices, lie indices, truthful codes, lied codes) of each block's hits, in canonical order.

    ``typed`` gives each block's types: :func:`context_types` off an
    outcome table, or the pivot types of a corrected monotone stage
    (``manipulation._pivot_types``).  A (profile, voter) is one lookup of
    its type's flag at its opinion, and its lies are listed only where
    that flag is set.  A lie equal to the liar's true opinion is probed
    too: it leaves the outcome unchanged, and every predicate is false
    there.  Blocks without a hit yield nothing, so a caller that stops
    early stops within the block that holds the hit it wanted.
    """
    lies = np.arange(lattice.S)
    voters = np.array(lattice.voters, dtype=np.intp)
    for start, slots, opinions, flags, rows_of in typed:
        # one gather from the flat flags, several times faster than indexing them by (slots, opinions)
        flagged = flags.ravel()[slots.astype(np.intp) * lattice.S + opinions]
        if not flagged.any():
            continue
        b, j = np.nonzero(flagged)
        row, x = rows_of(b, j), opinions[b, j]
        z = row[np.arange(len(x)), x]
        f, lie = np.divmod(np.flatnonzero(hit(z[:, None, None], row[:, None, :], x[:, None, None], lies)), lattice.S)
        yield start + b[f], voters[j[f]], lie, z[f], row[f, lie]
