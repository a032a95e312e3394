"""The probe engine: outcome tables and chunked scans over the profile lattice.

A profile of n voters over a space of S feasible evaluations is named by
its canonical id, ``sum(r[i] * S**(n-1-i))`` where ``r[i]`` is voter
i+1's feasible index, so ascending ids are lexicographic order on rows.
A *probe* is one (profile, voter, lie) triple.  Probes are ordered by
profile id, then voter, then lie index: C order over a (P, n, S) array.

The engine never builds that array, nor any (P, n) one.  It walks the
lattice in blocks of whole profiles, sized from S, n and m so that each
block's temporaries stay within BLOCK_ELEMENTS elements (a megabyte or
less), and it reports hits in C order.  The first hit is therefore the canonically first probe, and a
generator over the hits stops as soon as its caller does.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterator

import numpy as np

from .spaces import EvaluationSpace

#: target element count of one block's largest temporaries
BLOCK_ELEMENTS = 1 << 16


def block_size(width: int) -> int:
    """Profiles per block when each profile needs ``width`` temporary elements."""
    return max(1, BLOCK_ELEMENTS // width)


def _unsigned(top: int):
    """The narrowest unsigned dtype holding 0..top."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if top <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"{top} does not fit in 64 bits")


def masks_array(masks, m: int) -> np.ndarray:
    """Evaluation masks on m issues in the narrowest unsigned dtype (up to uint64)."""
    return np.array(masks, dtype=_unsigned((1 << m) - 1))


def issue_bits(space: EvaluationSpace) -> np.ndarray:
    """(m, S) array: row j holds issue j+1's bit of every feasible evaluation."""
    shifts = np.arange(space.m - 1, -1, -1, dtype=np.uint64)
    feasible = np.array(space.feasible, dtype=np.uint64)
    return ((feasible[None, :] >> shifts[:, None]) & np.uint64(1)).astype(np.intp)


def exact_array(rows, headroom: int = 1) -> np.ndarray:
    """Non-negative integer array that stays exact when entries are summed ``headroom`` times.

    The narrowest unsigned dtype up to uint32, then int64 (which mixes
    with other signed arrays without turning into floats), then Python
    ints: weights are arbitrary positive integers and ties must stay exact.
    """
    a = np.array(rows, dtype=object)
    top = int(a.max()) * headroom if a.size else 0
    if top >= 2**63:
        return a
    return a.astype(_unsigned(top) if top < 2**32 else np.int64)


def strides(S: int, n: int) -> np.ndarray:
    """(n,) weight of each voter's row index in a profile id."""
    return np.array([S ** (n - 1 - i) for i in range(n)], dtype=np.int64)


def row_indices(start: int, stop: int, S: int, n: int) -> np.ndarray:
    """(B, n) feasible row indices of the profiles with ids start..stop-1."""
    pids = np.arange(start, stop, dtype=np.int64)
    return (pids[:, None] // strides(S, n)) % S


def blocks(S: int, n: int, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, rows) for each block of ``block_size(width)`` profiles, in id order.

    ``rows`` holds the (B, n) row indices of the profiles with ids start..start+B-1.
    """
    total = S**n
    step = block_size(width)
    for start in range(0, total, step):
        yield start, row_indices(start, min(start + step, total), S, n)


class OutcomeTable(Sequence):
    """A rule's outcome for every profile, indexed by canonical profile id.

    ``values`` lists the distinct outcomes in ascending mask order and
    ``codes[pid]`` is the position of profile pid's outcome in it, stored
    in the narrowest unsigned dtype that holds every position.
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
    space: EvaluationSpace, n: int, block_masks: Callable[[np.ndarray], np.ndarray]
) -> OutcomeTable:
    """Outcome table from a function mapping (B, n) row indices to B outcome masks."""
    S = space.size
    total = S**n
    # rules hold (n,), (S,) and (m,) temporaries per profile
    width = n + S + space.m
    index: dict[int, int] = {}
    codes = np.empty(total, dtype=np.uint8)
    for start, rows in blocks(S, n, width):
        distinct, inverse = np.unique(block_masks(rows), return_inverse=True)
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


#: hit(z, w, x, y) -> bool array of probe hits.  z: (B, 1, 1) truthful
#: outcome codes; w: (B, n, S) lied outcome codes; x: (B, n, 1) liars'
#: true feasible indices; y: (S,) lie feasible indices.
HitFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def scan(space: EvaluationSpace, table: OutcomeTable, n: int, hit: HitFn) -> Iterator[tuple[int, int, int, int]]:
    """Every probe where ``hit`` holds, in canonical order.

    Each hit is (pid, voter index, lie index, pid of the lied profile).

    A lie equal to the liar's true opinion is probed too: it leaves the
    outcome unchanged, and every predicate is false there.
    """
    S = space.size
    lies = np.arange(S)
    codes = table.codes
    voter_strides = strides(S, n).tolist()
    # by_voter[i][hi, y, lo] is the code of profile (hi * S + y) * stride + lo:
    # the profile hi/lo with voter i's row replaced by feasible index y
    by_voter = [codes.reshape(-1, S, stride) for stride in voter_strides]
    for start, rows in blocks(S, n, n * S):
        stop = start + len(rows)
        pids = np.arange(start, stop, dtype=np.int64)
        lied = np.empty((len(rows), n, S), dtype=codes.dtype)
        for i, stride in enumerate(voter_strides):
            lied[:, i, :] = by_voter[i][pids // (S * stride), :, pids % stride]
        hits = hit(codes[start:stop, None, None], lied, rows[:, :, None], lies)
        if not hits.any():
            continue
        for flat in np.flatnonzero(hits).tolist():
            b, rest = divmod(flat, n * S)
            voter, lie = divmod(rest, S)
            pid = start + b
            yield pid, voter, lie, pid + (lie - int(rows[b, voter])) * voter_strides[voter]
