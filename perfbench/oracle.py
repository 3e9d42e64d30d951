"""An independent evaluation of temporal alignment and normalization.

Written from the paper's definitions, sharing no code with the engine:

* Def. 9, the temporal normalizer ``N_B(r; s)``: every tuple ``x`` of ``r``
  is split at each start and end point of the tuples of ``s`` that agree
  with ``x`` on the attributes ``B`` and fall strictly inside ``x.T``.
* Def. 11, the temporal aligner ``φ_θ(r; s)``: every tuple ``x`` of ``r``
  yields ``x.T ∩ y.T`` for each tuple ``y`` of ``s`` that overlaps ``x`` and
  satisfies ``θ(x, y)``, plus every maximal subinterval of ``x.T`` that no
  such ``y`` covers.

A row is ``values + (ts, te)`` with the half-open interval ``[ts, te)``.
Results are sets of rows: an operator may emit its rows in several
admissible orders, so results are compared as sets, never as lists.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

Row = Tuple[Any, ...]
Theta = Callable[[Row, Row], bool]


def _by_key(rows: Sequence[Row], key: Optional[int]) -> Dict[Any, List[Row]]:
    groups: Dict[Any, List[Row]] = defaultdict(list)
    for row in rows:
        groups[None if key is None else row[key]].append(row)
    return groups


def align(
    r: Sequence[Row],
    s: Sequence[Row],
    r_key: Optional[int] = None,
    s_key: Optional[int] = None,
    theta: Optional[Theta] = None,
) -> FrozenSet[Row]:
    """``φ_θ(r; s)`` (Def. 11) where θ is ``r[r_key] = s[s_key]`` (when
    keys are given) and ``theta(x, y)``, evaluated for every pair.

    Keys only narrow the candidate pairs: within a key every ``y`` whose
    start lies before ``x.te`` and not more than the key's longest interval
    before ``x.ts`` is tested, which is every ``y`` that can overlap ``x``.
    """
    groups = _by_key(s, s_key)
    index = {}
    for key, rows in groups.items():
        rows.sort(key=lambda y: y[-2])
        index[key] = ([y[-2] for y in rows], rows, max(y[-1] - y[-2] for y in rows))
    out = set()
    for x in r:
        x_ts, x_te = x[-2], x[-1]
        values = x[:-2]
        matched = []
        entry = index.get(None if r_key is None else x[r_key])
        if entry is not None:
            starts, rows, longest = entry
            low = bisect.bisect_left(starts, x_ts - longest)
            high = bisect.bisect_left(starts, x_te)
            for y in rows[low:high]:
                start, end = max(x_ts, y[-2]), min(x_te, y[-1])
                if start < end and (theta is None or theta(x, y)):
                    matched.append((start, end))
        matched.sort()
        cursor = x_ts
        for start, end in matched:
            out.add(values + (start, end))
            if start > cursor:
                out.add(values + (cursor, start))
            cursor = max(cursor, end)
        if cursor < x_te:
            out.add(values + (cursor, x_te))
    return frozenset(out)


def normalize(
    r: Sequence[Row],
    s: Sequence[Row],
    r_keys: Sequence[int] = (),
    s_keys: Sequence[int] = (),
) -> FrozenSet[Row]:
    """``N_B(r; s)`` (Def. 9) with ``B`` given as attribute positions in
    ``r`` and ``s`` (empty: split at every point of ``s``)."""
    points: Dict[Tuple[Any, ...], set] = defaultdict(set)
    for y in s:
        points[tuple(y[i] for i in s_keys)].update((y[-2], y[-1]))
    sorted_points = {key: sorted(found) for key, found in points.items()}
    out = set()
    for x in r:
        x_ts, x_te = x[-2], x[-1]
        values = x[:-2]
        found = sorted_points.get(tuple(x[i] for i in r_keys), [])
        inside = found[bisect.bisect_right(found, x_ts) : bisect.bisect_left(found, x_te)]
        cursor = x_ts
        for point in inside:
            out.add(values + (cursor, point))
            cursor = point
        out.add(values + (cursor, x_te))
    return frozenset(out)
