"""Columnar encoding of temporal relations.

A :class:`ColumnarFrame` is the batch representation the vectorized kernels
consume: the interval endpoints of every tuple as two parallel ``int64``
arrays, plus a dictionary-encoded equality-key column (one dense code per
distinct key value, ``-1`` reserved for "matches nothing").  Row positions
double as backrefs — entry ``i`` describes ``relation.tuples()[i]``, which is
how kernel output is materialised back into tuples only at the boundary.

Encodings are cached on the relation through
:meth:`TemporalRelation.derived`, split into two entries so independent key
sets share the endpoint arrays:

* ``("columnar", "endpoints")`` — the ``starts``/``ends`` arrays;
* ``("columnar", "keys", attrs)`` — codes + dictionary per key set.

Both entries are dropped by the relation's ``_after_mutation`` funnel like
every other derived structure, so a cached frame can never describe stale
tuples.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Dictionary code meaning "this row's key matches no row of the other side".
NO_MATCH = -1


class ColumnarUnsupported(Exception):
    """The values cannot be columnar-encoded; use the row path instead."""


def int64_column(values: Iterable[int]) -> Any:
    """``values`` as an ``int64`` array.

    Interval endpoints are unbounded Python ints; one outside ``int64``
    raises :exc:`ColumnarUnsupported` so the caller runs the row path,
    which handles any int.
    """
    try:
        return np.fromiter(values, dtype=np.int64)
    except OverflowError:
        raise ColumnarUnsupported("interval bound outside the int64 range") from None


class ColumnarFrame:
    """Endpoint arrays + dictionary-encoded key column of one relation.

    ``starts``/``ends``/``codes`` are parallel to the relation's tuple list
    (insertion order) ``numpy.int64`` arrays; ``key_index`` maps key value
    tuples to dense codes.
    """

    __slots__ = ("starts", "ends", "codes", "key_index")

    def __init__(self, starts, ends, codes, key_index: Dict[Hashable, int]):
        self.starts = starts
        self.ends = ends
        self.codes = codes
        self.key_index = key_index

    def __len__(self) -> int:
        return len(self.starts)


def encode_keys(
    keys: Sequence[Hashable], key_index: Optional[Dict[Hashable, int]] = None
):
    """Dictionary-encode a key sequence into dense integer codes.

    With ``key_index`` given, codes come from that dictionary and unseen keys
    get :data:`NO_MATCH`; otherwise a fresh dictionary is built (first
    occurrence order).  Returns ``(codes, key_index)``.
    """
    if key_index is None:
        key_index = {}
        codes: List[int] = []
        for key in keys:
            code = key_index.setdefault(key, len(key_index))
            codes.append(code)
    else:
        codes = [key_index.get(key, NO_MATCH) for key in keys]
    return np.asarray(codes, dtype=np.int64), key_index


def encode_relation(relation, attributes: Sequence[str] = ()) -> ColumnarFrame:
    """The (lazily built, cached) columnar frame of ``relation``.

    ``attributes`` name the equality key (normalization's ``B`` attributes or
    the equi part of an alignment θ); the empty sequence encodes every tuple
    under one shared code.  Repeated adjustments against the same reference
    therefore pay the encoding pass once — the columnar analogue of the
    cached :class:`~repro.temporal.interval_index.IntervalIndex`.
    """
    attrs = tuple(attributes)

    def build_endpoints():
        return (
            int64_column(t.start for t in relation),
            int64_column(t.end for t in relation),
        )

    def build_keys():
        if attrs:
            return encode_keys([t.values_of(attrs) for t in relation])
        codes, index = encode_keys([()] * len(relation))
        return codes, index

    starts, ends = relation.derived(("columnar", "endpoints"), build_endpoints)
    codes, key_index = relation.derived(("columnar", "keys", attrs), build_keys)
    return ColumnarFrame(starts, ends, codes, key_index)


def remap_codes(frame: ColumnarFrame, target: ColumnarFrame):
    """Re-express ``frame``'s codes in ``target``'s dictionary.

    The overlap kernels compare codes for equality, so both sides must speak
    the same dictionary; the reference side's dictionary wins and argument
    keys it never saw become :data:`NO_MATCH`.  A shared dictionary object
    (self-adjustment, or two frames of the same cached relation) passes
    through untouched.
    """
    if frame.key_index is target.key_index:
        return frame.codes
    table = [NO_MATCH] * (len(frame.key_index) + 1)
    for key, code in frame.key_index.items():
        table[code] = target.key_index.get(key, NO_MATCH)
    lookup = np.asarray(table, dtype=np.int64)
    return lookup[frame.codes]


def peek_endpoint_arrays(relation) -> Optional[Tuple[Any, Any]]:
    """Already-cached endpoint arrays of ``relation``, or ``None``.

    Never builds anything: statistics collection uses this to reuse the
    columnar encoding when present without invalidating or populating the
    relation's derived caches (pinned by a regression test).
    """
    return relation.peek_derived(("columnar", "endpoints"))
