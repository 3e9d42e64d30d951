"""Unit tests of the columnar layer: encoding, kernels, caching."""

from __future__ import annotations

import random

import numpy as np

from repro import Interval, Schema, TemporalRelation
from repro.columnar import (
    align_pieces,
    encode_keys,
    encode_relation,
    normalize_pieces,
    normalize_pieces_from_intervals,
    overlap_pairs,
    peek_endpoint_arrays,
    remap_codes,
)
from repro.core.primitives import align_tuple, split_tuple


def relation(rows, attributes=("cat",)):
    result = TemporalRelation(Schema(list(attributes)))
    for values, start, end in rows:
        result.insert(values, Interval(start, end))
    return result


class TestEncoding:
    def test_frame_shape_and_dictionary(self):
        rel = relation([(("a",), 0, 5), (("b",), 3, 9), (("a",), 7, 8)])
        frame = encode_relation(rel, ("cat",))
        assert list(frame.starts) == [0, 3, 7]
        assert list(frame.ends) == [5, 9, 8]
        assert list(frame.codes) == [0, 1, 0]
        assert frame.key_index == {("a",): 0, ("b",): 1}

    def test_no_key_encodes_one_shared_code(self):
        rel = relation([(("a",), 0, 5), (("b",), 3, 9)])
        frame = encode_relation(rel, ())
        assert list(frame.codes) == [0, 0]

    def test_encoding_is_cached_until_mutation(self):
        rel = relation([(("a",), 0, 5)])
        first = encode_relation(rel, ("cat",))
        second = encode_relation(rel, ("cat",))
        assert first.starts is second.starts and first.codes is second.codes
        assert peek_endpoint_arrays(rel) is not None
        rel.insert(("b",), Interval(9, 12))  # _after_mutation drops the caches
        assert peek_endpoint_arrays(rel) is None
        rebuilt = encode_relation(rel, ("cat",))
        assert len(rebuilt) == 2

    def test_remap_translates_into_reference_dictionary(self):
        left = relation([(("a",), 0, 1), (("x",), 2, 3)])
        right = relation([(("b",), 0, 1), (("a",), 2, 3)])
        left_frame = encode_relation(left, ("cat",))
        right_frame = encode_relation(right, ("cat",))
        remapped = remap_codes(left_frame, right_frame)
        # "a" is code 1 on the reference side; "x" matches nothing.
        assert list(remapped) == [1, -1]

    def test_endpoint_arrays_are_int64_and_shared_across_key_sets(self):
        rel = relation([(("a",), 0, 5), (("b",), 3, 9)])
        keyed = encode_relation(rel, ("cat",))
        unkeyed = encode_relation(rel, ())
        assert keyed.starts.dtype == np.int64 and keyed.codes.dtype == np.int64
        assert keyed.starts is unkeyed.starts and keyed.ends is unkeyed.ends
        assert keyed.codes is not unkeyed.codes

    def test_encode_keys_against_a_given_dictionary(self):
        codes, index = encode_keys([("a",), ("b",), ("a",)])
        assert list(codes) == [0, 1, 0]
        probe, same = encode_keys([("b",), ("z",)], index)
        assert list(probe) == [1, -1]  # unseen keys match nothing
        assert same is index and ("z",) not in index

    def test_remap_shared_dictionary_is_identity(self):
        rel = relation([(("a",), 0, 1)])
        frame = encode_relation(rel, ("cat",))
        assert remap_codes(frame, frame) is frame.codes


class TestKernels:
    """The kernels against hand-checked examples (the paper's Fig. 9/11)."""

    def test_align_paper_example(self):
        # r1 = [1,7) meets s1 = [2,5) and s2 = [3,4): intersections [2,5),
        # [3,4) plus gaps [1,2) and [5,7) — Fig. 11's group g1.
        rows, starts, ends = align_pieces([1], [7], [0], [2, 3], [5, 4], [0, 0])
        assert list(zip(rows, starts, ends)) == [
            (0, 1, 2), (0, 2, 5), (0, 3, 4), (0, 5, 7)
        ]

    def test_align_dangling_row_keeps_interval(self):
        rows, starts, ends = align_pieces([8], [10], [0], [0], [5], [1])
        assert list(zip(rows, starts, ends)) == [(0, 8, 10)]

    def test_align_duplicate_intersections_deduplicate(self):
        rows, starts, ends = align_pieces([1], [7], [0], [2, 2], [5, 5], [0, 0])
        assert list(zip(rows, starts, ends)) == [(0, 1, 2), (0, 2, 5), (0, 5, 7)]

    def test_align_skips_empty_left_rows(self):
        rows, starts, ends = align_pieces([4, 1], [4, 3], [0, 0], [0], [9], [0])
        assert list(zip(rows, starts, ends)) == [(1, 1, 3)]

    def test_align_include_empty_reproduces_engine_degenerates(self):
        # The engine's join admits an empty reference row whose point falls
        # strictly inside the argument interval; the sweep then emits the
        # degenerate intersection and splits the gap around it.
        rows, starts, ends = align_pieces([1], [7], [0], [3], [3], [0], include_empty=True)
        assert list(zip(rows, starts, ends)) == [(0, 1, 3), (0, 3, 3), (0, 3, 7)]

    def test_align_include_empty_passes_unmatched_degenerate_rows_through(self):
        # Engine mode: a dangling outer-join row reaches the sweep with its
        # bounds as GREATEST/LEAST-filled p1/p2, so an unmatched empty row
        # is emitted unchanged; relation-level mode drops it (Def. 10 yields
        # no pieces for an empty argument interval).
        rows, starts, ends = align_pieces([5], [5], [0], [], [], [], include_empty=True)
        assert list(zip(rows, starts, ends)) == [(0, 5, 5)]
        assert align_pieces([5], [5], [0], [], [], [], include_empty=False) == ([], [], [])

    def test_overlap_pairs_respects_keys_and_touching_intervals(self):
        li, ri = overlap_pairs([0, 0], [5, 5], [0, 1], [5, 3], [9, 4], [0, 0])
        # [0,5) touches [5,9) only at the boundary (no overlap) and key 1
        # matches nothing; only ([0,5), [3,4)) overlaps.
        assert sorted(zip(li, ri)) == [(0, 1)]

    def test_normalize_splits_at_interior_points_only(self):
        rows, starts, ends = normalize_pieces(
            [1, 0], [7, 4], [0, 0], [3, 5, 1, 7, 0], [0, 0, 0, 0, 0]
        )
        assert list(zip(rows, starts, ends)) == [
            (0, 1, 3), (0, 3, 5), (0, 5, 7), (1, 0, 1), (1, 1, 3), (1, 3, 4)
        ]

    def test_normalize_from_intervals_skips_empty_references(self):
        rows, starts, ends = normalize_pieces_from_intervals(
            [0], [10], [0], [4, 6], [4, 9], [0, 0]
        )
        # The empty reference [4,4) contributes no split point (Def. 9);
        # [6,9) splits at 6 and 9.
        assert list(zip(rows, starts, ends)) == [(0, 0, 6), (0, 6, 9), (0, 9, 10)]

    def test_normalize_from_intervals_include_empty_keeps_empty_references(self):
        # Engine mode: an empty reference row still contributes its point.
        rows, starts, ends = normalize_pieces_from_intervals(
            [0], [10], [0], [4], [4], [0], include_empty=True
        )
        assert list(zip(rows, starts, ends)) == [(0, 0, 4), (0, 4, 10)]

    def test_int64_array_inputs_and_plain_int_outputs(self):
        # The shared-memory workers pass ndarray slices; the engine turns
        # the output into row values, which must be plain Python ints.
        columns = ([1, 8], [7, 10], [0, 0], [2, 3], [5, 4], [0, 0])
        arrays = [np.asarray(column, dtype=np.int64) for column in columns]
        from_lists = align_pieces(*columns)
        from_arrays = align_pieces(*arrays)
        assert from_arrays == from_lists
        assert all(type(value) is int for part in from_arrays for value in part)
        split = normalize_pieces(arrays[0], arrays[1], arrays[2], arrays[3], arrays[5])
        assert all(type(value) is int for part in split for value in part)

    def test_negative_codes_never_match(self):
        rows, starts, ends = align_pieces([0], [9], [-1], [1], [5], [0])
        assert list(zip(rows, starts, ends)) == [(0, 0, 9)]
        rows, starts, ends = normalize_pieces([0], [9], [0], [4], [-1])
        assert list(zip(rows, starts, ends)) == [(0, 0, 9)]

    def test_empty_inputs(self):
        assert align_pieces([], [], [], [], [], []) == ([], [], [])
        assert normalize_pieces([], [], [], [], []) == ([], [], [])


def _random_columns(rng, count):
    starts = [rng.randrange(0, 40) for _ in range(count)]
    ends = [start + rng.randrange(0, 6) for start in starts]
    codes = [rng.randrange(-1, 3) for _ in range(count)]
    return starts, ends, codes


def _random_inputs(seed):
    rng = random.Random(seed)
    left = _random_columns(rng, rng.randrange(0, 30))
    right = _random_columns(rng, rng.randrange(0, 30))
    return left, right


def _group(code, r_starts, r_ends, r_codes):
    """Reference intervals sharing a non-negative key code."""
    if code < 0:
        return []
    return [Interval(s, e) for s, e, c in zip(r_starts, r_ends, r_codes) if c == code]


class TestKernelsAgainstRowPrimitives:
    """Randomised kernel output against the paper's per-tuple primitives
    (Defs. 8 and 10), piece for piece and in sweep order, over dense inputs
    with empty intervals, shared endpoints and no-match codes."""

    SEEDS = range(25)

    def test_align_pieces_match_align_tuple(self):
        for seed in self.SEEDS:
            (ls, le, lc), (rs, re, rc) = _random_inputs(seed)
            expected = [
                (i, piece.start, piece.end)
                for i in range(len(ls))
                for piece in align_tuple(Interval(ls[i], le[i]), _group(lc[i], rs, re, rc))
            ]
            rows, starts, ends = align_pieces(ls, le, lc, rs, re, rc)
            assert list(zip(rows, starts, ends)) == expected, seed

    def test_normalize_pieces_match_split_tuple(self):
        for seed in self.SEEDS:
            (ls, le, lc), (rs, re, rc) = _random_inputs(seed)
            expected = [
                (i, piece.start, piece.end)
                for i in range(len(ls))
                for piece in split_tuple(Interval(ls[i], le[i]), _group(lc[i], rs, re, rc))
            ]
            rows, starts, ends = normalize_pieces_from_intervals(ls, le, lc, rs, re, rc)
            assert list(zip(rows, starts, ends)) == expected, seed

    def test_overlap_pairs_match_brute_force(self):
        for seed in self.SEEDS:
            (ls, le, lc), (rs, re, rc) = _random_inputs(seed)
            expected = sorted(
                (i, j)
                for i in range(len(ls))
                for j in range(len(rs))
                if lc[i] >= 0
                and lc[i] == rc[j]
                and ls[i] < le[i]
                and rs[j] < re[j]
                and ls[i] < re[j]
                and rs[j] < le[i]
            )
            li, ri = overlap_pairs(ls, le, lc, rs, re, rc)
            assert sorted(zip(li, ri)) == expected, seed
