"""Segment grouping, extension, and merging."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rvad.segments import extend_segments, mask_to_segments, segments_to_mask

from oracles import merge_touching


class TestMaskToSegments:
    def test_runs(self):
        mask = np.array([False, True, True, False, True])
        assert mask_to_segments(mask) == [(1, 2), (4, 4)]

    def test_all_false(self):
        assert mask_to_segments(np.zeros(50, dtype=bool)) == []

    def test_all_true(self):
        assert mask_to_segments(np.ones(100, dtype=bool)) == [(0, 99)]

    def test_empty(self):
        assert mask_to_segments(np.zeros(0, dtype=bool)) == []

    def test_round_trip_with_mask(self):
        rng = np.random.default_rng(40)
        mask = rng.random(300) < 0.3
        segs = mask_to_segments(mask)
        np.testing.assert_array_equal(segments_to_mask(segs, len(mask)), mask)


class TestExtendSegments:
    def test_basic_extension(self):
        assert extend_segments([(100, 110)], 60, 300) == [(40, 170)]

    def test_overlap_after_extension_merges(self):
        assert extend_segments([(10, 20), (100, 110)], 60, 300) == [(0, 170)]

    def test_empty_input(self):
        assert extend_segments([], 60, 300) == []

    def test_clamping(self):
        assert extend_segments([(5, 10)], 60, 100) == [(0, 70)]
        assert extend_segments([(5, 95)], 60, 100) == [(0, 99)]

    def test_touching_segments_merge_at_zero_extension(self):
        assert extend_segments([(0, 4), (5, 9)], 0, 20) == [(0, 9)]

    def test_idempotent_normal_form(self):
        rng = np.random.default_rng(41)
        mask = rng.random(400) < 0.2
        segs = extend_segments(mask_to_segments(mask), 13, 400)
        assert extend_segments(segs, 0, 400) == segs

    def test_output_covers_input(self):
        rng = np.random.default_rng(42)
        mask = rng.random(500) < 0.15
        ext = extend_segments(mask_to_segments(mask), 7, 500)
        covered = segments_to_mask(ext, 500)
        assert np.all(covered[mask])

    def test_monotone_in_extension(self):
        rng = np.random.default_rng(43)
        mask = rng.random(500) < 0.1
        segs = mask_to_segments(mask)
        prev = np.zeros(500, dtype=bool)
        for ext in (0, 5, 20, 60, 200):
            cur = segments_to_mask(extend_segments(segs, ext, 500), 500)
            assert np.all(cur[prev])
            prev = cur

    def test_disjoint_sorted_invariant(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            mask = rng.random(300) < 0.25
            out = extend_segments(mask_to_segments(mask), int(rng.integers(0, 80)), 300)
            for (s1, e1), (s2, e2) in zip(out, out[1:]):
                assert s1 <= e1 < s2 <= e2
                assert e1 + 1 < s2  # strictly separated after merging

    @settings(max_examples=300, deadline=None)
    @given(
        mask=st.lists(st.booleans(), max_size=300).map(lambda bits: np.array(bits, dtype=bool)),
        ext=st.one_of(st.sampled_from([0, 1, 2, 5, 60, 400]), st.integers(0, 500)),
    )
    def test_matches_merge_oracle(self, mask, ext):
        num = len(mask)
        widened = [(max(s - ext, 0), min(t + ext, num - 1)) for s, t in mask_to_segments(mask)]
        assert extend_segments(mask_to_segments(mask), ext, num) == merge_touching(widened)


class TestMergeTouching:
    """The merge step of `extend_segments` (ext=0) and its reference oracle."""

    def test_merges_adjacent(self):
        segs = [(0, 2), (3, 5), (8, 9)]
        assert merge_touching(segs) == [(0, 5), (8, 9)]
        assert extend_segments(segs, 0, 10) == [(0, 5), (8, 9)]

    def test_merges_overlap(self):
        segs = [(0, 5), (2, 3), (4, 10)]
        assert merge_touching(segs) == [(0, 10)]
        assert extend_segments(segs, 0, 11) == [(0, 10)]

    def test_empty(self):
        assert merge_touching([]) == []
        assert extend_segments([], 0, 10) == []
