import numpy as np
import pytest
from hypothesis import given, strategies as st

from kcdr.sketches import CellSketch, OneSparse, TwoLevelSampler


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


class TestOneSparse:
    def test_empty_decodes_none(self):
        assert OneSparse().decode() is None
        assert OneSparse().is_zero()

    def test_singleton_exact(self):
        b = OneSparse()
        b.update(42, 3)
        assert b.decode() == (42, 3)

    def test_two_ids_rejected(self):
        b = OneSparse()
        b.update(3, 1)
        b.update(5, 1)
        assert b.decode() is None

    def test_integral_mean_collision_rejected(self):
        # ids {2, 6} average to the integer 4; the weighted mean alone cannot
        # tell this bucket from a true singleton at 4, the second moment can
        b = OneSparse()
        b.update(2, 1)
        b.update(6, 1)
        assert b.decode() is None

    def test_cancellation_restores_zero(self):
        b = OneSparse()
        b.update(7, 2)
        b.update(7, -2)
        assert b.is_zero()
        assert b == OneSparse()

    def test_negative_net_weight_rejected(self):
        b = OneSparse()
        b.update(9, -1)
        assert b.decode() is None

    def test_fields_are_linear(self):
        a, b, c = OneSparse(), OneSparse(), OneSparse()
        for item, w in [(4, 2), (11, -1)]:
            a.update(item, w)
            c.update(item, w)
        for item, w in [(4, 1), (6, 5)]:
            b.update(item, w)
            c.update(item, w)
        assert c.weight == a.weight + b.weight
        assert c.id_sum == a.id_sum + b.id_sum
        assert c.sq_sum == a.sq_sum + b.sq_sum

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 4)), min_size=1, max_size=8))
    def test_never_decodes_wrong_singleton(self, items):
        b = OneSparse()
        truth = {}
        for item, w in items:
            b.update(item, w)
            truth[item] = truth.get(item, 0) + w
        got = b.decode()
        if len(truth) == 1:
            ((item, w),) = truth.items()
            assert got == (item, w)
        else:
            assert got is None


class TestCellSketch:
    def test_exact_recovery_small_support(self):
        sk = CellSketch.build(rows=3, width=64, rng=rng_for(0))
        truth = {}
        gen = rng_for(1)
        for _ in range(200):
            item = int(gen.integers(0, 30))
            delta = int(gen.integers(1, 3))
            sk.update(item, delta)
            truth[item] = truth.get(item, 0) + delta
        assert sk.decode() == truth

    def test_full_cancellation(self):
        sk = CellSketch.build(rows=3, width=32, rng=rng_for(2))
        for item in range(10):
            sk.update(item, 5)
        for item in range(10):
            sk.update(item, -5)
        assert sk.decode() == {}
        assert sk.resident_words == 0

    def test_overdeleted_support_fails_closed(self):
        sk = CellSketch.build(rows=2, width=16, rng=rng_for(3))
        sk.update(4, -1)
        assert sk.decode() is None

    def test_allocated_constant_resident_tracks_support(self):
        sk = CellSketch.build(rows=2, width=16, rng=rng_for(4))
        alloc = sk.allocated_words
        assert alloc == 3 * 2 * 16
        sk.update(1, 1)
        assert sk.allocated_words == alloc
        assert 0 < sk.resident_words <= alloc

    @given(st.integers(0, 200), st.integers(1, 60))
    def test_decode_is_never_wrong(self, seed, n_items):
        # decode may fail on dense supports, but any dict it returns is exact
        sk = CellSketch.build(rows=3, width=32, rng=rng_for(seed))
        truth = {}
        gen = rng_for(seed + 1)
        for _ in range(n_items):
            item = int(gen.integers(0, 500))
            sk.update(item, 1)
            truth[item] = truth.get(item, 0) + 1
        got = sk.decode()
        if got is not None:
            assert got == truth


def _ref_decode(sk):
    """Reference peel: every round rescans the sorted residual buckets and
    peels the first decodable one."""
    work = {k: b.copy() for k, b in sk.buckets.items()}
    out = {}
    for _ in range(4 * len(work) + 8):
        if not work:
            return out
        got = next((g for g in (work[k].decode() for k in sorted(work)) if g is not None), None)
        if got is None:
            return None
        item_id, w = got
        out[item_id] = out.get(item_id, 0) + w
        for r in range(sk.rows):
            key = sk._bucket_key(r, item_id)
            if key in work:
                work[key].update(item_id, -w)
                if work[key].is_zero():
                    del work[key]
    return None


class TestQueuePeelMatchesRescan:
    def test_random_sketches(self):
        gen = rng_for(40)
        outcomes = set()
        for seed in range(400):
            sk = CellSketch.build(
                rows=int(gen.integers(2, 5)), width=int(gen.integers(4, 65)), rng=rng_for(seed)
            )
            for _ in range(int(gen.integers(0, 80))):
                sk.update(int(gen.integers(0, 300)), int(gen.integers(1, 4)))
            for _ in range(int(gen.integers(0, 20))):  # inserted, then cancelled
                item = int(gen.integers(300, 600))
                sk.update(item, 2)
                sk.update(item, -2)
            want = _ref_decode(sk)
            assert sk.decode() == want
            outcomes.add(want is None)
        assert outcomes == {True, False}  # both dense failures and full recoveries

    def test_delete_of_absent_item_terminates(self):
        for seed in range(50):
            sk = CellSketch.build(rows=3, width=16, rng=rng_for(seed))
            for item in range(6):
                sk.update(item, 1)
            sk.update(1000 + seed, -1)
            assert sk.decode() is None
            assert _ref_decode(sk) is None


class TestTwoLevelSampler:
    def build(self, seed=0, rows=3, width=32, levels=6, space=10_000):
        return TwoLevelSampler.build(rows, width, levels, space, rng_for(seed))

    def test_pair_codec_round_trip(self):
        s = self.build()
        code = s.encode_pair(17, 23)
        assert s.decode_pair(code) == (17, 23)

    def test_empty_verdict(self):
        s = self.build()
        assert s.is_empty()
        assert s.sample() is None

    def test_single_item_always_returned(self):
        s = self.build(seed=5)
        s.update(9, 123, 2)
        for _ in range(5):
            assert s.sample() == (9, 123)
        assert s.recover_point(9) == 123

    def test_cancellation_empties(self):
        s = self.build(seed=6)
        s.update(3, 40, 1)
        s.update(4, 50, 2)
        s.update(3, 40, -1)
        s.update(4, 50, -2)
        assert s.is_empty()
        assert s.sample() is None

    def test_recover_point_unknown_cell(self):
        s = self.build(seed=7)
        s.update(3, 40, 1)
        assert s.recover_point(999) is None

    def test_samples_stay_in_support(self):
        support = set()
        s = self.build(seed=8, width=64, levels=8)
        gen = rng_for(9)
        for _ in range(40):
            cell = int(gen.integers(0, 25))
            point = int(gen.integers(0, 10_000))
            s.update(cell, point, 1)
            support.add((cell, point))
        got = s.sample()
        assert got in support

    def test_recovery_after_partial_deletes(self):
        s = self.build(seed=10)
        s.update(1, 100, 1)
        s.update(1, 200, 1)
        s.update(1, 100, -1)
        assert s.recover_point(1) == 200
