"""Tests for tabulation hashing and the MurmurHash3 port."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    TabulationFamily,
    TabulationHash,
    murmur3_32,
    murmur3_64,
)


class TestMurmur3Vectors:
    """Canonical MurmurHash3_x86_32 test vectors."""

    @pytest.mark.parametrize("key,seed,expected", [
        (b"", 0x00000000, 0x00000000),
        (b"", 0x00000001, 0x514E28B7),
        (b"", 0xFFFFFFFF, 0x81F16F39),
        (b"test", 0x00000000, 0xBA6BD213),
        (b"test", 0x9747B28C, 0x704B81DC),
        (b"Hello, world!", 0x00000000, 0xC0363E43),
        (b"The quick brown fox jumps over the lazy dog",
         0x9747B28C, 0x2FA826CD),
    ])
    def test_reference_vectors(self, key, seed, expected):
        assert murmur3_32(key, seed) == expected

    def test_all_tail_lengths(self):
        """1/2/3-byte tails exercise every branch of the tail switch."""
        outs = {murmur3_32(b"a" * n) for n in range(1, 9)}
        assert len(outs) == 8  # all distinct

    def test_murmur64_composition(self):
        lo = murmur3_32(b"key", 7)
        assert murmur3_64(b"key", 7) & 0xFFFFFFFF == lo
        assert murmur3_64(b"key", 7) >> 32 != 0


class TestTabulation:
    def test_deterministic(self):
        a, b = TabulationHash(seed=5), TabulationHash(seed=5)
        assert all(a(k) == b(k) for k in range(100))

    def test_seed_changes_function(self):
        a, b = TabulationHash(seed=5), TabulationHash(seed=6)
        assert any(a(k) != b(k) for k in range(10))

    def test_output_covers_64_bits(self):
        h = TabulationHash(seed=1)
        union = 0
        for k in range(200):
            union |= h(k)
        assert union.bit_length() > 56  # high bits get used

    def test_index_in_range(self):
        h = TabulationHash(seed=2)
        assert all(0 <= h.index(k, 64) < 64 for k in range(500))

    def test_sign_is_pm1(self):
        h = TabulationHash(seed=3)
        signs = {h.sign(k) for k in range(200)}
        assert signs == {+1, -1}

    def test_avalanche_single_byte(self):
        """Changing one key byte flips ~half the output bits on average
        (tabulation is 3-independent; avalanche follows from random
        tables)."""
        h = TabulationHash(seed=4)
        total = 0
        trials = 200
        for k in range(trials):
            flipped = h(k) ^ h(k ^ 0xFF)
            total += bin(flipped).count("1")
        assert 24 < total / trials < 40

    def test_family_rejects_bad_d(self):
        with pytest.raises(ValueError):
            TabulationFamily(d=0)

    def test_family_rows_independent(self):
        fam = TabulationFamily(d=3, seed=9)
        idx = fam.indexes(12345, 1 << 16)
        assert len(set(idx)) > 1  # rows hash differently

    def test_family_batched_raw_matches_scalar(self):
        fam = TabulationFamily(d=3, seed=4)
        items = np.random.default_rng(1).integers(
            -(1 << 63), (1 << 63) - 1, 200, dtype=np.int64)
        matrix = fam.raw_matrix(items)
        assert matrix.shape == (3, 200)
        assert fam.raw_matrix(items, 2).tolist() == matrix[:2].tolist()
        for row in range(3):
            expected = [fam.raw(x, row) for x in items.tolist()]
            assert fam.raw_many(items, row).tolist() == expected
            assert matrix[row].tolist() == expected

    def test_family_drop_in_for_sketches(self):
        """Sketches that hash through the family API accept a
        TabulationFamily (the ablation's swap).  CMS/CS inline the
        mixer for speed and keep their own family type."""
        from repro.sketches import NitroSketch

        sketch = NitroSketch(w=1 << 10, d=4, p=1.0,
                             hash_family=TabulationFamily(d=4, seed=11))
        for _ in range(100):
            sketch.update(77)
        assert sketch.query(77) == 100.0


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_murmur_deterministic_and_uint32(key, seed):
    a = murmur3_32(key, seed)
    assert a == murmur3_32(key, seed)
    assert 0 <= a < 2**32


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_tabulation_uint64(key):
    h = TabulationHash(seed=0)
    assert 0 <= h(key) < 2**64
