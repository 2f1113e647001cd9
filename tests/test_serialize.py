"""Tests for SALSA sketch serialization."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    ops,
)
from repro.core.compact import layout_count
from repro.core.serialize import _HEADER, dumps, loads
from repro.streams import zipf_trace

ENGINES = ("bitpacked", "vector")


def _fill(sketch, seed=0, n=5_000):
    for x in zipf_trace(n, 1.1, universe=800, seed=seed):
        sketch.update(x)
    return sketch


class TestRoundTrip:
    @pytest.mark.parametrize("merge", ["sum", "max"])
    def test_cms_roundtrip(self, merge):
        sk = _fill(SalsaCountMin(w=256, d=4, merge=merge, seed=1))
        clone = loads(dumps(sk))
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_cus_roundtrip(self):
        sk = _fill(SalsaConservativeUpdate(w=256, d=4, seed=2))
        clone = loads(dumps(sk))
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_cs_roundtrip(self):
        sk = _fill(SalsaCountSketch(w=256, d=5, seed=3))
        clone = loads(dumps(sk))
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_compact_encoding_roundtrip(self):
        sk = _fill(SalsaCountMin(w=256, d=2, encoding="compact", seed=4))
        clone = loads(dumps(sk))
        assert clone.rows[0].encoding == "compact"
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_layouts_preserved(self):
        sk = SalsaCountMin(w=64, d=1, seed=5)
        sk.update(1, 100_000)   # deep merges
        clone = loads(dumps(sk))
        for j in range(64):
            assert clone.rows[0].level_of(j) == sk.rows[0].level_of(j)

    def test_empty_sketch_roundtrip(self):
        sk = SalsaCountMin(w=64, d=4, seed=6)
        clone = loads(dumps(sk))
        assert clone.query(123) == 0

    def test_clone_remains_usable(self):
        """A deserialized sketch keeps counting correctly."""
        sk = SalsaCountMin(w=1 << 12, d=4, seed=7)
        sk.update(9, 10)
        clone = loads(dumps(sk))
        clone.update(9, 5)
        assert clone.query(9) == 15


class TestDistributedMerge:
    def test_merge_after_transport(self):
        """The distributed use-case: sketch on two workers, ship one,
        merge into the other -- estimates cover the union stream."""
        a = _fill(SalsaCountMin(w=256, d=4, seed=8), seed=10)
        b = _fill(SalsaCountMin(w=256, d=4, seed=8), seed=11)
        shipped = loads(dumps(b))
        ops.merge(a, shipped)
        truth = {}
        for seed in (10, 11):
            for x in zipf_trace(5_000, 1.1, universe=800, seed=seed):
                truth[x] = truth.get(x, 0) + 1
        assert all(a.query(x) >= f for x, f in truth.items())

    def test_hash_functions_survive_transport(self):
        a = SalsaCountMin(w=64, d=4, seed=9)
        clone = loads(dumps(a))
        assert clone.hashes.same_functions(a.hashes)


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads(b"NOPE" + bytes(100))

    def test_truncated(self):
        """Every proper prefix of a multi-row blob -- header cuts and
        row cuts alike -- is reported as truncated."""
        sk = _fill(SalsaCountMin(w=16, d=3, seed=1), n=300)
        blob = dumps(sk)
        for cut in range(len(blob)):
            for engine in ENGINES:
                with pytest.raises(ValueError, match="truncated"):
                    loads(blob[:cut], engine=engine)

    def test_trailing_garbage(self):
        blob = dumps(SalsaCountMin(w=64, d=1, seed=1))
        with pytest.raises(ValueError):
            loads(blob + b"xx")

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            dumps(object())

    def test_bad_version(self):
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1)))
        blob[4] = 99
        with pytest.raises(ValueError):
            loads(bytes(blob))


def _patched(blob, offset, value):
    out = bytearray(blob)
    out[offset] = value
    return bytes(out)


class TestInconsistentBlobs:
    """``loads`` accepts only what ``dumps`` could have written."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_inconsistent_merge_bits(self, engine):
        # Merge bits 0 and 1 set: bit 1 claims a level-2 block at slot
        # 0, but bit 2 (its interior) is clear.
        blob = dumps(SalsaCountMin(w=16, d=1, seed=1))
        with pytest.raises(ValueError, match="layout"):
            loads(_patched(blob, _HEADER.size, 0b011), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_merge_bit_beyond_max_level(self, engine):
        # max_bits=16: counters merge once, so bits 0..2 (a level-2
        # block) are not a layout dumps can write.
        blob = dumps(SalsaCountMin(w=16, d=1, max_bits=16, seed=1))
        with pytest.raises(ValueError, match="layout"):
            loads(_patched(blob, _HEADER.size, 0b111), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_compact_group_number_out_of_range(self, engine):
        blob = bytearray(dumps(SalsaCountMin(w=32, d=1, seed=1,
                                             encoding="compact")))
        # One 32-slot group: a 19-bit number in 3 bytes, must be < a_5.
        blob[_HEADER.size:_HEADER.size + 3] = layout_count(5).to_bytes(
            3, "little")
        with pytest.raises(ValueError, match="out of range"):
            loads(bytes(blob), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_count_sketch_negative_zero(self, engine):
        blob = dumps(SalsaCountSketch(w=16, d=1, seed=1))
        first_counter = _HEADER.size + 2          # after 16 merge bits
        with pytest.raises(ValueError, match="negative zero"):
            loads(_patched(blob, first_counter, 0x80), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_canonical_header(self, engine):
        # A Count Sketch always sum-merges; a max tag is not canonical.
        blob = bytearray(dumps(SalsaCountSketch(w=16, d=1, seed=1)))
        merge_tag = 16      # after magic, version, type, w, d, s, max_bits
        blob[merge_tag] = 1
        with pytest.raises(ValueError, match="header"):
            loads(bytes(blob), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_payload_padding_bits(self, engine):
        # w=2, s=2: four payload bits in one byte; the top four are pad.
        blob = dumps(SalsaCountMin(w=2, d=1, s=2, max_bits=2, seed=1))
        with pytest.raises(ValueError, match="padding"):
            loads(_patched(blob, len(blob) - 1, 0xF0), engine=engine)


# ----------------------------------------------------------------------
# codec equivalence: the vector engine's array codec writes and reads
# exactly the bit-packed reference bytes
# ----------------------------------------------------------------------
SKETCH_KINDS = {
    "cms-sum": lambda **kw: SalsaCountMin(merge="sum", **kw),
    "cms-max": lambda **kw: SalsaCountMin(merge="max", **kw),
    "cus": lambda **kw: SalsaConservativeUpdate(**kw),
    "cs": lambda **kw: SalsaCountSketch(**kw),
}


def _twins(kind, **kw):
    return [SKETCH_KINDS[kind](engine=engine, **kw) for engine in ENGINES]


def _row_counters(sketch):
    return [list(row.counters()) for row in sketch.rows]


def _assert_codec_equivalent(pair):
    """Both engines write the same bytes, and the blob loads into both
    engines with the source's counters (and writes itself back)."""
    reference, vector = pair
    blob = dumps(reference)
    assert dumps(vector) == blob
    for engine in ENGINES:
        clone = loads(blob, engine=engine)
        assert clone.engine_name == engine
        assert _row_counters(clone) == _row_counters(reference)
        assert dumps(clone) == blob


@pytest.mark.parametrize("s", [2, 4, 8, 16])
@pytest.mark.parametrize("kind", ["cms-sum", "cms-max", "cs"])
@pytest.mark.parametrize("encoding", ["simple", "compact"])
def test_codec_equivalence_every_level(s, kind, encoding):
    """One counter merged to exactly each level 0..max_level (both
    signs for Count Sketch), plus a saturated counter."""
    pair = _twins(kind, w=512, d=2, s=s, seed=3, encoding=encoding)
    max_level = pair[0].rows[0].max_level
    assert s << max_level == 64
    signs = (1, -1) if kind == "cs" else (1,)
    for sketch in pair:
        for row in sketch.rows:
            block = 1 << max_level
            slot = 0
            for level in range(max_level + 1):
                # Smallest magnitude that needs a level-``level`` field.
                bits = (s << level >> 1) - (kind == "cs")
                magnitude = 1 << bits if level else 1
                for sign in signs:
                    row.add(slot + 1, sign * magnitude)
                    assert row.level_of(slot) == level
                    slot += block
            row.add(slot, -(2 ** 70) if kind == "cs" else 2 ** 64 + 5)
            assert row.level_of(slot) == max_level
            assert row.saturations == 1
    saturated = pair[1].rows[0].read(slot)
    assert saturated == (-(2 ** 63 - 1) if kind == "cs" else 2 ** 64 - 1)
    _assert_codec_equivalent(pair)


@pytest.mark.parametrize("kind", sorted(SKETCH_KINDS))
@pytest.mark.parametrize("encoding", ["simple", "compact"])
def test_codec_equivalence_on_streams(kind, encoding):
    pair = _twins(kind, w=256, d=3, s=8, seed=5, encoding=encoding)
    for sketch in pair:
        _fill(sketch, seed=9, n=6_000)
        sketch.update(11, 1 << 40)
    _assert_codec_equivalent(pair)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SKETCH_KINDS)),
       s=st.sampled_from([2, 4, 8, 16]),
       encoding=st.sampled_from(["simple", "compact"]),
       ops_=st.lists(st.tuples(st.integers(0, 63),
                               st.integers(-(1 << 20), 1 << 20)),
                     max_size=60))
def test_codec_equivalence_property(kind, s, encoding, ops_):
    """Any sequence of row adds: identical bytes from both engines and
    identical counters after loading into either."""
    pair = _twins(kind, w=64, d=2, s=s, seed=7, encoding=encoding)
    for sketch in pair:
        for j, v in ops_:
            for row in sketch.rows:
                if kind == "cus":
                    row.set_at_least(j, abs(v))
                else:
                    row.add(j, v)
    _assert_codec_equivalent(pair)


# ----------------------------------------------------------------------
# fuzzing: a damaged blob is rejected or loads to exactly itself
# ----------------------------------------------------------------------
def _fuzz_blob(kind, encoding, seed):
    sketch = SKETCH_KINDS[kind](w=32, d=2, s=8, seed=seed,
                                encoding=encoding, engine="vector")
    rng = np.random.default_rng(seed)
    items = rng.integers(0, 200, 400)
    values = rng.integers(1, 1 << 12, 400)
    if kind == "cs":
        values *= rng.choice([-1, 1], 400)
    sketch.update_many(items, values)
    return dumps(sketch)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["cms-sum", "cus", "cs"]),
       encoding=st.sampled_from(["simple", "compact"]),
       seed=st.integers(0, 3),
       data=st.data())
def test_fuzz_loads(kind, encoding, seed, data):
    """Truncated or bit-flipped blobs: ``ValueError``, or a sketch whose
    ``dumps`` reproduces the damaged bytes exactly, on both engines."""
    blob = bytearray(_fuzz_blob(kind, encoding, seed))
    nbits = 8 * len(blob)
    for bit in data.draw(st.lists(st.integers(0, nbits - 1), max_size=4)):
        blob[bit >> 3] ^= 1 << (bit & 7)
    cut = data.draw(st.one_of(st.just(len(blob)),
                              st.integers(0, len(blob) - 1)))
    damaged = bytes(blob[:cut])
    for engine in ENGINES:
        try:
            sketch = loads(damaged, engine=engine)
        except ValueError:
            continue
        assert dumps(sketch) == damaged
