"""Serialization of SALSA sketches.

The paper's merge/subtract operations (section V) exist so that
sketches built on different cores or machines can be combined; that
requires shipping sketch state around.  This module provides a compact,
versioned binary codec for the SALSA sketches: header, per-row merge
bits (or compact-group words), and the raw counter payload.

The wire format is the **bit-packed reference encoding**, whatever
engine backs the sketch in memory.  The bit-packed engine ships its
own buffers unchanged; the vector engine encodes and decodes that same
format straight from its ``levels``/``starts``/``values`` arrays.  A
blob written by a vector-engine sketch is therefore byte-identical to
one written by a bit-packed sketch in the same state, and either can
be loaded into either engine (``loads(..., engine="vector")``).

``loads`` accepts only blobs that ``dumps`` could have written: a
truncated blob, a non-canonical header, an inconsistent merge layout,
an out-of-range compact group number, a Count-Sketch "negative zero"
or set padding bits all raise ``ValueError``.

The format is deliberately simple -- little-endian fixed header plus
the two buffers each row's reference engine maintains -- so a C
consumer could read it directly.

Examples
--------
>>> from repro.core import SalsaCountMin
>>> from repro.core.serialize import dumps, loads
>>> sk = SalsaCountMin(w=64, d=2, seed=3)
>>> sk.update(7, 1000)
>>> clone = loads(dumps(sk))
>>> clone.query(7) == sk.query(7)
True
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.compact import (
    CompactLayout,
    default_group_level,
    encoding_bits,
    layout_count,
)
from repro.core.engines import SIMPLE, BitPackedEngine
from repro.core.salsa_cms import SalsaCountMin
from repro.core.salsa_cus import SalsaConservativeUpdate
from repro.core.salsa_cs import SalsaCountSketch

_MAGIC = b"SLSA"
_VERSION = 1

#: sketch-type tags
_TYPES = {
    SalsaCountMin: 1,
    SalsaConservativeUpdate: 2,
    SalsaCountSketch: 3,
}
_TYPE_CLASSES = {v: k for k, v in _TYPES.items()}

_MERGES = {"sum": 0, "max": 1}
_MERGE_NAMES = {v: k for k, v in _MERGES.items()}

_ENCODINGS = {"simple": 0, "compact": 1}
_ENCODING_NAMES = {v: k for k, v in _ENCODINGS.items()}

# header: magic, version, type, w, d, s, max_bits, merge, encoding, seed
_HEADER = struct.Struct("<4sBBIHHHBBq")


# ----------------------------------------------------------------------
# array codec: per-slot arrays <-> wire buffers
# ----------------------------------------------------------------------
def _pack_fields(fields: np.ndarray, s: int) -> bytes:
    """Per-slot ``s``-bit fields -> the bit-packed payload (slot ``j``
    at bits ``j*s .. j*s + s - 1``, little-endian)."""
    if s >= 8:
        return fields.astype(f"<u{s // 8}").tobytes()
    per = 8 // s
    pad = -fields.size % per
    if pad:
        fields = np.concatenate([fields, np.zeros(pad, dtype=np.uint64)])
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(s)
    packed = np.bitwise_or.reduce(fields.reshape(-1, per) << shifts, axis=1)
    return packed.astype(np.uint8).tobytes()


def _unpack_fields(buf, w: int, s: int) -> np.ndarray:
    """The inverse of :func:`_pack_fields` (uint64, one per slot)."""
    if s >= 8:
        return np.frombuffer(buf, dtype=f"<u{s // 8}").astype(np.uint64)
    per = 8 // s
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(s)
    raw = np.frombuffer(buf, dtype=np.uint8).astype(np.uint64)
    fields = ((raw[:, None] >> shifts) & np.uint64((1 << s) - 1)).ravel()
    if fields[w:].any():
        raise ValueError("SALSA blob sets counter padding bits")
    return fields[:w]


def _layout_bytes(levels: np.ndarray, starts: np.ndarray,
                  encoding: str, group_level: int) -> bytes:
    """Merge bits (simple) or group words (compact) of a layout.

    Simple: slot ``j``'s bit is set iff ``j`` is not the last slot of
    its block -- a fully merged ``2^L`` block sets its ``2^L - 1``
    interior bits.  Compact: each ``2^m``-slot group's layout number,
    in ``ceil(z_m / 8)`` little-endian bytes.
    """
    if encoding == SIMPLE:
        interior = (np.arange(levels.size) - starts) < (1 << levels) - 1
        return np.packbits(interior, bitorder="little").tobytes()
    groups = levels.reshape(-1, 1 << group_level)
    numbers = [0] * len(groups)
    for g in np.flatnonzero(groups.any(axis=1)).tolist():
        numbers[g] = CompactLayout._encode(groups[g].tolist(), group_level)
    return _group_words(numbers, group_level)


def _group_words(numbers, group_level: int) -> bytes:
    zbytes = (encoding_bits(group_level) + 7) // 8
    return b"".join(x.to_bytes(zbytes, "little") for x in numbers)


def _group_numbers(buf, group_level: int) -> list[int]:
    zbytes = (encoding_bits(group_level) + 7) // 8
    numbers = [int.from_bytes(buf[i:i + zbytes], "little")
               for i in range(0, len(buf), zbytes)]
    top = layout_count(group_level)
    for x in numbers:
        if x >= top:
            raise ValueError(
                f"compact group number {x} out of range (a_m = {top})")
    return numbers


def _decode_levels(buf, w: int, max_level: int, encoding: str,
                   group_level: int) -> np.ndarray:
    """Per-slot merge levels of a layout buffer, probed exactly as the
    bit-packed layouts do (simple) or expanded per group (compact)."""
    if encoding == SIMPLE:
        bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8),
                             bitorder="little")[:w].astype(bool)
        slots = np.arange(w, dtype=np.int64)
        levels = np.zeros(w, dtype=np.int64)
        for up in range(1, max_level + 1):
            probe = ((slots >> up) << up) + (1 << (up - 1)) - 1
            levels[(levels == up - 1) & bits[probe]] = up
        return levels
    size = 1 << group_level
    levels = np.zeros(w, dtype=np.int64)
    for g, x in enumerate(_group_numbers(buf, group_level)):
        if x:
            levels[g * size:(g + 1) * size] = CompactLayout._levels_array(
                x, group_level)
    return levels


def _load_layout(buf, w: int, max_level: int, encoding: str,
                 group_level: int):
    """Decode and validate one row's layout; return ``(levels, starts,
    heads)``.  Valid means: no level above ``max_level``, every block
    aligned and uniform, and re-encoding gives back ``buf`` exactly."""
    levels = _decode_levels(buf, w, max_level, encoding, group_level)
    slots = np.arange(w, dtype=np.int64)
    starts = (slots >> levels) << levels
    heads = np.flatnonzero(starts == slots)
    sizes = 1 << levels[heads]
    ends = np.cumsum(sizes)
    if (int(levels.max()) > max_level or ends[-1] != w
            or not np.array_equal(heads[1:], ends[:-1])
            or not np.array_equal(np.repeat(levels[heads], sizes), levels)
            or _layout_bytes(levels, starts, encoding, group_level) != buf):
        raise ValueError("inconsistent merge layout in SALSA blob")
    return levels, starts, heads


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------
def _row_shape(row) -> tuple[int, int]:
    """(layout bytes, payload bytes) of one row."""
    if row.encoding == SIMPLE:
        n_layout = (row.w + 7) // 8
    else:
        group_level = default_group_level(row.w, row.max_level)
        zbytes = (encoding_bits(group_level) + 7) // 8
        n_layout = zbytes * (row.w >> group_level)
    return n_layout, (row.w * row.s + 7) // 8


def _row_payload(row) -> bytes:
    """Layout bytes followed by counter bytes for one row."""
    engine = row.engine
    if isinstance(engine, BitPackedEngine):
        layout = engine.layout
        if row.encoding == SIMPLE:
            layout_bytes = bytes(layout.bits._data)
        else:
            layout_bytes = _group_words(layout._x, layout.group_level)
        return layout_bytes + engine.store.tobytes()
    s = row.s
    levels, starts, values = engine.levels, engine.starts, engine.values
    offset = np.arange(row.w, dtype=np.int64) - starts
    magnitude = np.abs(values).astype(np.uint64) if row.signed else values
    # Slot j holds bits (j - start)*s .. of its counter's raw field;
    # shifts of 64 or more give 0, so fields wider than the value work.
    fields = ((magnitude >> (offset * s).astype(np.uint64))
              & np.uint64((1 << s) - 1))
    if row.signed:
        # Sign-magnitude: the sign is the field's top bit, which is the
        # top bit of the block's last slot.
        sign = (offset == (1 << levels) - 1) & (values < 0)
        fields[sign] |= np.uint64(1 << (s - 1))
    group_level = default_group_level(row.w, row.max_level)
    return (_layout_bytes(levels, starts, row.encoding, group_level)
            + _pack_fields(fields, s))


def _restore_row(row, layout_buf, store_buf) -> None:
    """Fill one (empty) row from its validated-length buffers."""
    w, s = row.w, row.s
    group_level = default_group_level(w, row.max_level)
    levels, starts, heads = _load_layout(layout_buf, w, row.max_level,
                                         row.encoding, group_level)
    fields = _unpack_fields(store_buf, w, s)
    sizes = 1 << levels[heads]
    if row.signed:
        tops = heads + sizes - 1
        sign = (fields[tops] >> np.uint64(s - 1)).astype(bool)
        fields[tops] &= np.uint64((1 << (s - 1)) - 1)
        if (sign & ~np.logical_or.reduceat(fields != 0, heads)).any():
            raise ValueError("negative zero counter in SALSA blob")
    engine = row.engine
    if isinstance(engine, BitPackedEngine):
        if row.encoding == SIMPLE:
            engine.layout.bits._data[:] = layout_buf
        else:
            engine.layout._x = _group_numbers(layout_buf, group_level)
        engine.store._data[:] = store_buf
        return
    if (s << int(levels.max())) > 64:
        raise ValueError("counters wider than 64 bits need the "
                         "bitpacked engine")
    shifts = ((np.arange(w, dtype=np.int64) - starts) * s).astype(np.uint64)
    raw = np.bitwise_or.reduceat(fields << shifts, heads)
    if row.signed:
        raw = np.where(sign, -raw.astype(np.int64), raw.astype(np.int64))
    engine.levels[:] = levels
    engine.starts[:] = starts
    engine.values[:] = np.repeat(raw, sizes)


def serializable(sketch) -> bool:
    """True when :func:`dumps` supports ``sketch``'s exact type.

    The distributed fork-pool ships worker sketches back over this
    codec, so it gates that mode on this predicate.
    """
    return type(sketch) in _TYPES


def _header(sketch) -> bytes:
    row0 = sketch.rows[0]
    return _HEADER.pack(
        _MAGIC, _VERSION, _TYPES[type(sketch)], sketch.w, sketch.d,
        sketch.s, row0.max_bits, _MERGES[row0.merge],
        _ENCODINGS[row0.encoding], sketch.hashes.seed,
    )


def dumps(sketch) -> bytes:
    """Serialize a SALSA CMS / CUS / CS sketch to bytes.

    Engine-independent: blobs carry decoded state in the reference
    bit-packed encoding, never the in-memory representation.
    """
    if type(sketch) not in _TYPES:
        raise TypeError(f"cannot serialize {type(sketch).__name__}")
    return _header(sketch) + b"".join(_row_payload(row)
                                      for row in sketch.rows)


def loads(data: bytes, engine: str | None = None):
    """Reconstruct a sketch serialized by :func:`dumps`.

    The hash family is re-derived from the stored seed, so a round
    trip preserves hash functions (and therefore merge compatibility).
    ``engine`` picks the row engine backing the reconstruction (blobs
    do not record one; ``None`` = the process default), so state can
    cross engines in either direction.  Anything :func:`dumps` could
    not have written raises ``ValueError``.
    """
    size = len(data)
    if size < _HEADER.size:
        raise ValueError(f"truncated SALSA sketch blob: {size} bytes, "
                         f"header alone is {_HEADER.size}")
    (magic, version, type_tag, w, d, s, max_bits,
     merge_tag, encoding_tag, seed) = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a SALSA sketch blob (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported SALSA blob version {version}")
    cls = _TYPE_CLASSES.get(type_tag)
    if cls is None:
        raise ValueError(f"unknown sketch type tag {type_tag}")
    if merge_tag not in _MERGE_NAMES or encoding_tag not in _ENCODING_NAMES:
        raise ValueError("unknown merge or encoding tag in SALSA blob")
    # Every row carries at least its w*s payload bits; checking that
    # first keeps a corrupt header from allocating a huge sketch.
    if d * ((w * s + 7) // 8) > size - _HEADER.size:
        raise ValueError(f"truncated SALSA sketch blob: {size} bytes "
                         f"cannot hold {d} rows of {w}x{s} bits")

    kwargs = dict(w=w, d=d, s=s, max_bits=max_bits, seed=seed,
                  encoding=_ENCODING_NAMES[encoding_tag], engine=engine)
    if cls is SalsaCountMin:
        kwargs["merge"] = _MERGE_NAMES[merge_tag]
    sketch = cls(**kwargs)
    if _header(sketch) != data[:_HEADER.size]:
        raise ValueError("non-canonical SALSA blob header")

    n_layout, n_store = _row_shape(sketch.rows[0])
    expected = _HEADER.size + d * (n_layout + n_store)
    if size < expected:
        raise ValueError(f"truncated SALSA sketch blob: expected "
                         f"{expected} bytes, got {size}")
    if size > expected:
        raise ValueError(f"trailing bytes in SALSA blob: expected "
                         f"{expected}, got {size}")
    view = memoryview(data)
    offset = _HEADER.size
    for row in sketch.rows:
        store_at = offset + n_layout
        offset = store_at + n_store
        _restore_row(row, bytes(view[store_at - n_layout:store_at]),
                     view[store_at:offset])
    return sketch
