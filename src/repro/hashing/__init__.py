"""Hashing substrate shared by every sketch in the library.

The paper's implementations all use BobHash (Bob Jenkins' lookup3) with
per-row seeds, plus an extra pairwise-independent sign hash for Count
Sketch.  We provide:

* :func:`bobhash` -- a faithful lookup3 ``hashlittle`` over bytes;
  :class:`HashFamily` uses it for ``bytes`` keys.
* :func:`mix64` -- the splitmix64 finalizer, the one hash path for
  integer keys (scalar and batched forms are bit-identical).
* :class:`HashFamily` -- d seeded hash functions producing row indices
  in ``[0, w)`` (w a power of two, as in the paper's implementation)
  and +/-1 signs.  Its only settings are ``d`` and ``seed``.
* :class:`TabulationHash` / :class:`TabulationFamily` -- provably
  3-independent simple tabulation, the hash ablation's reference point,
  with the same scalar and batched (``raw_many``/``raw_matrix``) API.
* :func:`murmur3_32` / :func:`murmur3_64` -- MurmurHash3, the hash used
  by Spark's CountMinSketch [52].

Every structure is deterministic given its seed, so experiments are
reproducible bit-for-bit.
"""

from repro.hashing.bobhash import bobhash
from repro.hashing.family import HashFamily, mix64, mix64_many
from repro.hashing.tabulation import TabulationFamily, TabulationHash
from repro.hashing.murmur import murmur3_32, murmur3_64

__all__ = [
    "bobhash",
    "mix64",
    "mix64_many",
    "HashFamily",
    "TabulationHash",
    "TabulationFamily",
    "murmur3_32",
    "murmur3_64",
]
