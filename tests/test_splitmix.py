"""The one splitmix64 finalizer (:mod:`repro.hamming.splitmix`).

Hash-table key fingerprints, shard partitions, routing bit positions
and SuperMinHash streams all avalanche through it, so its outputs are
part of every stored image: they are pinned here, and the scalar and
vectorised forms must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.hamming.splitmix import GOLDEN, MASK64, mix64, mix64_array
from repro.storage.hashtable import hash_key, hash_words

#: Outputs of the finalizer as every stored image was written with it.
PINNED = {
    0: 0x0,
    1: 0x5692161D100B05E5,
    42: 0xA759EA27D4727622,
    GOLDEN: 0xE220A8397B1DCDAF,
    MASK64: 0xB4D055FCF2CBBD7B,
}


def test_pinned_outputs():
    for x, want in PINNED.items():
        assert mix64(x) == want
    got = mix64_array(np.array(list(PINNED), dtype=np.uint64))
    assert got.tolist() == list(PINNED.values())


def test_scalar_and_vector_forms_agree():
    values = np.random.default_rng(3).integers(
        0, 2**64, size=1000, dtype=np.uint64
    )
    assert mix64_array(values).tolist() == [mix64(v) for v in values.tolist()]


def test_scalar_form_wraps_mod_2_64():
    assert mix64(MASK64 + 1 + 42) == mix64(42)
    assert mix64(3 * GOLDEN) == mix64((3 * GOLDEN) & MASK64)


def test_key_fingerprint_pinned():
    """The hash-table fingerprint folds the finalizer over key words."""
    assert hash_key(b"abcdefghij") == 0x04B36BA606A96E84
    words = np.frombuffer(b"abcdefghij" + bytes(6), dtype="<u8")[None]
    assert hash_words(words, 10).tolist() == [0x04B36BA606A96E84]


def test_vector_fingerprints_equal_scalar_ones():
    """``hash_words`` over a key-word matrix is ``hash_key`` of each
    row's key bytes, for whole-word and zero-padded key widths."""
    rng = np.random.default_rng(5)
    for key_bytes in (1, 7, 8, 13, 24):
        n_words = -(-key_bytes // 8)
        raw = rng.integers(0, 256, size=(50, key_bytes), dtype=np.uint8)
        padded = np.zeros((50, n_words * 8), dtype=np.uint8)
        padded[:, :key_bytes] = raw
        got = hash_words(padded.view("<u8"), key_bytes)
        assert got.tolist() == [hash_key(row.tobytes()) for row in raw]
