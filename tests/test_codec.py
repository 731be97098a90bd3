"""Unit tests for the signature codec layer (b-bit minwise, SuperMinHash)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import (
    SUPPORTED_BBITS,
    BBitPacker,
    CodecError,
    CodecSpec,
    make_hasher,
    make_packer,
    parse_codec,
)
from repro.core.ecc import HadamardCode
from repro.core.embedding import SetEmbedder
from repro.core.index import SetSimilarityIndex
from repro.core.maintenance import rebuild
from repro.core.minhash import MinHasher, SuperMinHasher
from repro.exec.snapfile import MANIFEST_FILE, SnapshotFormatError, open_snapshot


def _jaccard(a, b):
    a, b = frozenset(a), frozenset(b)
    return len(a & b) / len(a | b) if a | b else 1.0


class TestParseCodec:
    def test_default_full64(self):
        spec = parse_codec("full64")
        assert spec == CodecSpec("full64", "minhash", "full64", None)

    def test_bbit(self):
        for bits in SUPPORTED_BBITS:
            spec = parse_codec(f"bbit:{bits}")
            assert spec.name == f"bbit:{bits}"
            assert spec.generator == "minhash"
            assert spec.packing == "bbit"
            assert spec.bits == bits

    def test_superminhash(self):
        spec = parse_codec("superminhash")
        assert spec == CodecSpec("superminhash", "superminhash", "full64", None)

    def test_combined(self):
        spec = parse_codec("superminhash+bbit:2")
        assert spec.name == "superminhash+bbit:2"
        assert spec.generator == "superminhash"
        assert spec.packing == "bbit"
        assert spec.bits == 2

    def test_order_insensitive(self):
        assert parse_codec("bbit:2+superminhash") == parse_codec(
            "superminhash+bbit:2"
        )

    def test_defaults_elide_in_canonical_name(self):
        assert parse_codec("minhash+full64").name == "full64"
        assert parse_codec("minhash").name == "full64"
        assert parse_codec("superminhash+full64").name == "superminhash"
        assert parse_codec("minhash+bbit:4").name == "bbit:4"

    def test_case_and_whitespace(self):
        assert parse_codec("  Full64 ").name == "full64"
        assert parse_codec("SuperMinHash + BBIT:2").name == "superminhash+bbit:2"

    def test_spec_passthrough(self):
        spec = parse_codec("bbit:2")
        assert parse_codec(spec) is spec

    def test_idempotent_on_canonical_name(self):
        for s in ("full64", "bbit:1", "superminhash", "superminhash+bbit:8"):
            assert parse_codec(parse_codec(s).name).name == s

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "zstd",
            "bbit",
            "bbit:",
            "bbit:3",
            "bbit:0",
            "bbit:64",
            "bbit:two",
            "full64+bbit:2",
            "minhash+superminhash",
            "full64+full64",
            "full64+",
            "+full64",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(CodecError):
            parse_codec(bad)

    def test_rejects_non_string(self):
        with pytest.raises(CodecError):
            parse_codec(42)

    def test_codec_error_is_value_error(self):
        assert issubclass(CodecError, ValueError)

    def test_bias_bits(self):
        """full64 keeps the Hadamard bias b; bbit plans uncorrected."""
        assert parse_codec("full64").bias_bits(6) == 6
        assert parse_codec("superminhash").bias_bits(5) == 5
        assert parse_codec("bbit:2").bias_bits(6) is None
        assert parse_codec("superminhash+bbit:1").bias_bits(6) is None

    def test_factories(self):
        assert isinstance(make_hasher("minhash", 8, 0), MinHasher)
        assert isinstance(make_hasher("superminhash", 8, 0), SuperMinHasher)
        with pytest.raises(CodecError):
            make_hasher("sha256", 8, 0)
        assert isinstance(make_packer(parse_codec("full64"), 6), HadamardCode)
        packer = make_packer(parse_codec("bbit:4"), 6)
        assert isinstance(packer, BBitPacker)
        assert packer.m == 4


class TestBBitPacker:
    def test_rejects_bad_width(self):
        for bad in (0, 3, 5, 16, 64):
            with pytest.raises(CodecError):
                BBitPacker(bad)

    def test_slot_layout(self):
        """Slot i occupies bits [i*b, (i+1)*b), little-endian."""
        for bits in SUPPORTED_BBITS:
            packer = BBitPacker(bits)
            k = packer.slots_per_word + 3  # spills into a second word
            values = np.arange(k, dtype=np.uint64) % np.uint64(1 << bits)
            words = packer.encode(values)
            assert words.shape == ((k + packer.slots_per_word - 1)
                                   // packer.slots_per_word,)
            for i in range(k):
                word = int(words[i // packer.slots_per_word])
                shift = (i % packer.slots_per_word) * bits
                got = (word >> shift) & ((1 << bits) - 1)
                assert got == int(values[i])

    def test_truncates_high_bits(self):
        """Only the low b bits of each value survive packing."""
        packer = BBitPacker(2)
        full = np.array([0b1111, 0b0100, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        low = full & np.uint64(0b11)
        assert np.array_equal(packer.encode(full), packer.encode(low))

    def test_padding_slots_are_zero(self):
        packer = BBitPacker(8)
        values = np.full(9, 0xFF, dtype=np.uint64)  # 9 slots, 2 words
        words = packer.encode(values)
        assert words.shape == (2,)
        assert int(words[1]) == 0xFF  # slots 9..15 of word 1 are zero

    def test_encode_matches_encode_many(self):
        rng = np.random.default_rng(3)
        for bits in SUPPORTED_BBITS:
            packer = BBitPacker(bits)
            matrix = rng.integers(0, 1 << bits, size=(7, 50), dtype=np.uint64)
            many = packer.encode_many(matrix)
            for i in range(7):
                assert np.array_equal(many[i], packer.encode(matrix[i]))

    def test_interface_parity_with_hadamard(self):
        """Both packers expose m / encode / encode_many; D = m * k."""
        k = 10
        values = np.arange(k, dtype=np.uint64)
        for code in (HadamardCode(6), BBitPacker(2)):
            words = code.encode(values)
            assert words.shape == ((code.m * k + 63) // 64,)
            assert np.array_equal(
                code.encode_many(values[np.newaxis, :])[0], words
            )

    @given(
        st.sampled_from(SUPPORTED_BBITS),
        st.integers(1, 4),
        st.integers(1, 130),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40)
    def test_roundtrip_via_bit_unpack(self, bits, n_rows, k, seed):
        """Unpacking the packed words recovers every truncated slot."""
        from repro.hamming.bitvector import unpack_bits

        rng = np.random.default_rng(seed)
        packer = BBitPacker(bits)
        matrix = rng.integers(0, 1 << 63, size=(n_rows, k), dtype=np.uint64)
        words = packer.encode_many(matrix)
        n_slots_padded = words.shape[1] * packer.slots_per_word
        unpacked = unpack_bits(words, n_slots_padded * bits)
        weights = (1 << np.arange(bits, dtype=np.uint64))
        slots = (
            unpacked.reshape(n_rows, n_slots_padded, bits) * weights
        ).sum(axis=2)
        assert np.array_equal(
            slots[:, :k], matrix & np.uint64((1 << bits) - 1)
        )
        assert not slots[:, k:].any()


class TestSuperMinHasher:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SuperMinHasher(k=0)

    def test_deterministic(self):
        s = {"a", "b", "c", 7, ("t", 1)}
        a = SuperMinHasher(k=32, seed=5).signature(s)
        b = SuperMinHasher(k=32, seed=5).signature(s)
        assert np.array_equal(a, b)

    def test_seed_changes_signature(self):
        s = {"a", "b", "c", "d"}
        a = SuperMinHasher(k=64, seed=0).signature(s)
        b = SuperMinHasher(k=64, seed=1).signature(s)
        assert not np.array_equal(a, b)

    def test_order_invariant(self):
        h = SuperMinHasher(k=16, seed=0)
        assert np.array_equal(
            h.signature(["x", "y", "z"]), h.signature(["z", "x", "y"])
        )

    def test_duplicates_ignored(self):
        h = SuperMinHasher(k=16, seed=0)
        assert np.array_equal(
            h.signature(["x", "y", "x", "y"]), h.signature(["x", "y"])
        )

    def test_empty_set_raises(self):
        h = SuperMinHasher(k=8)
        with pytest.raises(ValueError):
            h.signature([])
        with pytest.raises(ValueError):
            h.signature_matrix([{"a"}, set()])

    def test_every_slot_filled(self):
        """Each element's value vector covers all k slots (FY permutation)."""
        h = SuperMinHasher(k=20, seed=0)
        vals = h._element_values(h.hash_elements(["only"]))
        js = (vals[0] >> np.uint64(32)).astype(np.int64)
        assert sorted(js.tolist()) == sorted(set(js.tolist()))  # one j per slot
        assert js.min() >= 0 and js.max() < 20

    def test_matrix_matches_scalar(self):
        sets = [
            {"a", "b"},
            {"b", "c", "d"},
            {f"e{i}" for i in range(40)},
            {"a"},
        ]
        h = SuperMinHasher(k=24, seed=2)
        matrix = h.signature_matrix(sets)
        for i, s in enumerate(sets):
            assert np.array_equal(matrix[i], h.signature(s))

    def test_matrix_chunk_boundaries(self):
        """Tiny chunk budget must not change any signature."""
        sets = [{f"s{i}e{j}" for j in range(5 + i % 7)} for i in range(30)]
        h = SuperMinHasher(k=16, seed=1)
        full = h.signature_matrix(sets)
        for chunk in (1, 6, 17):
            assert np.array_equal(
                h.signature_matrix(sets, chunk_elements=chunk), full
            )

    def test_estimator_accuracy(self):
        """Agreement fraction tracks true Jaccard at large k."""
        a = {f"x{i}" for i in range(60)}
        b = {f"x{i}" for i in range(30, 90)}  # Jaccard 30/90 = 1/3
        h = SuperMinHasher(k=2048, seed=0)
        est = h.estimate_similarity(h.signature(a), h.signature(b))
        assert abs(est - _jaccard(a, b)) < 0.05

    def test_identical_sets_agree_exactly(self):
        h = SuperMinHasher(k=64, seed=0)
        s = {"p", "q", "r"}
        assert h.estimate_similarity(h.signature(s), h.signature(s)) == 1.0


class TestSetEmbedderCodecs:
    def test_default_is_full64(self):
        emb = SetEmbedder(k=8, b=4)
        assert emb.codec == "full64"
        assert isinstance(emb.code, HadamardCode)
        assert isinstance(emb.hasher, MinHasher)
        assert emb.bias_bits == 4

    def test_full64_bit_identical_to_manual_composition(self):
        """codec='full64' reproduces MinHasher + HadamardCode exactly."""
        emb = SetEmbedder(k=12, b=5, seed=3, codec="full64")
        hasher, code = MinHasher(k=12, seed=3), HadamardCode(5)
        sets = [{"a", "b"}, {"b", "c", "d"}, {f"e{i}" for i in range(9)}]
        for s in sets:
            assert np.array_equal(emb.embed(s), code.encode(hasher.signature(s)))
        assert np.array_equal(
            emb.embed_many(sets), code.encode_many(hasher.signature_matrix(sets))
        )

    def test_bbit_dimension_and_bias(self):
        emb = SetEmbedder(k=32, b=6, seed=0, codec="bbit:2")
        assert emb.codec == "bbit:2"
        assert emb.m == 2
        assert emb.dimension == 64  # 2 bits x 32 slots
        assert emb.n_words == 1
        assert emb.bias_bits is None  # planner uses uncorrected curves

    def test_bbit_shrinks_vectors(self):
        full = SetEmbedder(k=64, b=6, seed=0)
        small = SetEmbedder(k=64, b=6, seed=0, codec="bbit:2")
        s = {f"x{i}" for i in range(20)}
        assert full.embed(s).nbytes // small.embed(s).nbytes == 32

    def test_superminhash_generator(self):
        emb = SetEmbedder(k=16, b=4, seed=0, codec="superminhash")
        assert isinstance(emb.hasher, SuperMinHasher)
        assert isinstance(emb.code, HadamardCode)
        assert emb.bias_bits == 4

    def test_codec_name_normalized(self):
        assert SetEmbedder(codec="MINHASH+Full64").codec == "full64"

    def test_unknown_codec_raises(self):
        with pytest.raises(CodecError):
            SetEmbedder(codec="zstd")

    def test_estimate_pairs_identical_and_disjoint(self):
        for codec in ("full64", "bbit:2", "superminhash+bbit:1"):
            emb = SetEmbedder(k=256, b=6, seed=0, codec=codec)
            a = {f"a{i}" for i in range(40)}
            b = {f"b{i}" for i in range(40)}
            va, vb = emb.embed(a), emb.embed(b)
            pairs = emb.estimate_pairs(
                np.stack([va, va, vb]), np.stack([va, vb, vb])
            )
            assert pairs[0] == pytest.approx(1.0)
            assert pairs[2] == pytest.approx(1.0)
            assert pairs[1] < 0.15  # disjoint, corrected toward 0

    def test_estimate_pairs_calibrated(self):
        """Variance-corrected estimates track true Jaccard for every codec."""
        a = {f"x{i}" for i in range(80)}
        b = {f"x{i}" for i in range(40, 120)}  # Jaccard 1/3
        true = _jaccard(a, b)
        for codec in ("full64", "bbit:1", "bbit:2", "superminhash+bbit:2"):
            emb = SetEmbedder(k=1024, b=6, seed=0, codec=codec)
            va, vb = emb.embed(a), emb.embed(b)
            est = float(emb.estimate_pairs(va[np.newaxis], vb[np.newaxis])[0])
            assert abs(est - true) < 0.1, codec

    def test_estimate_many_matches_pairs(self):
        for codec in ("full64", "bbit:4"):
            emb = SetEmbedder(k=64, b=6, seed=0, codec=codec)
            sets = [{f"s{i}{j}" for j in range(6 + i)} for i in range(5)]
            matrix = emb.embed_many(sets)
            q = emb.embed({"s00", "s01", "zz"})
            many = emb.estimate_many(matrix, q)
            pairs = emb.estimate_pairs(
                matrix, np.tile(q, (matrix.shape[0], 1))
            )
            assert np.allclose(many, pairs)

    def test_manifest_without_codec_is_refused(self, tmp_path):
        """A snapshot manifest that names no codec fails typed at open
        instead of being read as some default packing."""
        index = SetSimilarityIndex.build(
            [{f"s{i}{j}" for j in range(6 + i)} for i in range(8)],
            budget=8, recall_target=0.7, k=8, b=4, seed=1, codec="bbit:2",
        )
        index.save(tmp_path / "snap")
        manifest = json.loads((tmp_path / "snap" / MANIFEST_FILE).read_text())
        del manifest["codec"]
        (tmp_path / "snap" / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match="codec"):
            open_snapshot(tmp_path / "snap")

    def test_json_roundtrip_preserves_codec(self, tmp_path):
        """The manifest's JSON embedder parameters rebuild the embedder
        exactly: same codec, same embeddings."""
        sets = [{f"s{i}{j}" for j in range(6 + i)} for i in range(8)]
        index = SetSimilarityIndex.build(
            sets, budget=8, recall_target=0.7, k=8, b=4, seed=1, codec="bbit:2",
        )
        index.save(tmp_path / "snap")
        for emb in (
            SetSimilarityIndex.load(tmp_path / "snap").embedder,
            open_snapshot(tmp_path / "snap").embedder,
        ):
            assert emb.codec == "bbit:2"
            assert (emb.k, emb.b, emb.seed) == (8, 4, 1)
            s = {"a", "b"}
            assert np.array_equal(emb.embed(s), index.embedder.embed(s))

    def test_repr_mentions_codec(self):
        assert "bbit:2" in repr(SetEmbedder(codec="bbit:2"))


def _clustered_sets(n_clusters=12, per_cluster=4, seed=0):
    """Small planted-cluster collection: members overlap heavily."""
    rng = np.random.default_rng(seed)
    sets = []
    for c in range(n_clusters):
        core = [f"c{c}:{i}" for i in range(14)]
        for m in range(per_cluster):
            extra = [f"c{c}m{m}:{i}" for i in range(rng.integers(2, 6))]
            sets.append(frozenset(core[: rng.integers(9, 15)]) | frozenset(extra))
    return sets


class TestIndexWithCodecs:
    def test_full64_codec_is_bit_identical_to_default(self):
        """codec='full64' must not change a single answer or candidate."""
        sets = _clustered_sets()
        default = SetSimilarityIndex.build(sets, budget=60, k=24, b=4, seed=0)
        tagged = SetSimilarityIndex.build(
            sets, budget=60, k=24, b=4, seed=0, codec="full64"
        )
        queries = [sets[0], sets[5], {"c3:0", "c3:1", "novel"}]
        got_d = default.query_batch(queries, 0.4, 1.0)
        got_t = tagged.query_batch(queries, 0.4, 1.0)
        for rd, rt in zip(got_d.results, got_t.results):
            assert rd.answers == rt.answers
            assert rd.candidates == rt.candidates

    @pytest.mark.parametrize("codec", ["bbit:2", "superminhash", "superminhash+bbit:2"])
    def test_compressed_answers_are_exact(self, codec):
        """Verification is exact, so codec answers have no false positives."""
        sets = _clustered_sets()
        index = SetSimilarityIndex.build(
            sets, budget=60, recall_target=0.95, k=48, b=4, seed=0, codec=codec
        )
        assert index.embedder.codec == parse_codec(codec).name
        result = index.query(sets[0], 0.5, 1.0)
        assert result.answers  # the query's own cluster must surface
        for sid, sim in result.answers:
            true = _jaccard(sets[0], index.store.get(sid))
            assert sim == pytest.approx(true)
            assert 0.5 <= true <= 1.0

    def test_bbit_recall_on_clusters(self):
        """b-bit candidates still find most truly-similar sets."""
        sets = _clustered_sets()
        index = SetSimilarityIndex.build(
            sets, budget=80, recall_target=0.95, k=64, b=4, seed=0, codec="bbit:2"
        )
        expected = {
            frozenset(s) for s in sets if 0.5 <= _jaccard(sets[0], s) <= 1.0
        }
        # sids are store-assigned; map answers back through contents.
        answered = {
            frozenset(index.store.get(sid))
            for sid, _ in index.query(sets[0], 0.5, 1.0).answers
        }
        assert len(answered & expected) >= 0.8 * len(expected)

    def test_rebuild_preserves_codec(self):
        sets = _clustered_sets(n_clusters=6)
        index = SetSimilarityIndex.build(
            sets, budget=40, k=24, b=4, seed=0, codec="bbit:4"
        )
        fresh = rebuild(index, sample_pairs=2_000)
        assert fresh.embedder.codec == "bbit:4"

    def test_insert_delete_roundtrip_under_bbit(self):
        sets = _clustered_sets(n_clusters=6)
        index = SetSimilarityIndex.build(
            sets, budget=40, k=24, b=4, seed=0, codec="bbit:2"
        )
        sid = index.insert({"new:1", "new:2", "new:3"})
        got = index.query({"new:1", "new:2", "new:3"}, 0.9, 1.0)
        assert sid in {s for s, _ in got.answers}
        index.delete(sid)
        got = index.query({"new:1", "new:2", "new:3"}, 0.9, 1.0)
        assert sid not in {s for s, _ in got.answers}
