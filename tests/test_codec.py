"""Unit tests for the signature codec (MinHash or SuperMinHash) and the
slot-agreement estimate over stored codes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import (
    CodecError,
    CodecSpec,
    make_hasher,
    parse_codec,
)
from repro.core.ecc import HadamardCode
from repro.core.embedding import SetEmbedder
from repro.core.index import SetSimilarityIndex
from repro.core.maintenance import rebuild
from repro.core.minhash import MinHasher, SuperMinHasher, hash_rows
from repro.core.query_plan import estimate_in_range
from repro.exec.columnar import csr_rows, pairs_csr
from repro.exec.snapfile import MANIFEST_FILE, SnapshotFormatError, open_snapshot
from repro.hamming.distance import hamming_distance_pairs


def _jaccard(a, b):
    a, b = frozenset(a), frozenset(b)
    return len(a & b) / len(a | b) if a | b else 1.0


def _codes(emb, sets):
    """The stored codes of ``sets``, one row each."""
    indptr, data, _ = hash_rows(sets)
    return emb.code_hashes(indptr, data)


class TestParseCodec:
    def test_default_full64(self):
        spec = parse_codec("full64")
        assert spec == CodecSpec("full64", "minhash")

    def test_bbit(self):
        """b-bit packings are gone: every spec naming one is refused."""
        for spec in ("bbit:1", "bbit:2", "bbit:4", "bbit:8",
                     "superminhash+bbit:2", "bbit:2+minhash"):
            with pytest.raises(CodecError):
                parse_codec(spec)

    def test_superminhash(self):
        spec = parse_codec("superminhash")
        assert spec == CodecSpec("superminhash", "superminhash")

    def test_combined(self):
        spec = parse_codec("superminhash+full64")
        assert spec == CodecSpec("superminhash", "superminhash")

    def test_order_insensitive(self):
        assert parse_codec("full64+superminhash") == parse_codec(
            "superminhash+full64"
        )

    def test_defaults_elide_in_canonical_name(self):
        assert parse_codec("minhash+full64").name == "full64"
        assert parse_codec("minhash").name == "full64"
        assert parse_codec("superminhash+full64").name == "superminhash"

    def test_case_and_whitespace(self):
        assert parse_codec("  Full64 ").name == "full64"
        assert parse_codec("SuperMinHash + FULL64").name == "superminhash"

    def test_spec_passthrough(self):
        spec = parse_codec("superminhash")
        assert parse_codec(spec) is spec

    def test_idempotent_on_canonical_name(self):
        for s in ("full64", "superminhash"):
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
        """Every codec keeps the Hadamard fixed-precision bias b."""
        assert parse_codec("full64").bias_bits(6) == 6
        assert parse_codec("superminhash").bias_bits(5) == 5

    def test_factories(self):
        assert isinstance(make_hasher("minhash", 8, 0), MinHasher)
        assert isinstance(make_hasher("superminhash", 8, 0), SuperMinHasher)
        with pytest.raises(CodecError):
            make_hasher("sha256", 8, 0)


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
        assert (emb.m, emb.code_dtype) == (16, np.uint8)

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
        codes = _codes(emb, sets)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, hasher.signature_matrix(sets) % np.uint64(32))
        assert np.array_equal(emb.encode(codes), emb.embed_many(sets))

    def test_superminhash_generator(self):
        emb = SetEmbedder(k=16, b=4, seed=0, codec="superminhash")
        assert isinstance(emb.hasher, SuperMinHasher)
        assert isinstance(emb.code, HadamardCode)

    def test_codec_name_normalized(self):
        assert SetEmbedder(codec="MINHASH+Full64").codec == "full64"

    def test_unknown_codec_raises(self):
        with pytest.raises(CodecError):
            SetEmbedder(codec="zstd")

    def test_estimate_pairs_identical_and_disjoint(self):
        for codec in ("full64", "superminhash"):
            emb = SetEmbedder(k=256, b=6, seed=0, codec=codec)
            a = {f"a{i}" for i in range(40)}
            b = {f"b{i}" for i in range(40)}
            va, vb = _codes(emb, [a, b])
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
        for codec in ("full64", "superminhash"):
            emb = SetEmbedder(k=1024, b=6, seed=0, codec=codec)
            va, vb = _codes(emb, [a, b])
            est = float(emb.estimate_pairs(va[np.newaxis], vb[np.newaxis])[0])
            assert abs(est - true) < 0.1, codec

    def test_manifest_without_codec_is_refused(self, tmp_path):
        """A snapshot manifest that names no codec fails typed at open
        instead of being read as some default packing."""
        index = SetSimilarityIndex.build(
            [{f"s{i}{j}" for j in range(6 + i)} for i in range(8)],
            budget=8, recall_target=0.7, k=8, b=4, seed=1, codec="superminhash",
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
            sets, budget=8, recall_target=0.7, k=8, b=4, seed=1,
            codec="superminhash",
        )
        index.save(tmp_path / "snap")
        for emb in (
            SetSimilarityIndex.load(tmp_path / "snap").embedder,
            open_snapshot(tmp_path / "snap").embedder,
        ):
            assert emb.codec == "superminhash"
            assert (emb.k, emb.b, emb.seed) == (8, 4, 1)
            s = {"a", "b"}
            assert np.array_equal(emb.embed(s), index.embedder.embed(s))

    def test_repr_mentions_codec(self):
        assert "superminhash" in repr(SetEmbedder(codec="superminhash"))


def _hamming_estimate(emb, a_codes, b_codes):
    """The estimate the stored packed vectors gave: Theorem 1 inverted
    on the Hamming distance of the two encodings, with the collision
    bias."""
    dists = hamming_distance_pairs(emb.encode(a_codes), emb.encode(b_codes))
    sims = 1.0 - dists / emb.dimension
    collide = 2.0 ** (-emb.b)
    return np.clip((2.0 * sims - 1.0 - collide) / (1.0 - collide), 0.0, 1.0)


#: (b, k, n pairs, seed): b = 1..5 packs codewords through pack_bits
#: (m < 64), b = 6..8 through the packed table (m >= 64).
_code_pairs = st.tuples(
    st.integers(1, 8), st.integers(1, 130), st.integers(0, 6),
    st.integers(0, 2**32),
)


class TestSlotAgreementEstimate:
    """The stored codes make the packed vectors redundant: slot
    agreement on codes is the Hamming estimate of their encodings."""

    @given(_code_pairs, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_inverted_hamming(self, dims, agreeing):
        b, k, n, seed = dims
        rng = np.random.default_rng(seed)
        emb = SetEmbedder(k=k, b=b, seed=0)
        a = rng.integers(0, 1 << b, size=(n, k)).astype(emb.code_dtype)
        other = rng.integers(0, 1 << b, size=(n, k)).astype(emb.code_dtype)
        # Mostly-agreeing pairs reach the estimates near 1 too.
        keep = rng.random((n, k)) < (0.8 if agreeing else 0.0)
        c = np.where(keep, a, other)
        disagree = np.count_nonzero(a != c, axis=1)
        # Two Hadamard codewords differ in exactly m / 2 bits.
        assert np.array_equal(
            hamming_distance_pairs(emb.encode(a), emb.encode(c)),
            disagree * (emb.m // 2),
        )
        assert np.array_equal(
            emb.estimate_pairs(a, c), _hamming_estimate(emb, a, c)
        )

    @given(_code_pairs, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_est_in_range_counts_equal(self, dims, range_seed):
        """``est_in_range`` over codes counts what the Hamming estimate
        over packed vectors counted, at bounds taken from the estimates
        themselves."""
        b, k, n, seed = dims
        rng = np.random.default_rng(seed)
        emb = SetEmbedder(k=k, b=b, seed=0)
        n_stored = 8
        stored = rng.integers(0, 1 << b, size=(n_stored, k)).astype(emb.code_dtype)
        queries = np.where(
            rng.random((n + 1, k)) < 0.6,
            stored[rng.integers(0, n_stored, size=n + 1)],
            rng.integers(0, 1 << b, size=(n + 1, k)),
        ).astype(emb.code_dtype)
        rows = list(range(n + 1))
        pair_rows = rng.integers(0, n + 1, size=3 * (n + 1))
        pair_sids = rng.integers(0, n_stored, size=3 * (n + 1))
        candidates = pairs_csr(pair_rows, pair_sids, n + 1)
        q_rows = csr_rows(candidates[0])
        want = _hamming_estimate(emb, queries[q_rows], stored[candidates[1]])
        picks = np.random.default_rng(range_seed).choice(
            np.append(want, [0.0, 1.0]), size=2
        )
        lo, hi = float(picks.min()), float(picks.max())
        got = estimate_in_range(
            emb, candidates, queries, rows, lambda sids: stored[sids], lo, hi
        )
        assert got == int(((lo <= want) & (want <= hi)).sum())


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

    @pytest.mark.parametrize("codec", ["superminhash"])
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

    def test_rebuild_preserves_codec(self):
        sets = _clustered_sets(n_clusters=6)
        index = SetSimilarityIndex.build(
            sets, budget=40, k=24, b=4, seed=0, codec="superminhash"
        )
        fresh = rebuild(index, sample_pairs=2_000)
        assert fresh.embedder.codec == "superminhash"

    def test_insert_delete_roundtrip_under_superminhash(self):
        sets = _clustered_sets(n_clusters=6)
        index = SetSimilarityIndex.build(
            sets, budget=40, k=24, b=4, seed=0, codec="superminhash"
        )
        sid = index.insert({"new:1", "new:2", "new:3"})
        got = index.query({"new:1", "new:2", "new:3"}, 0.9, 1.0)
        assert sid in {s for s, _ in got.answers}
        index.delete(sid)
        got = index.query({"new:1", "new:2", "new:3"}, 0.9, 1.0)
        assert sid not in {s for s, _ in got.answers}
