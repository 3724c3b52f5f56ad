"""Vocabulary construction, skip-gram pair generation, the SGNS
trainer, the word2vec text IO, and the pooling/cosine utilities."""

import math
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_math import (
    label_embedding,
    load_embeddings_reference,
    make_synonym_corpus,
    sgns_reference,
    skipgram_pairs,
)
from tagrec import embedding
from tagrec.embedding import (
    MAX_UPDATE_PAIRS,
    TWIN_SUFFIX,
    SgnsConfig,
    Vocabulary,
    build_vocab,
    cosine,
    file_sha256,
    load_embeddings,
    mean_pool,
    noise_distribution,
    save_embeddings,
    train_sgns,
    write_twin,
)
from tagrec.errors import DataError


class TestBuildVocab:
    def test_orders_by_descending_count_then_token(self):
        vocab = build_vocab([["b", "a", "b"], ["c", "a"]])
        assert vocab.tokens == ["a", "b", "c"]
        assert vocab.counts == [2, 2, 1]
        assert vocab.index == {"a": 0, "b": 1, "c": 2}

    def test_min_count_filters(self):
        vocab = build_vocab([["b", "a", "b"], ["c", "a"]], min_count=2)
        assert vocab.tokens == ["a", "b"]

    def test_empty_raises(self):
        with pytest.raises(DataError, match="min_count"):
            build_vocab([["x"]], min_count=2)

    def test_len_and_contains(self):
        vocab = build_vocab([["x", "y"]])
        assert len(vocab) == 2
        assert "x" in vocab and "z" not in vocab

    @given(
        st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_index_inverts_tokens(self, sentences):
        vocab = build_vocab(sentences)
        for i, t in enumerate(vocab.tokens):
            assert vocab.index[t] == i
        # counts never increase along the token order
        assert all(a >= b for a, b in zip(vocab.counts, vocab.counts[1:]))


class TestSkipgramPairs:
    def test_window_one(self):
        assert skipgram_pairs([0, 1, 2], window=1) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_window_two_counts(self):
        pairs = skipgram_pairs([0, 1, 2, 3], window=2)
        assert len(pairs) == 10
        assert (0, 3) not in pairs and (3, 0) not in pairs

    def test_window_clips_at_boundaries(self):
        assert skipgram_pairs([7], window=5) == []
        assert skipgram_pairs([], window=1) == []

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            skipgram_pairs([0, 1], window=0)

    @given(
        st.lists(st.integers(0, 9), min_size=0, max_size=12),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_set_is_symmetric_and_within_window(self, seq, window):
        pairs = skipgram_pairs(seq, window)
        # every ordered pair appears as many times as its reverse
        from collections import Counter

        counts = Counter(pairs)
        assert counts == Counter((b, a) for a, b in pairs)
        expected = sum(
            1
            for i in range(len(seq))
            for j in range(max(0, i - window), min(len(seq), i + window + 1))
            if j != i
        )
        assert len(pairs) == expected


class TestNoiseDistribution:
    def test_frozen_two_token_case(self):
        vocab = Vocabulary(tokens=["a", "b"], counts=[3, 1], index={"a": 0, "b": 1})
        p = noise_distribution(vocab)
        z = 3**0.75 + 1.0
        assert p == pytest.approx([3**0.75 / z, 1.0 / z], abs=1e-12)

    def test_uniform_counts_give_uniform_noise(self):
        vocab = Vocabulary(
            tokens=list("abcd"), counts=[5, 5, 5, 5], index={t: i for i, t in enumerate("abcd")}
        )
        assert noise_distribution(vocab) == pytest.approx([0.25] * 4)

    def test_sums_to_one(self):
        vocab = build_vocab([["a", "b", "b", "c", "c", "c"]])
        assert noise_distribution(vocab).sum() == pytest.approx(1.0, abs=1e-12)

    def test_flattens_relative_to_unigram(self):
        # exponent < 1 moves mass from frequent to rare tokens
        vocab = Vocabulary(tokens=["a", "b"], counts=[9, 1], index={"a": 0, "b": 1})
        p = noise_distribution(vocab)
        assert p[1] > 0.1  # unigram would give exactly 0.1
        assert p[0] < 0.9


class TestTrainSgns:
    def _tiny_corpus(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(12)]
        return [
            [words[j] for j in rng.integers(0, 12, size=6)] for _ in range(40)
        ]

    def test_sigmoid_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = embedding._sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert got.tolist() == [0.0, 0.5, 1.0]

    def test_deterministic_given_seed(self):
        sentences = self._tiny_corpus()
        vocab = build_vocab(sentences)
        cfg = SgnsConfig(dim=8, window=2, negatives=3, epochs=2, seed=3)
        vectors1, losses1 = train_sgns(sentences, vocab, cfg)
        vectors2, losses2 = train_sgns(sentences, vocab, cfg)
        assert np.array_equal(vectors1, vectors2)
        assert losses1 == losses2

    def test_seed_changes_result(self):
        sentences = self._tiny_corpus()
        vocab = build_vocab(sentences)
        vectors1, _ = train_sgns(sentences, vocab, SgnsConfig(dim=8, epochs=1, seed=0))
        vectors2, _ = train_sgns(sentences, vocab, SgnsConfig(dim=8, epochs=1, seed=1))
        assert not np.array_equal(vectors1, vectors2)

    def test_shapes_and_loss_length(self):
        sentences = self._tiny_corpus()
        vocab = build_vocab(sentences)
        cfg = SgnsConfig(dim=10, window=2, negatives=2, epochs=4, seed=0)
        vectors, losses = train_sgns(sentences, vocab, cfg)
        assert vectors.shape == (len(vocab), 10)
        assert len(losses) == 4
        assert all(math.isfinite(x) for x in losses)

    def test_loss_decreases_over_training(self):
        sentences = self._tiny_corpus()
        vocab = build_vocab(sentences)
        cfg = SgnsConfig(dim=10, window=2, negatives=3, epochs=6, learning_rate=0.05, seed=0)
        _, losses = train_sgns(sentences, vocab, cfg)
        assert losses[-1] < losses[0]

    def test_no_pairs_returns_empty_history(self):
        sentences = [["solo"], ["alone"]]
        vocab = build_vocab(sentences)
        vectors, losses = train_sgns(sentences, vocab, SgnsConfig(dim=4, epochs=3))
        assert losses == []
        assert vectors.shape == (2, 4)

    def test_out_of_vocabulary_tokens_are_skipped(self):
        sentences = [["a", "b", "a", "b"]] * 10
        vocab = build_vocab(sentences, min_count=1)
        with_noise = [s + ["zzz_unseen"] for s in sentences]
        _, losses = train_sgns(with_noise, vocab, SgnsConfig(dim=4, window=1, epochs=1))
        assert len(losses) == 1 and math.isfinite(losses[0])

    def test_subsampling_runs(self):
        sentences = self._tiny_corpus()
        vocab = build_vocab(sentences)
        cfg = SgnsConfig(dim=6, epochs=1, subsample_threshold=1e-3, seed=0)
        vectors, _ = train_sgns(sentences, vocab, cfg)
        assert vectors.shape == (len(vocab), 6)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            SgnsConfig(window=0)
        with pytest.raises(ValueError, match="negatives"):
            SgnsConfig(negatives=0)
        with pytest.raises(ValueError, match="learning_rate"):
            SgnsConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="dim"):
            SgnsConfig(dim=0)
        with pytest.raises(ValueError, match="dim"):
            SgnsConfig(dim=-3)
        with pytest.raises(ValueError, match="epochs"):
            SgnsConfig(epochs=0)

    def _assert_matches_reference(self, sentences, cfg):
        vocab = build_vocab(sentences)
        vectors, losses = train_sgns(sentences, vocab, cfg)
        inp, ref_losses, trained = sgns_reference(sentences, vocab, cfg, MAX_UPDATE_PAIRS)
        np.testing.assert_allclose(vectors, inp, rtol=1e-12, atol=0)
        # each epoch's loss is taken at the context vectors too, so this
        # also checks their updates
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
        return trained

    def test_matches_plain_loop_reference(self):
        # "a" repeats within its sentence, and with three words some
        # negative is bound to equal its pair's context
        sentences = [["a", "b", "a", "c"], ["b", "c"], ["c", "a", "b", "b", "a"], ["a"]]
        cfg = SgnsConfig(dim=6, window=2, negatives=3, epochs=3, learning_rate=0.2, seed=4)
        trained = self._assert_matches_reference(sentences, cfg)
        assert any(context in negs for context, negs in trained)

    def test_matches_reference_with_subsampling(self):
        sentences = self._tiny_corpus()[:12]
        cfg = SgnsConfig(dim=5, window=2, negatives=2, epochs=2, seed=1, subsample_threshold=0.05)
        self._assert_matches_reference(sentences, cfg)

    def test_long_sentence_is_updated_in_slices(self):
        # 300 tokens with window 2 make 1,194 pairs, several updates
        rng = np.random.default_rng(5)
        sentences = [[f"w{j}" for j in rng.integers(0, 20, size=300)], ["w1", "w2"]]
        cfg = SgnsConfig(dim=4, window=2, negatives=2, epochs=1, learning_rate=0.05, seed=2)
        assert len(skipgram_pairs(sentences[0], 2)) > 2 * MAX_UPDATE_PAIRS
        self._assert_matches_reference(sentences, cfg)

    def test_long_lines_with_a_frequent_token_converge(self):
        # about 15% of the tokens are one word; summed over 512-pair
        # updates its steps diverged at this step size
        rng = np.random.default_rng(0)
        sentences = [
            [f"w{z}" for z in rng.zipf(1.1, size=4000) if z <= 20000][:1000]
            for _ in range(4)
        ]
        vocab = build_vocab(sentences)
        cfg = SgnsConfig(dim=20, epochs=2, learning_rate=0.1, seed=0)
        _, losses = train_sgns(sentences, vocab, cfg)
        assert all(math.isfinite(x) and x < 3.0 for x in losses)
        assert losses[-1] < losses[0]

    def test_loss_evaluation_memory_is_bounded(self):
        # one epoch at the CLI defaults (dim 150, window 5) over 70,000
        # pairs; a loss evaluation that gathers every pair's negative
        # vectors at once peaks at 488 MB here
        rng = np.random.default_rng(0)
        sentences = [[f"w{j}" for j in rng.integers(0, 2000, size=10)] for _ in range(1000)]
        vocab = build_vocab(sentences)
        tracemalloc.start()
        try:
            train_sgns(sentences, vocab, SgnsConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestSynonymGeometry:
    """Two tokens used in identical contexts must land close together,
    and ahead of tokens from a disjoint context pool."""

    def test_synonyms_converge_and_loss_trends_down(self):
        sentences, (syn_a, syn_b), unrelated = make_synonym_corpus(seed=0)
        vocab = build_vocab(sentences)
        cfg = SgnsConfig(dim=20, window=2, negatives=5, epochs=20, learning_rate=0.015, seed=0)
        vectors, losses = train_sgns(sentences, vocab, cfg)

        vec = lambda t: vectors[vocab.index[t]]
        sim_ab = cosine(vec(syn_a), vec(syn_b))
        assert sim_ab >= 0.8
        for other in unrelated:
            assert sim_ab > cosine(vec(syn_a), vec(other))
            assert sim_ab > cosine(vec(syn_b), vec(other))

        assert all(b < a for a, b in zip(losses[:5], losses[1:6]))
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
        assert violations <= 3


class TestEmbeddingIO:
    def _random_embedding(self, rng):
        tokens = ["alpha", "#tag", "beta"]
        vocab = build_vocab([tokens * 2])
        return vocab, rng.standard_normal((3, 5))

    def test_round_trip_is_exact(self, tmp_path, rng):
        vocab, vectors = self._random_embedding(rng)
        path = tmp_path / "vectors.txt"
        save_embeddings(vectors, vocab, path)
        vocab2, vectors2 = load_embeddings(path)
        assert vocab2.tokens == vocab.tokens
        assert vocab2.index == vocab.index
        assert vocab2.counts == [1] * len(vocab)
        assert np.array_equal(vectors2, vectors)

    def test_round_trip_keeps_non_ascii_tokens(self, tmp_path, rng):
        # the minimally preprocessed corpus keeps accented words, so the
        # file format has to carry them
        vocab = build_vocab([["café", "plain", "naïve"]])
        vectors = rng.standard_normal((3, 4))
        path = tmp_path / "vectors.txt"
        save_embeddings(vectors, vocab, path)
        vocab2, vectors2 = load_embeddings(path)
        assert vocab2.tokens == vocab.tokens
        assert np.array_equal(vectors2, vectors)

    def test_header_row_matches_content(self, tmp_path, rng):
        vocab, vectors = self._random_embedding(rng)
        path = tmp_path / "vectors.txt"
        save_embeddings(vectors, vocab, path)
        header = path.read_text().splitlines()[0]
        assert header == f"{len(vocab)} {vectors.shape[1]}"

    @pytest.mark.parametrize(
        "content,match",
        [
            ("garbage\n", "malformed header"),
            ("x y\n", "non-numeric header"),
            ("1 3\ntok 0.5 0.5\n", "expected 3 values"),
            ("1 2\ntok 0.5 nope\n", "non-numeric field"),
            ("1 2\ntok nope 0.5\n", r"bad\.txt:2: non-numeric field"),
            # after a good row, so the row maps to its own line
            ("2 2\ntok 1 2\nbad 3 x\n", r"bad\.txt:3: non-numeric field"),
            ("1 1\ntok \n", r"bad\.txt:2: non-numeric field"),
            # a row past the bound the file's size sets has an empty value
            ("2 2\na 1 2\nb  ", r"bad\.txt:3: non-numeric field"),
            ("2 2\ntok 1 2\ntok 3 4\n", "duplicate token"),
            ("1 2\ntok 1 2\nextra 3 4\n", "more rows"),
            ("3 2\ntok 1 2\n", "found 1"),
            ("1 2\n 1 2\n", "empty token"),
            ("-5 3\n", r"bad\.txt:1: header .* needs rows >= 0 and dimension >= 1"),
            ("1 0\ntok\n", r"bad\.txt:1: header .* needs rows >= 0 and dimension >= 1"),
            # more rows than the file could hold are never allocated
            ("100000000000000 3\ntok 1 2 3\n",
             r"bad\.txt:1: header declares 100000000000000 rows, found 1"),
        ],
    )
    def test_malformed_files_raise_with_location(self, tmp_path, content, match):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(DataError, match=match):
            load_embeddings(path)

    def test_rows_at_the_size_bound_load(self, tmp_path):
        # two rows of 2 * d + 2 bytes, the last without its newline
        path = tmp_path / "tight.txt"
        path.write_text("2 2\na 1 2\nb 3 4")
        vocab, vectors = load_embeddings(path)
        assert vocab.tokens == ["a", "b"]
        assert np.array_equal(vectors, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_without_rows_loads_without_warnings(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vocab, vectors = load_embeddings(path)
        assert vocab.tokens == [] and vectors.shape == (0, 5)

    @pytest.mark.parametrize("value", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-digit"])
    def test_values_float_alone_accepts_are_rejected(self, tmp_path, value):
        path = tmp_path / "loose.txt"
        path.write_text(f"2 2\nok 1 2\ntok 0.5 {value}\n", encoding="utf-8")
        assert load_embeddings_reference(path)[1][1, 1] == float(value)
        with pytest.raises(DataError, match=r"loose\.txt:3: non-numeric field"):
            load_embeddings(path)

    @pytest.mark.parametrize("control", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_controls_are_rejected_as_float_rejects_them(self, tmp_path, control):
        # numpy's float parser strips them as whitespace; float() does not
        path = tmp_path / "sep.txt"
        path.write_text(f"1 2\na 1{control} 2\n", encoding="utf-8")
        for loader in (load_embeddings, load_embeddings_reference):
            with pytest.raises(DataError, match=r"sep\.txt:2: non-numeric field"):
                loader(path)

    def test_non_regular_file_is_named_as_one(self):
        with pytest.raises(DataError, match="/dev/null: an embedding must be a regular file"):
            load_embeddings("/dev/null")

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.one_of(
                        st.integers(0, 2**64 - 1).map(
                            lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
                        ).filter(lambda x: not math.isnan(x)),
                        st.sampled_from(
                            [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.225073858507201e-308,
                             2.2250738585072014e-308, 1.7976931348623157e308, 1e-320, 1e300]
                        ),
                    ),
                    min_size=d,
                    max_size=d,
                ),
                max_size=6,
            ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), d))
        ),
        st.lists(
            st.one_of(
                st.sampled_from(["#tag", '"quoted"', "it's", "café", "naïve", "日本語", "#π", "1e5"]),
                st.text(
                    st.characters(blacklist_categories=("Cs",), blacklist_characters=" \n\r"),
                    min_size=1,
                    max_size=8,
                ),
            ),
            min_size=6,
            max_size=6,
            unique=True,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_keeps_every_bit(self, vectors, tokens):
        vocab = Vocabulary(tokens=tokens[: len(vectors)], counts=[1] * len(vectors), index={})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vectors.txt"
            save_embeddings(vectors, vocab, path)
            loaded_vocab, loaded = load_embeddings(path)
            reference_vocab, reference = load_embeddings_reference(path)
            write_twin(path, loaded_vocab, loaded, file_sha256(path))
            twin_vocab, twin = embedding._read_twin(f"{path}{TWIN_SUFFIX}", file_sha256(path))
        assert loaded_vocab.tokens == reference_vocab.tokens == vocab.tokens == twin_vocab.tokens
        assert loaded.shape == reference.shape == vectors.shape == twin.shape
        assert loaded.tobytes() == vectors.tobytes() == reference.tobytes() == twin.tobytes()

    def test_load_holds_no_second_table(self, tmp_path, rng):
        vocab = build_vocab([[f"w{i}" for i in range(4000)]])
        vectors = rng.standard_normal((4000, 150))
        path = tmp_path / "vectors.txt"
        save_embeddings(vectors, vocab, path)
        tracemalloc.start()
        try:
            _, loaded = load_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * loaded.nbytes

    def test_non_utf8_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("2 1\nok 0.5\ncaf\u00e9 0.25\n".encode("latin-1"))
        with pytest.raises(DataError, match=r"latin1\.txt:3: not UTF-8"):
            load_embeddings(path)


def _no_text_parse(monkeypatch):
    def refuse(path):
        raise AssertionError(f"parsed the text of {path}")

    monkeypatch.setattr(embedding, "_parse_word2vec", refuse)


def _save_with_twin(vectors, vocab, path):
    """Save an embedding as text, then write its twin from the text."""
    save_embeddings(vectors, vocab, path)
    write_twin(path, *load_embeddings(path), file_sha256(path))
    return Path(f"{path}{TWIN_SUFFIX}")


class TestTwin:
    @pytest.mark.parametrize(
        "tokens",
        [["alpha", "#tag", "beta"], ["café", "日本語", "nul\x00", "\x00"], []],
        ids=["ascii", "non-ascii-and-nul", "no-rows"],
    )
    def test_twin_and_text_load_the_same_bits(self, tmp_path, rng, monkeypatch, tokens):
        vocab = Vocabulary(tokens=tokens, counts=[1] * len(tokens), index={})
        vectors = rng.standard_normal((len(tokens), 4))
        path = tmp_path / "vectors.txt"
        twin = _save_with_twin(vectors, vocab, path)
        assert twin.exists()
        text_vocab, text_vectors = embedding._parse_word2vec(path)
        _no_text_parse(monkeypatch)
        twin_vocab, twin_vectors = load_embeddings(path)
        assert twin_vocab.tokens == text_vocab.tokens == tokens
        assert twin_vocab.index == text_vocab.index
        assert twin_vocab.counts == [1] * len(tokens)
        assert twin_vectors.shape == text_vectors.shape == (len(tokens), 4)
        assert twin_vectors.tobytes() == text_vectors.tobytes() == vectors.tobytes()

    def test_a_caller_checked_digest_skips_the_hash(self, tmp_path, rng, monkeypatch):
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vectors.txt"
        _save_with_twin(rng.standard_normal((2, 3)), vocab, path)
        digest = file_sha256(path)
        monkeypatch.setattr(embedding, "file_sha256", lambda p: pytest.fail("hashed again"))
        _no_text_parse(monkeypatch)
        assert load_embeddings(path, digest)[0].tokens == ["a", "b"]

    def test_a_file_without_a_twin_is_not_hashed(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "vectors.txt"
        save_embeddings(rng.standard_normal((2, 3)), build_vocab([["a", "b"]]), path)
        monkeypatch.setattr(embedding, "file_sha256", lambda p: pytest.fail("hashed"))
        assert load_embeddings(path)[0].tokens == ["a", "b"]

    def test_stale_twin_is_ignored_and_then_replaced(self, tmp_path, rng):
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vectors.txt"
        twin = _save_with_twin(rng.standard_normal((2, 3)), vocab, path)
        stale = twin.read_bytes()
        fresh = rng.standard_normal((2, 3))
        save_embeddings(fresh, vocab, path)
        loaded_vocab, loaded = load_embeddings(path)
        assert loaded.tobytes() == fresh.tobytes()
        assert twin.read_bytes() == stale
        write_twin(path, loaded_vocab, loaded, file_sha256(path))
        assert twin.read_bytes() != stale
        assert load_embeddings(path)[1].tobytes() == fresh.tobytes()

    def test_matching_twin_is_not_rewritten(self, tmp_path, rng, monkeypatch):
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vectors.txt"
        _save_with_twin(rng.standard_normal((2, 3)), vocab, path)
        monkeypatch.setattr(embedding.tempfile, "mkstemp", lambda **kw: pytest.fail("rewritten"))
        write_twin(path, *load_embeddings(path), file_sha256(path))

    @pytest.mark.parametrize(
        "damage, match",
        [
            ("truncated", "damaged embedding twin"),
            ("float32", "float32 matrix of shape"),
            ("rows", r"matrix of shape \(1, 3\) is not 2 rows"),
            ("repeated", "tokens repeat"),
        ],
    )
    def test_damaged_twin_raises_naming_it(self, tmp_path, rng, damage, match):
        path = tmp_path / "vectors.txt"
        vectors = rng.standard_normal((2, 3))
        twin = _save_with_twin(vectors, build_vocab([["a", "b"]]), path)
        digest = np.frombuffer(file_sha256(path).encode("ascii"), dtype=np.uint8)
        tokens = np.frombuffer(b"a\nb", dtype=np.uint8)
        arrays = {
            "float32": [digest, tokens, vectors.astype(np.float32)],
            "rows": [digest, tokens, vectors[:1]],
            "repeated": [digest, np.frombuffer(b"a\na", dtype=np.uint8), vectors],
        }
        if damage == "truncated":
            twin.write_bytes(twin.read_bytes()[:-8])
        else:
            with open(twin, "wb") as fh:
                for array in arrays[damage]:
                    np.save(fh, array)
        with pytest.raises(DataError, match=match) as info:
            load_embeddings(path)
        assert str(info.value).startswith(f"{twin}: damaged embedding twin")
        assert str(info.value).endswith("delete it")

    def test_failed_replace_leaves_no_twin_and_no_temporary_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "vectors.txt"
        vocab = build_vocab([["a", "b"]])
        save_embeddings(rng.standard_normal((2, 3)), vocab, path)

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(embedding.os, "replace", refuse)
        write_twin(path, *load_embeddings(path), file_sha256(path))
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]

    def test_twin_bytes_are_deterministic_and_keep_the_text_mode(self, tmp_path, rng):
        vocab = build_vocab([["a", "b", "c"]])
        vectors = rng.standard_normal((3, 4))
        first = _save_with_twin(vectors, vocab, tmp_path / "one.txt")
        (tmp_path / "two.txt").write_bytes((tmp_path / "one.txt").read_bytes())
        (tmp_path / "two.txt").chmod(0o640)
        second = _save_with_twin(vectors, vocab, tmp_path / "two.txt")
        assert first.read_bytes() == second.read_bytes()
        assert second.stat().st_mode & 0o777 == 0o640


class TestLookupUtilities:
    def _fixture(self):
        vocab = Vocabulary(
            tokens=["a", "b", "#go"],
            counts=[2, 1, 1],
            index={"a": 0, "b": 1, "#go": 2},
        )
        return vocab, np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])

    def test_mean_pool_averages_known_tokens(self):
        vocab, emb = self._fixture()
        vec = mean_pool(["a", "b"], vocab, emb)
        assert isinstance(vec, np.ndarray) and vec.shape == (2,)
        assert vec == pytest.approx([1.0, 2.0])

    def test_mean_pool_ignores_unknown_tokens(self):
        vocab, emb = self._fixture()
        vec = mean_pool(["a", "mystery"], vocab, emb)
        assert vec == pytest.approx([2.0, 0.0])

    def test_mean_pool_all_oov(self):
        vocab, emb = self._fixture()
        vec = mean_pool(["x", "y"], vocab, emb)
        assert np.all(vec == 0.0) and vec.shape == (2,)

    def test_mean_pool_counts_repeats(self):
        vocab, emb = self._fixture()
        vec = mean_pool(["a", "a", "b"], vocab, emb)
        assert vec == pytest.approx([4.0 / 3.0, 4.0 / 3.0])

    def test_cosine_reference_values(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)
        assert cosine([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(-1.0)
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_cosine_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
                st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
            )
        )
    )
    # a norm whose square is subnormal once gave 1.0000047
    @example(([1.0, 0.0], [1.05e-160, 0.0]))
    @settings(max_examples=60, deadline=None)
    def test_cosine_symmetric_and_bounded(self, uv):
        u, v = uv
        s = cosine(u, v)
        assert s == pytest.approx(cosine(v, u), abs=1e-12)
        assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9

    # np.linalg.norm warns when the huge vector's square overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cosine_of_tiny_and_huge_vectors(self):
        assert cosine([1.0, 0.0], [1.05e-160, 0.0]) == 1.0
        assert cosine([3e-170, 4e-170], [4e-170, -3e-170]) == 0.0
        assert cosine([-1e200, 0.0], [1e200, 0.0]) == -1.0
        # the squared norm underflows to 0 but the vector is not zero
        assert cosine([3e-170, 0.0], [1.0, 0.0]) == 1.0
        assert cosine([0.0, 0.0], [1e-170, 0.0]) == 0.0

    def test_label_embedding_returns_hashtag_row(self):
        vocab, emb = self._fixture()
        assert np.array_equal(label_embedding("go", vocab, emb), [1.0, 1.0])

    def test_label_embedding_missing_label(self):
        vocab, emb = self._fixture()
        with pytest.raises(DataError, match="'#nope'"):
            label_embedding("nope", vocab, emb)
