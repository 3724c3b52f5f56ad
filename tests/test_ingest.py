"""Raw-record parsing, the six-step text cleaner, drop rules, label
selection, dataset assembly, and the JSONL formats — anchored on the
25-record fixture and its hand-derived golden output."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrec.errors import DataError, MalformedRecordError
from tagrec.ingest import (
    CleanTweet,
    base_tokens,
    clean_text,
    corpus_from_clean,
    default_stopwords,
    extract_hashtags,
    filter_corpus,
    load_stopwords,
    materialize_dataset,
    minimal_tokens,
    normalize_raw,
    parse_raw_record,
    read_clean_jsonl,
    read_raw_jsonl,
    select_top_labels,
    write_clean_jsonl,
)

FIXTURES = Path(__file__).parent / "fixtures"


# records whose fields have the wrong JSON type: each is malformed
WRONG_TYPES = {
    "numeric-id": {"id_str": 7, "text": "seven is not a string id #x"},
    "numeric-text": {"id_str": "1", "text": 123},
    "list-full-text": {"id_str": "1", "truncated": True, "extended_tweet": {"full_text": ["x"]}},
    "retweet-numeric-text": {
        "id_str": "1", "text": "RT", "retweeted_status": {"id_str": "2", "text": 5}
    },
    "retweet-numeric-id": {
        "id_str": "1", "text": "RT", "retweeted_status": {"id_str": 2, "text": "x"}
    },
    "string-truncated": {
        "id_str": "1", "text": "short cut", "truncated": "false",
        "extended_tweet": {"full_text": "the long text"},
    },
    "numeric-truncated": {"id_str": "1", "text": "x", "truncated": 1},
    "retweet-string-truncated": {
        "id_str": "1", "text": "RT",
        "retweeted_status": {"id_str": "2", "text": "x", "truncated": "true"},
    },
}


@pytest.fixture(scope="module")
def stopwords():
    return default_stopwords()


@pytest.fixture(scope="module")
def fixture_corpus(stopwords):
    records = read_raw_jsonl(FIXTURES / "raw_tweets.jsonl")
    return filter_corpus(records, stopwords)


class TestParseRawRecord:
    def test_minimal_record(self):
        rec = parse_raw_record({"id_str": "1", "text": "hi", "lang": "en"})
        assert (rec.id, rec.text, rec.lang) == ("1", "hi", "en")
        assert rec.truncated is False
        assert rec.extended_text is None and rec.retweet_payload is None

    def test_missing_id_raises(self):
        with pytest.raises(MalformedRecordError, match="id_str"):
            parse_raw_record({"text": "hi", "lang": "en"})
        with pytest.raises(MalformedRecordError, match="id_str"):
            parse_raw_record({"id_str": "", "text": "hi"})

    def test_null_text_is_absent(self):
        rec = parse_raw_record(
            {"id_str": "1", "text": None, "extended_tweet": {"full_text": "only this"}}
        )
        assert normalize_raw(rec) == "only this"

    def test_truncated_must_be_a_bool(self):
        with pytest.raises(MalformedRecordError, match="truncated"):
            parse_raw_record({"id_str": "1", "text": "short cut", "truncated": "false",
                              "extended_tweet": {"full_text": "the long text"}})
        with pytest.raises(MalformedRecordError, match="truncated"):
            parse_raw_record({"id_str": "1", "text": "RT", "retweeted_status": {
                "id_str": "2", "text": "x", "truncated": 0}})
        assert parse_raw_record({"id_str": "1", "text": "x", "truncated": None}).truncated is False

    def test_unknown_fields_ignored(self):
        rec = parse_raw_record({"id_str": "1", "text": "hi", "favorite_count": 3})
        assert rec.id == "1"

    def test_extended_and_retweet_parsed(self):
        rec = parse_raw_record(
            {
                "id_str": "outer",
                "truncated": True,
                "extended_tweet": {"full_text": "long form"},
                "retweeted_status": {"id_str": "inner", "text": "source"},
            }
        )
        assert rec.extended_text == "long form"
        assert rec.retweet_payload.id == "inner"
        assert rec.retweet_payload.text == "source"


class TestNormalizeRaw:
    def test_plain_text(self):
        rec = parse_raw_record({"id_str": "1", "text": "hello"})
        assert normalize_raw(rec) == "hello"

    def test_truncated_prefers_extended(self):
        rec = parse_raw_record(
            {"id_str": "1", "text": "cut o...", "truncated": True,
             "extended_tweet": {"full_text": "cut off no more"}}
        )
        assert normalize_raw(rec) == "cut off no more"

    def test_untruncated_keeps_text(self):
        rec = parse_raw_record(
            {"id_str": "1", "text": "main", "truncated": False,
             "extended_tweet": {"full_text": "alt"}}
        )
        assert normalize_raw(rec) == "main"

    def test_retweet_payload_wins(self):
        rec = parse_raw_record(
            {"id_str": "1", "text": "RT @x: elided",
             "retweeted_status": {"id_str": "2", "text": "the original"}}
        )
        assert normalize_raw(rec) == "the original"

    def test_extended_fallback_without_text(self):
        rec = parse_raw_record(
            {"id_str": "1", "extended_tweet": {"full_text": "only this"}}
        )
        assert normalize_raw(rec) == "only this"

    def test_no_text_anywhere_raises(self):
        rec = parse_raw_record({"id_str": "1", "lang": "en"})
        with pytest.raises(MalformedRecordError, match="missing both"):
            normalize_raw(rec)


class TestCleanText:
    def test_reference_sentence(self, stopwords):
        # hand-traced: ascii-fold, lowercase, mention->user, URL removal,
        # tokenize, stopword filter ("check" is not a bundled stopword)
        out = clean_text("Check https://t.co/x @TechFan LOVES #AI today", stopwords)
        assert out == ["check", "user", "loves", "#ai", "today"]

    def test_mention_replacement(self, stopwords):
        assert clean_text("@xyz hello", stopwords) == ["user", "hello"]

    def test_lowercases(self, stopwords):
        assert clean_text("ABC", stopwords) == ["abc"]

    def test_strips_non_ascii(self, stopwords):
        assert clean_text("café oké", stopwords) == ["caf", "ok"]

    def test_removes_urls_scheme_and_tco(self, stopwords):
        out = clean_text("see http://ex.com/a?b=1 plus t.co/xyz done", stopwords)
        assert out == ["see", "plus", "done"]

    def test_non_ascii_whitespace_splits_tokens(self):
        # split at every str.split() separator before the ASCII fold drops it
        assert base_tokens("#Coffee\u00a0time") == ["#coffee", "time"]
        assert base_tokens("one\u2003two\u3000three\x85four") == ["one", "two", "three", "four"]

    def test_hashtag_label_matches_embedding_corpus_spelling(self):
        text = "one two three four five words #Coffee\u00a0time"
        _, tags = extract_hashtags(base_tokens(text))
        assert tags == {"coffee"}
        assert minimal_tokens(text)[-2:] == ["#coffee", "time"]

    def test_keeps_emoticons_and_strips_punct(self, stopwords):
        assert base_tokens("great :) (wow!)") == ["great", ":)", "wow"]

    def test_hashtag_prefix_survives_punct_strip(self, stopwords):
        assert base_tokens("end #tag!, mid.") == ["end", "#tag", "mid"]

    def test_stopwords_dropped_after_tokenize(self, stopwords):
        assert clean_text("the and of result", stopwords) == ["result"]

    def test_may_return_empty(self, stopwords):
        assert clean_text("the of and", stopwords) == []

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=300), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_ascii_lowercase(self, text):
        stop = {"the", "a"}
        once = clean_text(text, stop)
        again = clean_text(" ".join(once), stop)
        assert again == once
        for tok in once:
            assert tok == tok.lower()
            tok.encode("ascii")


class TestExtractHashtags:
    def test_splits_tags_from_body(self):
        body, tags = extract_hashtags(["go", "#ai", "now", "#ml"])
        assert body == ["go", "now"]
        assert tags == {"ai", "ml"}

    def test_bare_hash_stays_in_body(self):
        body, tags = extract_hashtags(["#", "x"])
        assert body == ["#", "x"] and tags == set()

    def test_duplicate_tags_collapse(self):
        _, tags = extract_hashtags(["#a", "#a"])
        assert tags == {"a"}


class TestMinimalTokens:
    def test_preserves_case_and_hashtags(self):
        out = minimal_tokens("Keep CASE #Tag here")
        assert out == ["Keep", "CASE", "#tag", "here"]

    def test_hashtags_are_spelled_as_labels(self):
        out = minimal_tokens("Love #Coffee! (#coffee) #COFFEE, but not # or a#b")
        assert out == ["Love", "#coffee", "#coffee", "#coffee", "but", "not", "#", "or", "a#b"]

    def test_replaces_mentions_and_urls(self):
        out = minimal_tokens("@Bob see https://t.co/q now")
        assert out == ["user", "see", "now"]


class TestFilterCorpus:
    def test_counts_on_fixture(self, fixture_corpus):
        assert fixture_corpus.n_input == 25
        assert len(fixture_corpus.tweets) == 15
        assert fixture_corpus.drop_counts == {
            "non_english": 2,
            "malformed": 2,
            "no_hashtags": 1,
            "too_short": 3,
            "duplicate": 2,
        }

    def test_drop_counters_sum_to_inputs(self, fixture_corpus):
        total = len(fixture_corpus.tweets) + sum(fixture_corpus.drop_counts.values())
        assert total == fixture_corpus.n_input

    def test_kept_ids_in_input_order(self, fixture_corpus):
        ids = [t.id for t in fixture_corpus.tweets]
        assert ids == ["t01", "t02", "t10", "t13", "t14", "t15", "t16", "t17",
                       "t18", "t19", "t20", "t21", "t22", "t23", "t24"]

    def test_label_counts(self, fixture_corpus):
        assert fixture_corpus.label_counts["ai"] == 4
        assert fixture_corpus.label_counts["pets"] == 3
        assert fixture_corpus.label_counts["deep"] == 1

    def test_min_length_measured_before_stopword_removal(self, fixture_corpus):
        # five raw body tokens, only four survive the stopword filter
        t10 = next(t for t in fixture_corpus.tweets if t.id == "t10")
        assert t10.tokens == ["cat", "sat", "mat", "quietly"]

    def test_duplicate_rule_uses_cleaned_body(self, stopwords):
        # same cleaned body under different hashtags is still a duplicate
        records = [
            {"id_str": "a", "text": "my quick brown fox jumps high #one", "lang": "en"},
            {"id_str": "b", "text": "a quick brown fox jumps high #two", "lang": "en"},
        ]
        corpus = filter_corpus(records, stopwords)
        assert [t.id for t in corpus.tweets] == ["a"]
        assert corpus.drop_counts["duplicate"] == 1

    def test_non_english_checked_before_malformed(self, stopwords):
        corpus = filter_corpus([{"text": "sin id ni idioma #x", "lang": "es"}], stopwords)
        assert corpus.drop_counts["non_english"] == 1
        assert corpus.drop_counts["malformed"] == 0

    @pytest.mark.parametrize("obj", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
    def test_wrong_field_types_are_malformed_drops(self, stopwords, obj):
        good = {"id_str": "g", "text": "five plain words stay here #ok", "lang": "en"}
        corpus = filter_corpus([{**obj, "lang": "en"}, good], stopwords)
        assert corpus.drop_counts["malformed"] == 1
        assert [t.id for t in corpus.tweets] == ["g"]
        assert corpus.texts == [good["text"]]

    def test_texts_of_english_well_formed_records(self, fixture_corpus):
        # kept tweets and those dropped as hashtag-free, short or duplicate
        assert len(fixture_corpus.texts) == 21
        assert fixture_corpus.texts[0] == "My quick brown fox jumps over lazy dogs #pets"

    def test_golden_clean_jsonl_byte_exact(self, fixture_corpus, tmp_path):
        out = tmp_path / "clean.jsonl"
        write_clean_jsonl(fixture_corpus.tweets, out)
        assert out.read_bytes() == (FIXTURES / "clean_golden.jsonl").read_bytes()

    def test_rerun_is_byte_identical(self, stopwords, tmp_path):
        records = read_raw_jsonl(FIXTURES / "raw_tweets.jsonl")
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            corpus = filter_corpus(records, stopwords)
            path = tmp_path / name
            write_clean_jsonl(corpus.tweets, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestSelectTopLabels:
    def _corpus(self, counts):
        return corpus_from_clean(
            [
                CleanTweet(id=f"{label}{i}", tokens=["x"], labels={label})
                for label, n in counts.items()
                for i in range(n)
            ]
        )

    def test_orders_by_count_desc_then_label(self):
        corpus = self._corpus({"b": 3, "a": 3, "c": 5})
        assert select_top_labels(corpus, n=3, min_tweets=1) == ["c", "a", "b"]

    def test_truncates_to_n(self):
        corpus = self._corpus({"a": 5, "b": 4, "c": 3})
        assert select_top_labels(corpus, n=2, min_tweets=1) == ["a", "b"]

    def test_min_tweets_filters_and_warns(self, caplog):
        corpus = self._corpus({"a": 5, "b": 1})
        with caplog.at_level("WARNING", logger="tagrec.ingest"):
            labels = select_top_labels(corpus, n=2, min_tweets=3)
        assert labels == ["a"]
        assert any("only 1 labels" in r.getMessage() for r in caplog.records)

    def test_bad_n(self):
        with pytest.raises(ValueError, match="n must be"):
            select_top_labels(self._corpus({"a": 1}), n=0, min_tweets=1)

    @given(
        st.dictionaries(
            st.sampled_from("abcdefgh"), st.integers(1, 9), min_size=1, max_size=8
        ),
        st.integers(1, 8),
        st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_sort(self, counts, n, min_tweets):
        corpus = self._corpus(counts)
        expected = [
            label
            for label, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            if c >= min_tweets
        ][:n]
        assert select_top_labels(corpus, n, min_tweets) == expected


class TestMaterializeDataset:
    def test_expands_multi_label_tweets(self, fixture_corpus):
        ds = materialize_dataset(fixture_corpus, ["pets", "ai"])
        assert ds.label_set == ["pets", "ai"]
        by_label = {}
        for tokens, label in ds.examples:
            by_label.setdefault(label, []).append(tokens)
        assert len(by_label["pets"]) == 3 and len(by_label["ai"]) == 4
        # t20 carries both labels and appears once under each
        t20 = ["double", "tagging", "works", "fine"]
        assert t20 in by_label["pets"] and t20 in by_label["ai"]

    def test_corpus_order_then_label_order(self, fixture_corpus):
        ds = materialize_dataset(fixture_corpus, ["pets", "ai"])
        labels = [label for _, label in ds.examples]
        # t01(pets), t02(ai), t10(pets), t20(pets then ai), t21(ai), t24(ai)
        assert labels == ["pets", "ai", "pets", "pets", "ai", "ai", "ai"]

    def test_tokens_are_copies(self, fixture_corpus):
        ds = materialize_dataset(fixture_corpus, ["pets"])
        ds.examples[0][0].append("mutated")
        assert "mutated" not in fixture_corpus.tweets[0].tokens

    def test_empty_labels_rejected(self, fixture_corpus):
        with pytest.raises(ValueError, match="non-empty"):
            materialize_dataset(fixture_corpus, [])

    def test_no_matching_examples(self, fixture_corpus):
        with pytest.raises(DataError, match="no examples"):
            materialize_dataset(fixture_corpus, ["absent_label"])


class TestStopwordFiles:
    def test_bundled_list_contents(self, stopwords):
        assert {"the", "a", "of", "and"} <= stopwords
        assert "check" not in stopwords
        assert all(w == w.lower() for w in stopwords)

    def test_load_stopwords_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\n\nthe\n  a  \n")
        assert load_stopwords(path) == {"the", "a"}

    def test_non_ascii_stopwords_name_file_and_line(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"the\ncaf\xe9\n")
        with pytest.raises(DataError, match=r"stop\.txt:2: not ASCII text"):
            load_stopwords(path)


class TestJsonlIO:
    def test_read_raw_skips_blank_lines(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"id_str": "1"}\n\n{"id_str": "2"}\n')
        assert [o["id_str"] for o in read_raw_jsonl(path)] == ["1", "2"]

    def test_read_raw_reports_line_of_bad_json(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"id_str": "1"}\n{broken\n')
        with pytest.raises(DataError, match=r":2: invalid JSON"):
            read_raw_jsonl(path)

    def test_read_raw_rejects_non_object(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DataError, match=r":1: expected a JSON object"):
            read_raw_jsonl(path)

    def test_clean_round_trip(self, tmp_path):
        tweets = [
            CleanTweet(id="a", tokens=["x", "y"], labels={"m", "k"}),
            CleanTweet(id="b", tokens=[], labels={"z"}),
        ]
        path = tmp_path / "clean.jsonl"
        write_clean_jsonl(tweets, path)
        back = read_clean_jsonl(path)
        assert [(t.id, t.tokens, t.labels) for t in back] == [
            ("a", ["x", "y"], {"k", "m"}),
            ("b", [], {"z"}),
        ]
        # labels are serialized sorted for reproducibility
        assert json.loads(path.read_text().splitlines()[0])["labels"] == ["k", "m"]

    def test_read_clean_reports_line_of_bad_record(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        path.write_text('{"id": "a", "tokens": [], "labels": []}\n{"id": "b"}\n')
        with pytest.raises(DataError, match=r":2: bad clean-tweet record"):
            read_clean_jsonl(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("id", 17),
            ("tokens", "hello world"),
            ("tokens", ["hello", 2]),
            ("labels", "ai"),
            ("labels", ["ai", 3]),
        ],
        ids=["numeric-id", "string-tokens", "numeric-token", "string-labels", "numeric-label"],
    )
    def test_read_clean_rejects_wrong_types(self, tmp_path, field, value):
        record = {"id": "b", "tokens": ["x"], "labels": ["ai"], field: value}
        path = tmp_path / "clean.jsonl"
        path.write_text('{"id": "a", "tokens": [], "labels": []}\n' + json.dumps(record) + "\n")
        with pytest.raises(DataError, match=r":2: bad clean-tweet record"):
            read_clean_jsonl(path)

    def test_corpus_from_clean_rebuilds_counts(self):
        tweets = [
            CleanTweet(id="a", tokens=["x"], labels={"p", "q"}),
            CleanTweet(id="b", tokens=["y"], labels={"p"}),
        ]
        corpus = corpus_from_clean(tweets)
        assert corpus.label_counts == {"p": 2, "q": 1}
        assert corpus.n_input == 2
