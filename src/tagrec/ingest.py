"""Raw tweet normalization, text cleaning, hashtag extraction, and
dataset assembly.

All operations are pure functions of their inputs. The cleaning order
is fixed: strip non-ASCII, lowercase, replace @-mentions with "user",
delete URLs, tokenize, drop stopwords. The minimum-length rule (five
body tokens) is applied to the hashtag-stripped body *before* stopword
removal, so it does not depend on the stopword list in use.
"""

from __future__ import annotations

import json
import logging
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Sequence

from .errors import DataError, MalformedRecordError, not_text, read_jsonl

logger = logging.getLogger(__name__)

# scheme-prefixed links plus bare t.co short links, up to the next whitespace
_URL_RE = re.compile(r"(?:https?://|\bt\.co/)\S*")
# an @-mention is an @-prefixed word at a token boundary
_MENTION_RE = re.compile(r"(?<!\S)@\w+")
# ASCII emoticons pass through the tokenizer unchanged
_EMOTICON_RE = re.compile(
    r"^(?:[<>]?[:;=8][\-o\*']?[\)\]\(\[dDpP/\\|@\}\{3]+"
    r"|[\)\]\(\[dDpP/\\|@\}\{]+[\-o\*']?[:;=8][<>]?"
    r"|<3)$"
)
_PUNCT = string.punctuation
_PUNCT_NO_PREFIX = _PUNCT.replace("#", "").replace("@", "")

DROP_REASONS = ("non_english", "malformed", "no_hashtags", "too_short", "duplicate")


@dataclass
class RawTweetRecord:
    """One tweet as it arrives from the source JSON. Unknown fields in
    the source object are ignored, never rejected."""

    id: str
    text: str | None = None
    truncated: bool = False
    extended_text: str | None = None
    retweet_payload: "RawTweetRecord | None" = None
    lang: str = ""


@dataclass
class CleanTweet:
    id: str
    tokens: list[str]
    labels: set[str]


@dataclass
class Corpus:
    tweets: list[CleanTweet]
    label_counts: dict[str, int]
    drop_counts: dict[str, int] = field(default_factory=dict)
    n_input: int = 0


@dataclass
class Dataset:
    """Flat (tokens, label) examples over an ordered label set."""

    examples: list[tuple[list[str], str]]
    label_set: list[str]


def parse_raw_record(obj: dict) -> RawTweetRecord:
    """Build a RawTweetRecord from one parsed JSON object."""
    tweet_id = obj.get("id_str") or ""
    if not tweet_id:
        raise MalformedRecordError("record has no id_str")
    extended = obj.get("extended_tweet")
    extended_text = extended.get("full_text") if isinstance(extended, dict) else None
    retweeted = obj.get("retweeted_status")
    payload = parse_raw_record(retweeted) if isinstance(retweeted, dict) else None
    return RawTweetRecord(
        id=tweet_id,
        text=obj.get("text"),
        truncated=bool(obj.get("truncated", False)),
        extended_text=extended_text,
        retweet_payload=payload,
        lang=obj.get("lang", ""),
    )


def normalize_raw(record: RawTweetRecord) -> str:
    """Recover the full tweet text: descend into the retweeted payload
    first, then prefer the extended text of truncated tweets."""
    if record.retweet_payload is not None:
        return normalize_raw(record.retweet_payload)
    if record.truncated and record.extended_text is not None:
        return record.extended_text
    if record.text is not None:
        return record.text
    if record.extended_text is not None:
        return record.extended_text
    raise MalformedRecordError(f"record {record.id}: missing both text and extended_text")


def _tokenize(text: str) -> list[str]:
    tokens = []
    for raw in text.split():
        if _EMOTICON_RE.match(raw):
            tokens.append(raw)
            continue
        stripped = raw.lstrip(_PUNCT_NO_PREFIX)
        if stripped[:1] in ("#", "@"):
            token = stripped[0] + stripped[1:].rstrip(_PUNCT)
        else:
            token = stripped.strip(_PUNCT)
        if token.startswith("@") and len(token) >= 2:
            # mentions that only surface after punctuation stripping
            # (e.g. "(@name)") normalize the same way as free-standing
            # ones, keeping the cleaning pipeline idempotent
            token = "user"
        if token:
            tokens.append(token)
    return tokens


def base_tokens(text: str) -> list[str]:
    """Cleaning steps 1-5: ASCII-fold, lowercase, mentions to "user",
    URL removal, tokenization. No stopword filtering."""
    text = text.encode("ascii", "ignore").decode("ascii")
    text = text.lower()
    text = _MENTION_RE.sub("user", text)
    text = _URL_RE.sub("", text)
    return _tokenize(text)


def clean_text(text: str, stopwords: set[str]) -> list[str]:
    """Full cleaning pipeline; may return an empty list."""
    return [t for t in base_tokens(text) if t not in stopwords]


def extract_hashtags(tokens: Sequence[str]) -> tuple[list[str], set[str]]:
    """Split hashtag tokens (length >= 2, so a bare '#' passes through)
    out of the body, stripping their '#' prefix."""
    body, tags = [], set()
    for t in tokens:
        if t.startswith("#") and len(t) >= 2:
            tags.add(t[1:])
        else:
            body.append(t)
    return body, tags


def minimal_tokens(text: str) -> list[str]:
    """Minimal preprocessing for embedding-training corpora: URLs
    removed, mentions replaced with "user", whitespace tokenization,
    nothing else (case and hashtags survive)."""
    text = _MENTION_RE.sub("user", text)
    text = _URL_RE.sub("", text)
    return text.split()


def filter_corpus(
    records: Iterable[RawTweetRecord | dict], stopwords: set[str]
) -> Corpus:
    """Apply the drop rules in order (non-English, malformed, no
    hashtags, short body, duplicate body) and assemble the surviving
    tweets with per-label tweet counts. Never raises on bad records;
    every drop is counted by reason."""
    drops = {reason: 0 for reason in DROP_REASONS}
    tweets: list[CleanTweet] = []
    seen_bodies: set[tuple[str, ...]] = set()
    n_input = 0
    for item in records:
        n_input += 1
        lang = item.get("lang", "") if isinstance(item, dict) else item.lang
        if lang != "en":
            drops["non_english"] += 1
            continue
        try:
            record = parse_raw_record(item) if isinstance(item, dict) else item
            text = normalize_raw(record)
        except MalformedRecordError:
            drops["malformed"] += 1
            continue
        body_pre, hashtags = extract_hashtags(base_tokens(text))
        if not hashtags:
            drops["no_hashtags"] += 1
            continue
        if len(body_pre) < 5:
            drops["too_short"] += 1
            continue
        tokens = tuple(t for t in body_pre if t not in stopwords)
        if tokens in seen_bodies:
            drops["duplicate"] += 1
            continue
        seen_bodies.add(tokens)
        tweets.append(CleanTweet(id=record.id, tokens=list(tokens), labels=hashtags))
    label_counts = Counter()
    for tweet in tweets:
        label_counts.update(tweet.labels)
    return Corpus(
        tweets=tweets,
        label_counts=dict(label_counts),
        drop_counts=drops,
        n_input=n_input,
    )


def select_top_labels(corpus: Corpus, n: int, min_tweets: int) -> list[str]:
    """Labels by descending tweet count (ties lexicographic), keeping
    the first n that clear the minimum count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ranked = sorted(corpus.label_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    qualifying = [label for label, count in ranked if count >= min_tweets]
    if len(qualifying) < n:
        logger.warning(
            "only %d labels have >= %d tweets (requested %d)",
            len(qualifying), min_tweets, n,
        )
    return qualifying[:n]


def materialize_dataset(corpus: Corpus, labels: Sequence[str]) -> Dataset:
    """One (tokens, label) example per retained label of each tweet, in
    corpus order then label order. Tweets with several retained
    hashtags expand into several examples."""
    if not labels:
        raise ValueError("labels must be non-empty")
    label_list = list(labels)
    examples = []
    for tweet in corpus.tweets:
        for label in label_list:
            if label in tweet.labels:
                examples.append((list(tweet.tokens), label))
    if not examples:
        raise DataError("no examples after label filtering")
    return Dataset(examples=examples, label_set=label_list)


def load_stopwords(path) -> set[str]:
    """One lowercase token per line; '#'-prefixed comment lines and
    blank lines are ignored."""
    words = set()
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                word = line.strip()
                if word and not word.startswith("#"):
                    words.add(word)
    except UnicodeDecodeError as exc:
        raise not_text(path, exc) from exc
    return words


def default_stopwords() -> set[str]:
    """The stopword list bundled with the package."""
    with resources.as_file(resources.files("tagrec") / "data/stopwords.txt") as path:
        return load_stopwords(path)


def read_raw_jsonl(path) -> list[dict]:
    """Parse a JSONL file of raw tweet objects. A syntactically broken
    line aborts with its line number; semantically incomplete records
    are left for filter_corpus to count."""
    objects = []
    for lineno, obj in read_jsonl(path, "utf-8"):
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        objects.append(obj)
    return objects


def write_clean_jsonl(tweets: Sequence[CleanTweet], path) -> None:
    """Serialize cleaned tweets, labels sorted so output is
    byte-reproducible."""
    with open(path, "w", encoding="ascii") as fh:
        for tweet in tweets:
            fh.write(
                json.dumps(
                    {"id": tweet.id, "tokens": tweet.tokens, "labels": sorted(tweet.labels)}
                )
                + "\n"
            )


def is_str_list(value) -> bool:
    """Whether a parsed JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def read_clean_jsonl(path) -> list[CleanTweet]:
    """Cleaned tweets as write_clean_jsonl writes them. A record that is
    not an object with a string id and lists of string tokens and labels
    raises a DataError naming the file and line."""
    tweets = []
    for lineno, obj in read_jsonl(path, "ascii"):
        try:
            tweet_id, tokens, labels = obj["id"], obj["tokens"], obj["labels"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}:{lineno}: bad clean-tweet record") from exc
        if not (isinstance(tweet_id, str) and is_str_list(tokens) and is_str_list(labels)):
            raise DataError(f"{path}:{lineno}: bad clean-tweet record")
        tweets.append(CleanTweet(id=tweet_id, tokens=tokens, labels=set(labels)))
    return tweets


def corpus_from_clean(tweets: Sequence[CleanTweet]) -> Corpus:
    """Rebuild a Corpus (with label counts) from already-cleaned tweets."""
    label_counts = Counter()
    for tweet in tweets:
        label_counts.update(tweet.labels)
    return Corpus(
        tweets=list(tweets), label_counts=dict(label_counts), n_input=len(tweets)
    )
