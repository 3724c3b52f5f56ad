"""Seeded inputs for the benchmark's workloads.

Every generator is a pure function of its seed and records, next to
the inputs, what a correct program must make of them: the kept and
dropped counts of a raw corpus, its label counts, the tokens of its
embedding corpus, and the vectors behind an embedding file. The checks
in ``checks.py`` compare the program's outputs with these records, so
nothing here calls the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# All of these are on the stopword list bundled with tagrec; the raw
# corpus sprinkles them into bodies so that duplicate detection has to
# compare bodies after stopword removal.
STOPWORDS = ("the", "a", "and", "to", "of", "in", "is", "on", "for", "with")
COMMON_WORDS = ("good", "day", "today", "love", "new", "time", "great", "best", "week", "life")
HASHTAGS = (
    "art", "books", "coffee", "cycling", "design", "fashion", "fitness", "food",
    "gaming", "garden", "hiking", "jazz", "movies", "music", "photo", "science",
    "soccer", "tech", "travel", "yoga",
)
MINOR_HASHTAGS = HASHTAGS[-3:]  # planted below --min-tweets
DROP_REASONS = ("non_english", "malformed", "no_hashtags", "too_short", "duplicate")
VALUE_DIVISOR = 1000.0  # serve's embedding values are integers over this


@dataclass
class RawCorpus:
    """A raw tweet JSONL corpus and what ingest must make of it."""

    records: list[dict]
    kept: int
    drops: dict[str, int]
    label_counts: dict[str, int]
    # the minimally tokenized text of every English, well-formed record
    # in file order: the lines of the embedding corpus
    emb_sentences: list[list[str]] = field(default_factory=list)

    def catalog(self, top_n: int, min_tweets: int) -> list[str]:
        ranked = sorted(self.label_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [label for label, count in ranked if count >= min_tweets][:top_n]

    def n_examples(self, labels) -> int:
        """Examples a dataset over `labels` holds: one per retained
        label of each kept tweet."""
        return sum(self.label_counts[label] for label in labels)

    def emb_tokens(self) -> set[str]:
        return {t for sentence in self.emb_sentences for t in sentence}


def skipgram_pair_count(n_tokens: int, window: int) -> int:
    """(center, context) pairs with |i - j| <= window in a sentence."""
    return sum(min(n_tokens - 1, i + window) - max(0, i - window) for i in range(n_tokens))


def make_raw_corpus(
    seed: int,
    n_kept: int = 1600,
    n_per_drop: int = 80,
    minor_count: int = 12,
) -> RawCorpus:
    """Raw tweets over the lowercase HASHTAGS with planted drops of every
    reason. Kept tweets carry one or two hashtags, 5-9 content words and
    some decoration (stopwords, a mention, a URL, retweet or truncation
    wrappers) whose effect on cleaning is known. The MINOR_HASHTAGS get
    `minor_count` tweets each; every other hashtag gets far more."""
    rng = np.random.default_rng([seed, 101])
    pools = {tag: [f"{tag}{j}" for j in range(12)] for tag in HASHTAGS}
    major = [t for t in HASHTAGS if t not in MINOR_HASHTAGS]
    next_id = iter(range(10**9, 2 * 10**9))

    def content(tag, lo, hi):
        k = int(rng.integers(lo, hi + 1))
        words = []
        for _ in range(k):
            if rng.random() < 0.7:
                pool = pools[tag]
            else:
                pool = COMMON_WORDS
            words.append(pool[int(rng.integers(len(pool)))])
        return words

    def decorate(words, tags):
        """Interleave stopwords, a mention, a URL and the hashtags with
        the content words. Returns (text, minimal tokens, clean body)."""
        parts = list(words)
        for _ in range(int(rng.integers(0, 3))):
            parts.insert(int(rng.integers(0, len(parts) + 1)), STOPWORDS[int(rng.integers(len(STOPWORDS)))])
        if rng.random() < 0.2:
            parts.insert(0, f"@fan_{int(rng.integers(100))}")
        for tag in tags:
            parts.insert(int(rng.integers(0, len(parts) + 1)), "#" + tag)
        if rng.random() < 0.2:
            parts.append(f"https://t.co/x{int(rng.integers(10**6))}")
        minimal = ["user" if p.startswith("@") else p for p in parts if not p.startswith("https://")]
        body = tuple(t for t in minimal if not t.startswith("#") and t not in STOPWORDS)
        return " ".join(parts), minimal, body

    def wrap(text):
        """An English record whose effective text is `text`, sometimes
        behind a retweet or truncation wrapper."""
        u = rng.random()
        if u < 0.1:
            inner = {"id_str": str(next(next_id)), "text": text, "lang": "en"}
            return {"id_str": str(next(next_id)), "text": "RT: " + text[:20], "lang": "en",
                    "retweeted_status": inner}
        if u < 0.2:
            return {"id_str": str(next(next_id)), "text": text[:30] + "…", "truncated": True,
                    "extended_tweet": {"full_text": text}, "lang": "en"}
        return {"id_str": str(next(next_id)), "text": text, "lang": "en"}

    # primary hashtags: minor ones get exactly minor_count tweets
    primaries = [t for t in MINOR_HASHTAGS for _ in range(minor_count)]
    primaries += [major[int(i)] for i in rng.integers(0, len(major), n_kept - len(primaries))]
    primaries = [primaries[int(i)] for i in rng.permutation(len(primaries))]

    entries = []  # (kind, record, minimal tokens or None)
    label_counts = {t: 0 for t in HASHTAGS}
    seen = set()
    for tag in primaries:
        tags = [tag]
        if rng.random() < 0.15:
            other = major[int(rng.integers(len(major)))]
            if other != tag:
                tags.append(other)
        while True:
            text, minimal, body = decorate(content(tag, 5, 9), tags)
            if body not in seen:
                break
        seen.add(body)
        for t in tags:
            label_counts[t] += 1
        entries.append(("kept", wrap(text), minimal))

    for _ in range(n_per_drop):
        tag = HASHTAGS[int(rng.integers(len(HASHTAGS)))]
        text, _, _ = decorate(content(tag, 5, 9), [tag])
        entries.append(("non_english", {"id_str": str(next(next_id)), "text": text,
                                        "lang": ("es", "fr", "de", "pt")[int(rng.integers(4))]}, None))
    for i in range(n_per_drop):
        if i % 2:
            record = {"id_str": str(next(next_id)), "lang": "en", "truncated": False}
        else:
            record = {"lang": "en", "user": {"screen_name": "nobody"}}
        entries.append(("malformed", record, None))
    for _ in range(n_per_drop):
        tag = HASHTAGS[int(rng.integers(len(HASHTAGS)))]
        text, minimal, _ = decorate(content(tag, 5, 9), [])
        entries.append(("no_hashtags", wrap(text), minimal))
    for _ in range(n_per_drop):
        tag = HASHTAGS[int(rng.integers(len(HASHTAGS)))]
        words = content(tag, 1, 4)
        parts = list(words) + ["#" + tag]
        text = " ".join(parts[int(i)] for i in rng.permutation(len(parts)))
        entries.append(("too_short", wrap(text), text.split()))

    order = [entries[int(i)] for i in rng.permutation(len(entries))]
    # each duplicate repeats the body of a kept tweet placed before it,
    # with its own decoration and hashtag
    for _ in range(n_per_drop):
        kept_positions = [i for i, e in enumerate(order) if e[0] == "kept"]
        pos = kept_positions[int(rng.integers(len(kept_positions)))]
        original = order[pos][2]
        body_words = [t for t in original if not t.startswith("#") and t not in STOPWORDS]
        text, minimal, body = decorate(body_words, [HASHTAGS[int(rng.integers(len(HASHTAGS)))]])
        # a mention in the decoration adds a "user" token: redo without it
        while body != tuple(body_words):
            text, minimal, body = decorate(body_words, [HASHTAGS[int(rng.integers(len(HASHTAGS)))]])
        insert_at = int(rng.integers(pos + 1, len(order) + 1))
        order.insert(insert_at, ("duplicate", wrap(text), minimal))

    drops = {reason: sum(1 for e in order if e[0] == reason) for reason in DROP_REASONS}
    return RawCorpus(
        records=[e[1] for e in order],
        kept=sum(1 for e in order if e[0] == "kept"),
        drops=drops,
        label_counts=label_counts,
        emb_sentences=[e[2] for e in order if e[2]],
    )


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in records:
            fh.write(json.dumps(obj) + "\n")


@dataclass
class ServeWorld:
    """A large embedding file with many candidate hashtags, a small
    labelled corpus to fit bundles on, and texts to rank."""

    tokens: list[str]
    ints: np.ndarray  # int16; the file holds ints / VALUE_DIVISOR, one row per token
    candidates: list[str]  # hashtag labels, without '#'
    train_labels: list[str]
    train_tweets: list[tuple[list[str], str]]
    texts: list[str]
    tied_pairs: list[tuple[str, str]]


def make_serve_world(
    seed: int,
    n_rows: int = 50_000,
    dim: int = 150,
    n_candidates: int = 400,
    n_tied_pairs: int = 8,
    n_train_labels: int = 12,
    tweets_per_label: int = 25,
    n_texts: int = 300,
) -> ServeWorld:
    """Vectors are multiples of 1/1000, so their shortest decimal form
    is short and parses back to the same float. Candidate hashtags get
    random vectors, with `n_tied_pairs` pairs made identical; each
    training label owns 40 topic words placed near its vector."""
    rng = np.random.default_rng([seed, 202])
    ints = rng.integers(-500, 501, size=(n_rows, dim), dtype=np.int16)
    candidates = [f"c{i:03d}" for i in range(n_candidates)]
    perm = [int(i) for i in rng.permutation(n_candidates)]
    train_labels = sorted(candidates[i] for i in perm[:n_train_labels])
    tie_pool = perm[n_train_labels:]
    tied_pairs = []
    for p in range(n_tied_pairs):
        a, b = sorted((tie_pool[2 * p], tie_pool[2 * p + 1]))
        ints[b] = ints[a]
        tied_pairs.append((candidates[a], candidates[b]))
    n_words = n_rows - n_candidates
    words = [f"w{i:05d}" for i in range(n_words)]
    topic_words = {}
    for li, label in enumerate(train_labels):
        rows = list(range(li * 40, (li + 1) * 40))
        topic_words[label] = [words[r] for r in rows]
        centre = ints[candidates.index(label)]
        noise = rng.integers(-100, 101, size=(len(rows), dim))
        ints[n_candidates + np.array(rows)] = np.clip(centre + noise, -999, 999)
    tokens = ["#" + c for c in candidates] + words

    train_tweets = []
    for label in train_labels:
        pool = topic_words[label]
        for _ in range(tweets_per_label):
            k = int(rng.integers(6, 11))
            train_tweets.append(([pool[int(i)] for i in rng.integers(0, len(pool), k)], label))
    texts = []
    topic_pool = [w for label in train_labels for w in topic_words[label]]
    for t in range(n_texts):
        k = int(rng.integers(4, 13))
        picked = []
        for _ in range(k):
            if rng.random() < 0.5:
                picked.append(topic_pool[int(rng.integers(len(topic_pool)))])
            else:
                picked.append(words[int(rng.integers(n_words))])
        if t % 5 == 0:
            picked.insert(int(rng.integers(0, k + 1)), f"unknown{t}")
        texts.append(" ".join(picked))
    return ServeWorld(
        tokens=tokens,
        ints=ints,
        candidates=candidates,
        train_labels=train_labels,
        train_tweets=train_tweets,
        texts=texts,
        tied_pairs=tied_pairs,
    )


def write_embedding_file(world: ServeWorld, path) -> None:
    """word2vec text format; each value in its shortest round-trip form.
    Rows are converted one at a time, so writing holds no copy of the
    matrix."""
    table = {k: repr(k / VALUE_DIVISOR) for k in range(-999, 1000)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(world.tokens)} {world.ints.shape[1]}\n")
        for token, row in zip(world.tokens, world.ints):
            fh.write(token + " " + " ".join([table[k] for k in row.tolist()]) + "\n")
