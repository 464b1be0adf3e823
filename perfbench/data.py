"""Seeded, GermEval-shaped inputs built from the package's synthetic corpus.

``gner.datagen.make_corpus`` writes short template sentences (about six
tokens).  GermEval sentences average about 19 tokens with a tail past 50, so
consecutive generated sentences are joined up to seeded target lengths.
Stores are built from the train split only: dev-split entity stems are
disjoint from train stems, so their forms are out of vocabulary and the
fastText store must infer them from character n-grams.
"""

from __future__ import annotations

import statistics
from statistics import NormalDist

import numpy as np

from gner.corpus import Sentence
from gner.datagen import make_corpus
from gner.embeddings import EmbeddingStore, extract_char_ngrams, ngram_bucket

WORD_DIM = 300
BUCKETS = 10_000
MAX_TOKENS = 80
# Log-normal target lengths: median 13.5, mean about 16; joining whole
# sentences overshoots each target by about three tokens.
TARGET_MEDIAN = 13.5
TARGET_SIGMA = 0.55


def stratified(n: int, inverse_cdf, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws at the distribution's evenly spaced quantiles, in seeded
    order: every seed gets the same distribution, so runs on different
    seeds differ in content and order, not in shape."""
    values = np.array([inverse_cdf((i + 0.5) / n) for i in range(n)])
    return values[rng.permutation(n)]


def _join(parts: list[Sentence], source_id: str) -> Sentence:
    tokens = [t for s in parts for t in s.tokens][:MAX_TOKENS]
    outer = [lab for s in parts for lab in s.outer_labels][:MAX_TOKENS]
    inner = [lab for s in parts for lab in s.labels("inner")][:MAX_TOKENS]
    # A clip at MAX_TOKENS can leave a dangling I- chunk; BIO scoring
    # treats it as a chunk, so the label sequence stays well formed.
    return Sentence(tokens, outer, inner, source_id=source_id)


def germeval_sentences(n: int, seed: int, split: str) -> list[Sentence]:
    """``n`` sentences of GermEval-like length from one seeded split."""
    rng = np.random.default_rng([seed, 1 if split == "train" else 2])
    normal = NormalDist()
    z = stratified(n, normal.inv_cdf, rng)
    targets = np.clip(np.rint(TARGET_MEDIAN * np.exp(TARGET_SIGMA * z)), 1, MAX_TOKENS).astype(int)
    # Base sentences average ~6.5 tokens; generate enough for every target.
    base = make_corpus(int(targets.sum() // 4) + 16, seed=seed, split=split)
    out, pos = [], 0
    for i, target in enumerate(targets):
        parts, length = [], 0
        while length < target:
            parts.append(base[pos])
            length += len(base[pos])
            pos += 1
        out.append(_join(parts, f"{split}:{seed}:{i}"))
    return out


def short_sentences(n: int, seed: int) -> list[Sentence]:
    """Unjoined train-split sentences for the brief training of served models."""
    return make_corpus(n, seed=seed, split="train")


def train_vocabulary(seed: int) -> list[str]:
    """Every form the train split can produce for this seed (the store's words)."""
    words = {t.text for s in make_corpus(4000, seed=seed, split="train") for t in s.tokens}
    return sorted(words)


def fasttext_store(words: list[str], seed: int) -> EmbeddingStore:
    """fastText-kind store whose word vectors are composed like the published
    models': the mean of the word's own row and its n-gram bucket rows, so an
    OOV form's inferred vector shares structure with known forms.  Values are
    rounded to four decimals to keep the text store small."""
    rng = np.random.default_rng([seed, 3])
    buckets = np.round(rng.normal(scale=0.3, size=(BUCKETS, WORD_DIM)), 4)
    vectors = {}
    for w in words:
        rows = [ngram_bucket(g, BUCKETS) for g in extract_char_ngrams(w)]
        own = rng.normal(scale=0.3, size=WORD_DIM)
        vectors[w] = np.round((own + buckets[rows].sum(axis=0)) / (1 + len(rows)), 4)
    return EmbeddingStore(kind="fasttext", dim=WORD_DIM, word_vectors=vectors,
                          ngram_buckets=buckets, bucket_count=BUCKETS)


def plain_store(words: list[str], seed: int) -> EmbeddingStore:
    """Plain store over the same words; OOV forms get zero vectors."""
    rng = np.random.default_rng([seed, 4])
    vectors = {w: np.round(rng.normal(scale=0.3, size=WORD_DIM), 4) for w in words}
    return EmbeddingStore(kind="plain", dim=WORD_DIM, word_vectors=vectors)


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def shape(sentences: list[Sentence], store_words, requests: list[list] | None = None) -> dict:
    """Measured workload shape, recorded with every result so drift shows."""
    lengths = [len(s) for s in sentences]
    chars = [len(t.text) for s in sentences for t in s.tokens]
    tokens = [t.text for s in sentences for t in s.tokens]
    out = {
        "sentences": len(sentences),
        "sentence_len_mean": statistics.fmean(lengths),
        "sentence_len_p50": quantile(lengths, 0.5),
        "sentence_len_p99": quantile(lengths, 0.99),
        "token_chars_mean": statistics.fmean(chars),
        "token_chars_max": max(chars),
        "oov_token_share": sum(t not in store_words for t in tokens) / len(tokens),
    }
    if requests is not None:
        out["sentences_per_request_mean"] = statistics.fmean(len(r) for r in requests)
    return out
