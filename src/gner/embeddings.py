"""Pre-trained word vector stores with backend-specific OOV behavior.

Two kinds of store exist: ``plain`` text vectors (word2vec / GloVe style,
one "word v1 .. vd" line each, optional "count dim" header) and ``fasttext``
stores that additionally carry hashed character-n-gram bucket vectors so
vectors can be inferred for words never seen by the embedding model.

Subword hashing is FNV-1a 32-bit over the n-gram's UTF-8 bytes with each
byte passed through a signed-char cast before widening, matching the
published fastText model format so converted models address the same
buckets.  Stores are immutable after load; lookups are pure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "EmbeddingError",
    "EmbeddingStore",
    "load_text_vectors",
    "load_fasttext_store",
    "write_text_vectors",
    "write_fasttext_store",
    "load_store",
    "extract_char_ngrams",
    "fnv1a_32",
    "ngram_bucket",
    "lookup_word",
    "vocab_contains",
    "convert_fasttext_bin",
]

log = logging.getLogger(__name__)

FASTTEXT_MAGIC = "FTXT1"


class EmbeddingError(Exception):
    pass


@dataclass
class EmbeddingStore:
    kind: str  # "plain" | "fasttext"
    dim: int
    word_vectors: dict[str, np.ndarray]
    ngram_buckets: np.ndarray | None = None
    min_n: int = 3
    max_n: int = 6
    bucket_count: int = 0
    duplicates_skipped: int = 0

    def __post_init__(self):
        if self.kind not in ("plain", "fasttext"):
            raise EmbeddingError(f"unknown store kind {self.kind!r}")
        if self.kind == "fasttext":
            if self.ngram_buckets is None or self.bucket_count <= 0:
                raise EmbeddingError("fasttext store needs ngram buckets")
            if self.min_n > self.max_n:
                raise EmbeddingError(f"min_n {self.min_n} > max_n {self.max_n}")


def _parse_floats(parts: list[str], line_no: int) -> np.ndarray:
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise EmbeddingError(f"line {line_no}: bad float value: {exc}") from exc


def _read_lines(path: Path) -> list[str]:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise EmbeddingError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path}: not UTF-8 text: {exc}") from exc


def load_text_vectors(path: str | Path) -> EmbeddingStore:
    """Load whitespace-separated text vectors into a plain store.

    Duplicate words keep their first occurrence (counted and logged);
    inconsistent dimensions raise an error naming the offending line.
    """
    path = Path(path)
    lines = _read_lines(path)
    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    dim = None
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.lstrip("+-").isdigit() for p in head):
            dim = int(head[1])
            start = 1

    for i, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(" ")
        word, values = parts[0], [p for p in parts[1:] if p]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise EmbeddingError(f"line {i}: expected {dim} values, got {len(values)}")
        if word in vectors:
            duplicates += 1
            continue
        vectors[word] = _parse_floats(values, i)

    if dim is None:
        raise EmbeddingError(f"{path}: no vectors found")
    if duplicates:
        log.warning("%s: skipped %d duplicate words (first occurrence kept)", path, duplicates)
    return EmbeddingStore(kind="plain", dim=dim, word_vectors=vectors, duplicates_skipped=duplicates)


def load_fasttext_store(path: str | Path) -> EmbeddingStore:
    """Load the documented fastText store dump:

    header ``FTXT1 dim min_n max_n bucket_count word_count``, then
    ``word_count`` word-vector lines, then ``bucket_count`` bucket rows.
    """
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise EmbeddingError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != FASTTEXT_MAGIC or not all(v.isascii() and v.isdigit() for v in head[1:]):
        raise EmbeddingError(
            f"{path}: expected '{FASTTEXT_MAGIC} dim min_n max_n bucket_count word_count' header "
            f"with non-negative integer fields, got {lines[0][:80]!r}"
        )
    dim, min_n, max_n, bucket_count, word_count = (int(v) for v in head[1:])

    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != word_count + bucket_count:
        raise EmbeddingError(
            f"{path}: expected {word_count} word lines + {bucket_count} bucket lines, got {len(body)}"
        )
    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    for i, line in enumerate(body[:word_count], start=2):
        parts = line.split(" ")
        word, values = parts[0], [p for p in parts[1:] if p]
        if len(values) != dim:
            raise EmbeddingError(f"line {i}: expected {dim} values, got {len(values)}")
        if word in vectors:
            duplicates += 1
            continue
        vectors[word] = _parse_floats(values, i)
    buckets = np.empty((bucket_count, dim))
    for j, line in enumerate(body[word_count:]):
        values = [p for p in line.split(" ") if p]
        if len(values) != dim:
            raise EmbeddingError(f"bucket row {j}: expected {dim} values, got {len(values)}")
        buckets[j] = _parse_floats(values, word_count + 2 + j)
    if duplicates:
        log.warning("%s: skipped %d duplicate words", path, duplicates)
    return EmbeddingStore(
        kind="fasttext",
        dim=dim,
        word_vectors=vectors,
        ngram_buckets=buckets,
        min_n=min_n,
        max_n=max_n,
        bucket_count=bucket_count,
        duplicates_skipped=duplicates,
    )


def _format_vector(vec: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in vec)


def write_text_vectors(store: EmbeddingStore, path: str | Path):
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(store.word_vectors)} {store.dim}\n")
        for word, vec in store.word_vectors.items():
            fh.write(f"{word} {_format_vector(vec)}\n")


def write_fasttext_store(store: EmbeddingStore, path: str | Path):
    if store.kind != "fasttext":
        raise EmbeddingError("not a fasttext store")
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(
            f"{FASTTEXT_MAGIC} {store.dim} {store.min_n} {store.max_n} "
            f"{store.bucket_count} {len(store.word_vectors)}\n"
        )
        for word, vec in store.word_vectors.items():
            fh.write(f"{word} {_format_vector(vec)}\n")
        assert store.ngram_buckets is not None
        for row in store.ngram_buckets:
            fh.write(f"{_format_vector(row)}\n")


def load_store(path: str | Path, kind: str) -> EmbeddingStore:
    """Load a store by declared kind ("plain" or "fasttext")."""
    if kind == "plain":
        return load_text_vectors(path)
    if kind == "fasttext":
        return load_fasttext_store(path)
    raise EmbeddingError(f"unknown embedding kind {kind!r}")


def extract_char_ngrams(word: str, min_n: int = 3, max_n: int = 6) -> list[str]:
    """All substrings of "<word>" with length in [min_n, max_n], left to
    right, shortest first; includes the boundary-marked word itself when it
    is short enough."""
    if not word:
        raise EmbeddingError("cannot extract n-grams from an empty word")
    marked = f"<{word}>"
    m = len(marked)
    return [marked[i : i + n] for n in range(min_n, max_n + 1) for i in range(m - n + 1)]


def fnv1a_32(data: bytes) -> int:
    """FNV-1a over bytes, with fastText's signed-char widening quirk: bytes
    >= 0x80 are sign-extended before the xor so hashes match released models."""
    h = 2166136261
    for b in data:
        if b >= 0x80:
            b |= 0xFFFFFF00
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h


def ngram_bucket(ngram: str, bucket_count: int) -> int:
    return fnv1a_32(ngram.encode("utf-8")) % bucket_count


def lookup_word(store: EmbeddingStore, word: str) -> tuple[np.ndarray, bool]:
    """Return (vector, was_oov).  In-vocabulary words return their stored
    vector; OOV words get the mean of their n-gram bucket rows on fasttext
    stores and the zero vector on plain stores."""
    vec = store.word_vectors.get(word)
    if vec is not None:
        return vec, False
    if store.kind == "fasttext" and word:
        assert store.ngram_buckets is not None
        rows = [ngram_bucket(g, store.bucket_count) for g in extract_char_ngrams(word, store.min_n, store.max_n)]
        if rows:
            return store.ngram_buckets[rows].mean(axis=0), True
    return np.zeros(store.dim), True


def vocab_contains(store: EmbeddingStore, word: str) -> bool:
    """Strict word-list membership; subword inferability does not count."""
    return word in store.word_vectors


# ---------------------------------------------------------------------------
# converter for the published binary model format


_BIN_MAGIC = 793712314
_SUPPORTED_BIN_VERSIONS = (11, 12)


def _read_struct(fh, fmt: str):
    import struct

    size = struct.calcsize(fmt)
    buf = fh.read(size)
    if len(buf) != size:
        raise EmbeddingError(f"truncated binary model (wanted {size} bytes)")
    return struct.unpack(fmt, buf)


def _read_cstring(fh) -> str:
    out = bytearray()
    while True:
        b = fh.read(1)
        if not b:
            raise EmbeddingError("truncated binary model inside vocabulary")
        if b == b"\x00":
            return out.decode("utf-8")
        out += b


def convert_fasttext_bin(path: str | Path, max_words: int | None = None) -> EmbeddingStore:
    """Convert a published (non-quantized) binary subword model to a store.

    Word vectors are composed the same way the model's text export composes
    them: the word's own input row averaged with its n-gram bucket rows.
    The raw bucket rows are kept so OOV inference addresses exactly the same
    vectors.  Dictionary labels and pruned models are not supported.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic, version = _read_struct(fh, "<ii")
        if magic != _BIN_MAGIC:
            raise EmbeddingError(f"{path}: not a binary subword model (magic {magic})")
        if version not in _SUPPORTED_BIN_VERSIONS:
            raise EmbeddingError(f"{path}: unsupported model version {version}")
        (dim, _ws, _epoch, _min_count, _neg, _word_ngrams, _loss, _model,
         bucket, min_n, max_n, _lr_update) = _read_struct(fh, "<12i")
        (_t,) = _read_struct(fh, "<d")

        size, nwords, nlabels = _read_struct(fh, "<iii")
        (_ntokens,) = _read_struct(fh, "<q")
        (pruneidx_size,) = _read_struct(fh, "<q")
        if nlabels:
            raise EmbeddingError(f"{path}: classifier models ({nlabels} labels) are not supported")
        words = []
        for _ in range(size):
            word = _read_cstring(fh)
            _read_struct(fh, "<qb")  # count, entry type
            words.append(word)
        if pruneidx_size > 0:
            raise EmbeddingError(f"{path}: pruned models are not supported")

        (quant,) = _read_struct(fh, "<b")
        if quant:
            raise EmbeddingError(f"{path}: quantized models are not supported")
        rows, cols = _read_struct(fh, "<qq")
        if cols != dim or rows != nwords + bucket:
            raise EmbeddingError(f"{path}: unexpected input matrix shape {rows}x{cols}")
        matrix = np.frombuffer(fh.read(rows * cols * 4), dtype="<f4")
        if matrix.size != rows * cols:
            raise EmbeddingError(f"{path}: truncated input matrix")
        matrix = matrix.astype(np.float64).reshape(rows, cols)

    buckets = matrix[nwords:]
    vectors: dict[str, np.ndarray] = {}
    keep = words[:nwords] if max_words is None else words[: min(nwords, max_words)]
    for wid, word in enumerate(keep):
        pieces = [matrix[wid]]
        if word != "</s>":
            pieces += [buckets[ngram_bucket(g, bucket)] for g in extract_char_ngrams(word, min_n, max_n)]
        vectors[word] = np.mean(pieces, axis=0)
    return EmbeddingStore(
        kind="fasttext",
        dim=dim,
        word_vectors=vectors,
        ngram_buckets=np.array(buckets),
        min_n=min_n,
        max_n=max_n,
        bucket_count=bucket,
    )
