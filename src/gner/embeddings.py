"""Pre-trained word vector stores with backend-specific OOV behavior.

Two kinds of store exist: ``plain`` text vectors (word2vec / GloVe style,
one "word v1 .. vd" line each, optional "count dim" header) and ``fasttext``
stores that additionally carry hashed character-n-gram bucket vectors so
vectors can be inferred for words never seen by the embedding model.  A
store file's first line says which kind it is.

Subword hashing is FNV-1a 32-bit over the n-gram's UTF-8 bytes with each
byte passed through a signed-char cast before widening, matching the
published fastText model format so converted models address the same
buckets.  Stores are immutable after load; lookups are pure.
"""

from __future__ import annotations

import itertools
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "EmbeddingError",
    "EmbeddingStore",
    "write_text_vectors",
    "write_fasttext_store",
    "load_store",
    "check_kind",
    "extract_char_ngrams",
    "fnv1a_32",
    "ngram_bucket",
    "lookup_word",
    "convert_fasttext_bin",
]

log = logging.getLogger(__name__)

FASTTEXT_MAGIC = "FTXT1"
STORE_KINDS = ("plain", "fasttext")


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
        if self.kind not in STORE_KINDS:
            raise EmbeddingError(f"unknown store kind {self.kind!r}")
        if self.kind == "fasttext":
            if self.ngram_buckets is None or self.bucket_count <= 0:
                raise EmbeddingError("fasttext store needs ngram buckets")
            if self.min_n > self.max_n:
                raise EmbeddingError(f"min_n {self.min_n} > max_n {self.max_n}")


# Non-blank body lines are parsed this many at a time.
BLOCK_LINES = 64


def _floats(values: list[str], line_no: int) -> np.ndarray:
    # numpy parses str items with float(): the same accepted forms and values.
    try:
        return np.array(values, dtype=np.float64)
    except ValueError as exc:
        raise EmbeddingError(f"line {line_no}: bad float value: {exc}") from None


def _block_values(texts, line_nos: list[int], dim: int, words=None, known=()):
    """Row ``i`` holds the ``dim`` values of ``texts[i]``, from line ``line_nos[i]``.

    numpy's C reader accepts a strict subset of what the per-line rules
    accept (no empty fields, ``1_0`` or non-ASCII digits), with bit-equal
    values.  A block it refuses is read again under the per-line rules:
    values split on single spaces, empty fields skipped, each parsed as
    ``float()`` parses it, and the first bad line named.  There a duplicate
    word's values (one in ``known`` or earlier in ``words``) are counted
    but not parsed, and its row is None.
    """
    if all(texts):  # an empty text would be skipped, and an all-empty block warned about
        try:
            rows = np.loadtxt(texts, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            rows = None
        if rows is not None and rows.shape == (len(texts), dim):
            return rows
    rows = []
    for i, (text, line_no) in enumerate(zip(texts, line_nos)):
        values = [p for p in text.split(" ") if p]
        if len(values) != dim:
            raise EmbeddingError(f"line {line_no}: expected {dim} values, got {len(values)}")
        duplicate = words is not None and (words[i] in known or words[i] in words[:i])
        rows.append(None if duplicate else _floats(values, line_no))
    return rows


def load_store(path: str | Path, kind: str | None = None) -> EmbeddingStore:
    """Load a text store; its first line names its kind.

    A first line starting ``FTXT1`` must be the fastText header ``FTXT1 dim
    min_n max_n bucket_count word_count``, followed by exactly
    ``word_count`` word lines and ``bucket_count`` bucket rows.  Anything
    else is plain vectors with an optional ``count dim`` header.  A declared
    ``kind`` is only checked against the file's.

    Blank lines are skipped, a duplicate word keeps its first vector
    (counted and logged), and every format error names its line.  The other
    lines go to numpy's reader ``BLOCK_LINES`` at a time; a block it refuses
    is read again under the per-line rules (values split on single spaces,
    parsed as ``float()`` parses them), so the reader changes speed, never
    what is accepted.
    """
    if kind not in (None, *STORE_KINDS):
        raise EmbeddingError(f"unknown embedding kind {kind!r}")
    path = Path(path)
    try:
        with path.open("rb") as fh:
            store = _read_store(fh, path, kind)
    except OSError as exc:
        raise EmbeddingError(f"cannot read {path}: {exc}") from exc
    if store.duplicates_skipped:
        log.warning("%s: skipped %d duplicate words (first occurrence kept)", path, store.duplicates_skipped)
    return store


def check_kind(path: str | Path, declared: str | None, kind: str):
    """A declared kind must be None or the store file's own ``kind``."""
    if declared not in (None, kind):
        raise EmbeddingError(
            f"{path}: declared kind {declared!r}, but the file is a {kind!r} store "
            f"(a fasttext store starts with an {FASTTEXT_MAGIC} header)"
        )


def _decode(raw: bytes, line_no: int, path: Path) -> str:
    try:
        return raw.decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path}: line {line_no}: not UTF-8 text: {exc}") from None


def _read_store(fh, path: Path, declared: str | None) -> EmbeddingStore:
    lines = enumerate(fh, start=1)
    first = next(lines, (1, b""))
    head = _decode(first[1], 1, path)
    fields = head.split()
    kind = "fasttext" if fields[:1] == [FASTTEXT_MAGIC] else "plain"
    check_kind(path, declared, kind)
    # A plain store has no word limit, no bucket rows and the default n-gram fields.
    word_count, bucket_count, ngram_fields = float("inf"), 0, {}
    if kind == "fasttext":
        if len(fields) != 6 or not all(v.isascii() and v.isdigit() for v in fields[1:]):
            raise EmbeddingError(
                f"{path}: line 1: expected '{FASTTEXT_MAGIC} dim min_n max_n bucket_count word_count' header "
                f"with non-negative integer fields, got {head[:80]!r}"
            )
        dim, min_n, max_n, bucket_count, word_count = (int(v) for v in fields[1:])
        # Each value takes at least one character and one separator.
        size = os.fstat(fh.fileno()).st_size
        if 2 * bucket_count * dim > size:
            raise EmbeddingError(
                f"{path}: line 1: header declares {bucket_count} buckets of {dim} values, "
                f"more than the file's {size} bytes can hold"
            )
        try:
            buckets = np.empty((bucket_count, dim))
        except MemoryError:
            raise EmbeddingError(f"{path}: header declares {bucket_count} buckets of {dim} values") from None
        ngram_fields = dict(ngram_buckets=buckets, min_n=min_n, max_n=max_n, bucket_count=bucket_count)
    elif len(fields) == 2 and all(p.isascii() and p.lstrip("+-").isdigit() for p in fields):
        dim = int(fields[1])
    else:
        dim = None  # taken from the first word line
        lines = itertools.chain([first], lines)
    total = word_count + bucket_count
    vectors: dict[str, np.ndarray] = {}

    block: list[tuple[int, str]] = []  # pending non-blank lines: all word lines or all bucket lines
    seen = 0  # body lines taken, the pending block included

    def parse_block():
        if not block:
            return
        start = seen - len(block)
        line_nos = [line_no for line_no, _ in block]
        if start >= word_count:
            row = start - word_count
            buckets[row : row + len(block)] = _block_values([line for _, line in block], line_nos, dim)
        else:
            words, _, texts = zip(*(line.partition(" ") for _, line in block))
            for word, vec in zip(words, _block_values(texts, line_nos, dim, words, vectors)):
                if word not in vectors:  # a duplicate keeps its first vector
                    vectors[word] = vec
        block.clear()

    line_no = 1
    for line_no, raw in lines:
        try:
            line = _decode(raw, line_no, path)
        except EmbeddingError:
            parse_block()  # an earlier line's error comes first
            raise
        if not line.strip():
            continue
        if seen == total:
            raise EmbeddingError(f"line {line_no}: more than the header's {word_count} word + {bucket_count} bucket lines")
        if dim is None:
            dim = len([p for p in line.split(" ")[1:] if p])
        block.append((line_no, line))
        seen += 1
        if len(block) == BLOCK_LINES or seen == word_count or seen == total:
            parse_block()
    parse_block()

    if kind == "fasttext" and seen != total:
        raise EmbeddingError(
            f"{path}: line {line_no}: file ends after {seen} of the header's "
            f"{word_count} word + {bucket_count} bucket lines"
        )
    if dim is None:
        raise EmbeddingError(f"{path}: no vectors found")
    duplicates = min(seen, word_count) - len(vectors)
    return EmbeddingStore(kind=kind, dim=dim, word_vectors=vectors, duplicates_skipped=duplicates, **ngram_fields)


def _format_vector(vec: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in vec)


def _write_store(path: str | Path, header: str, store: EmbeddingStore, rows=()):
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{header}\n")
        for word, vec in store.word_vectors.items():
            fh.write(f"{word} {_format_vector(vec)}\n")
        for row in rows:
            fh.write(f"{_format_vector(row)}\n")


def write_text_vectors(store: EmbeddingStore, path: str | Path):
    _write_store(path, f"{len(store.word_vectors)} {store.dim}", store)


def write_fasttext_store(store: EmbeddingStore, path: str | Path):
    if store.kind != "fasttext":
        raise EmbeddingError("not a fasttext store")
    header = f"{FASTTEXT_MAGIC} {store.dim} {store.min_n} {store.max_n} {store.bucket_count} {len(store.word_vectors)}"
    _write_store(path, header, store, store.ngram_buckets)


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
