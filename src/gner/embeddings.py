"""Pre-trained word vector stores with backend-specific OOV behavior.

Two kinds of store exist: ``plain`` word vectors and ``fasttext`` stores
that additionally carry hashed character-n-gram bucket vectors so vectors
can be inferred for words never seen by the embedding model.  The package
writes every store in one binary float32 format, which ``load_store`` maps
with ``np.memmap``: start-up parses no floats and reads no vector, and a
lookup faults in only the file pages around the rows it reads.  Two text
formats are read as import formats: plain vectors (word2vec / GloVe style,
one "word v1 .. vd" line each, optional "count dim" header) and ``FTXT1``
fastText stores.  A store file's first line says which format and kind it
is.

Subword hashing is FNV-1a 32-bit over the n-gram's UTF-8 bytes with each
byte passed through a signed-char cast before widening, matching the
published fastText model format so converted models address the same
buckets.  Stores are immutable after load; lookups are pure.
"""

from __future__ import annotations

import itertools
import logging
import os
import stat
import struct
from contextlib import contextmanager
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

# The binary store: this first line (0x93 is not UTF-8, so no text store
# starts with it), the header, the word list (each word UTF-8 and ended by a
# newline), zero padding to a multiple of BINARY_ALIGN bytes, then one
# little-endian float32 matrix: the word rows, then the bucket rows.  The
# header is kind (NUL-padded ASCII), dim, min_n, max_n, bucket_count,
# word_count and the word list's byte length, as little-endian uint64s.
BINARY_MAGIC = b"\x93GNERVEC1\n"
_BINARY_HEADER = struct.Struct("<8s6Q")
_BINARY_KINDS = {kind.encode("ascii").ljust(8, b"\0"): kind for kind in STORE_KINDS}
BINARY_ALIGN = 64
# Rows converted to float32 and written at a time.
WRITE_ROWS = 4096


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


def _float32(values) -> np.ndarray:
    """``values`` rounded to little-endian float32; a value past float32's
    range becomes an infinity, in a text store and its binary copy alike."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype="<f4")


def _floats(values: list[str], line_no: int) -> np.ndarray:
    # numpy parses str items with float(): the same accepted forms and values.
    # Each is parsed to float64 and then rounded to float32, as a binary copy
    # of the same float64 vectors holds it; decimal text parsed straight to
    # float32 can round differently.
    try:
        return _float32(np.array(values, dtype=np.float64))
    except ValueError as exc:
        raise EmbeddingError(f"line {line_no}: bad float value: {exc}") from None


def load_store(path: str | Path, kind: str | None = None) -> EmbeddingStore:
    """Load a store; its first line names its format and kind.

    A first line equal to ``BINARY_MAGIC`` starts a binary store, whose
    header names its kind.  Every header field and the file's exact size
    are checked before the float32 matrix is mapped read-only; the word
    vectors and bucket rows are views of that mapping.  A file that is
    mapped must be replaced, never rewritten in place: truncating it under
    a reader kills the reader with SIGBUS.

    Text stores are read in full, each value parsed as float64 and rounded
    once to float32.  A first line starting ``FTXT1`` must be the fastText
    header ``FTXT1 dim min_n max_n bucket_count word_count``, followed by
    exactly ``word_count`` word lines and ``bucket_count`` bucket rows.
    Anything else is plain vectors with an optional ``count dim`` header.
    A declared ``kind`` is only checked against the file's.

    Each line is read on its own: a blank line is skipped, the others are
    split on single spaces with empty fields dropped, and each value is
    parsed as ``float()`` parses it.  A duplicate word keeps its first
    vector (counted and logged), its own values unparsed, and every format
    error names its line.
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
            f"(a fasttext text store starts with an {FASTTEXT_MAGIC} header; a binary store's header names its kind)"
        )


def _decode(raw: bytes, line_no: int, path: Path) -> str:
    try:
        return raw.decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path}: line {line_no}: not UTF-8 text: {exc}") from None


def _read_store(fh, path: Path, declared: str | None) -> EmbeddingStore:
    lines = enumerate(fh, start=1)
    first = next(lines, (1, b""))
    if first[1] == BINARY_MAGIC:
        return _read_binary(fh, path, declared)
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
            buckets = np.empty((bucket_count, dim), dtype=np.float32)
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
    seen = 0  # body lines taken
    line_no = 1
    for line_no, raw in lines:
        line = _decode(raw, line_no, path)
        if not line.strip():
            continue
        if seen == total:
            raise EmbeddingError(f"line {line_no}: more than the header's {word_count} word + {bucket_count} bucket lines")
        parts = line.split(" ")
        word = parts.pop(0) if seen < word_count else None
        values = [p for p in parts if p]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise EmbeddingError(f"line {line_no}: expected {dim} values, got {len(values)}")
        if word is None:
            buckets[seen - word_count] = _floats(values, line_no)
        elif word not in vectors:  # a duplicate keeps its first vector
            vectors[word] = _floats(values, line_no)
        seen += 1

    if kind == "fasttext" and seen != total:
        raise EmbeddingError(
            f"{path}: line {line_no}: file ends after {seen} of the header's "
            f"{word_count} word + {bucket_count} bucket lines"
        )
    if dim is None:
        raise EmbeddingError(f"{path}: no vectors found")
    duplicates = min(seen, word_count) - len(vectors)
    return EmbeddingStore(kind=kind, dim=dim, word_vectors=vectors, duplicates_skipped=duplicates, **ngram_fields)


def _matrix_offset(words_bytes: int) -> int:
    end = len(BINARY_MAGIC) + _BINARY_HEADER.size + words_bytes
    return -(-end // BINARY_ALIGN) * BINARY_ALIGN


def _read_binary(fh, path: Path, declared: str | None) -> EmbeddingStore:
    """The binary store after its magic line; nothing is allocated past
    the header or mapped until the header matches the file's size."""
    size = os.fstat(fh.fileno()).st_size
    raw = fh.read(_BINARY_HEADER.size)
    if len(raw) != _BINARY_HEADER.size:
        raise EmbeddingError(f"{path}: binary store ends inside its {_BINARY_HEADER.size}-byte header")
    kind_field, dim, min_n, max_n, bucket_count, word_count, words_bytes = _BINARY_HEADER.unpack(raw)
    kind = _BINARY_KINDS.get(kind_field)
    if kind is None:
        raise EmbeddingError(f"{path}: binary store header names an unknown kind {kind_field!r}")
    check_kind(path, declared, kind)
    if (kind == "fasttext") != (bucket_count > 0):
        raise EmbeddingError(f"{path}: binary store header declares a {kind} store with {bucket_count} buckets")
    if min_n > max_n:
        raise EmbeddingError(f"{path}: binary store header declares min_n {min_n} > max_n {max_n}")
    if word_count > words_bytes:
        raise EmbeddingError(f"{path}: binary store header declares {word_count} words in {words_bytes} bytes")
    offset = _matrix_offset(words_bytes)
    rows = word_count + bucket_count
    expected = offset + 4 * rows * dim
    if size != expected:
        raise EmbeddingError(
            f"{path}: binary store header declares {rows} rows of {dim} float32 values after byte {offset}, "
            f"{expected} bytes in all, but the file has {size}"
        )
    block = fh.read(offset - len(BINARY_MAGIC) - _BINARY_HEADER.size)
    listed, padding = block[:words_bytes], block[words_bytes:]
    if padding.count(0) != len(padding):
        raise EmbeddingError(f"{path}: binary store has non-zero padding before byte {offset}")
    if listed and not listed.endswith(b"\n"):
        raise EmbeddingError(f"{path}: binary store word list does not end with a newline")
    try:
        words = listed[:-1].decode("utf-8").split("\n") if listed else []
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{path}: binary store word list is not UTF-8: {exc}") from None
    if len(words) != word_count:
        raise EmbeddingError(f"{path}: binary store word list holds {len(words)} words, header declares {word_count}")
    if rows * dim:
        matrix = np.memmap(fh, dtype="<f4", mode="r", offset=offset, shape=(rows, dim)).view(np.ndarray)
    else:
        matrix = np.zeros((rows, dim), dtype=np.float32)
    vectors = dict(zip(words, matrix))
    if len(vectors) != word_count:
        seen = set()
        for word in words:
            if word in seen:
                raise EmbeddingError(f"{path}: binary store lists the word {word!r} twice")
            seen.add(word)
    ngram_fields = {}
    if kind == "fasttext":
        ngram_fields = dict(ngram_buckets=matrix[word_count:], min_n=min_n, max_n=max_n, bucket_count=bucket_count)
    return EmbeddingStore(kind=kind, dim=dim, word_vectors=vectors, **ngram_fields)


def _float32_rows(rows, dim: int) -> bytes:
    try:
        block = _float32(rows)
    except ValueError:  # rows of different lengths
        block = None
    if block is None or block.shape != (len(rows), dim):
        raise EmbeddingError(f"store rows do not all hold the store's {dim} values")
    return block.tobytes()


def _write_binary(store: EmbeddingStore, path: str | Path):
    """Write ``store`` as a binary store through :func:`atomic_write`: a
    new file is moved over ``path``, so a reader that has the old file
    mapped keeps reading the old file."""
    words = list(store.word_vectors)
    for word in words:
        if "\n" in word:
            raise EmbeddingError(f"the word {word!r} holds a newline, which a store cannot hold")
    try:
        listed = "".join(f"{word}\n" for word in words).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EmbeddingError(f"a word cannot be written as UTF-8: {exc}") from None
    buckets = store.ngram_buckets if store.kind == "fasttext" else ()
    if len(buckets) != store.bucket_count:
        raise EmbeddingError(f"store has {len(buckets)} bucket rows, but bucket_count {store.bucket_count}")
    try:
        header = _BINARY_HEADER.pack(store.kind.encode("ascii"), store.dim, store.min_n, store.max_n,
                                     len(buckets), len(words), len(listed))
    except struct.error as exc:
        raise EmbeddingError(f"store fields cannot be written: {exc}") from None
    with atomic_write(path) as fh:
        fh.write(BINARY_MAGIC + header + listed)
        fh.write(bytes(_matrix_offset(len(listed)) - fh.tell()))
        for start in range(0, len(words), WRITE_ROWS):
            fh.write(_float32_rows([store.word_vectors[w] for w in words[start : start + WRITE_ROWS]], store.dim))
        for start in range(0, len(buckets), WRITE_ROWS):
            fh.write(_float32_rows(buckets[start : start + WRITE_ROWS], store.dim))


@contextmanager
def atomic_write(path: str | Path):
    """A temporary binary file beside ``path``, fsynced and moved over it
    when the block ends, removed if it raises: a write that fails midway
    leaves the old file whole.  A symlinked ``path`` is written through to
    the file it names, and a file already there keeps its permission bits."""
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        mode = stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        mode = None
    try:
        with tmp.open("wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_vectors(store: EmbeddingStore, path: str | Path):
    """Write ``store``'s word vectors as a plain binary store (no buckets)."""
    _write_binary(EmbeddingStore(kind="plain", dim=store.dim, word_vectors=store.word_vectors), path)


def write_fasttext_store(store: EmbeddingStore, path: str | Path):
    """Write a fasttext ``store``, word vectors and bucket rows, as a binary store."""
    if store.kind != "fasttext":
        raise EmbeddingError("not a fasttext store")
    _write_binary(store, path)


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
    vector; OOV words get the mean of their n-gram bucket rows, summed in
    float64 (bit-equal to ``mean(axis=0, dtype=np.float64)``, without its
    buffered cast), on fasttext stores and the zero vector on plain stores."""
    vec = store.word_vectors.get(word)
    if vec is not None:
        return vec, False
    if store.kind == "fasttext" and word:
        assert store.ngram_buckets is not None
        rows = [ngram_bucket(g, store.bucket_count) for g in extract_char_ngrams(word, store.min_n, store.max_n)]
        if rows:
            return store.ngram_buckets[rows].sum(axis=0, dtype=np.float64) / len(rows), True
    return np.zeros(store.dim), True


# ---------------------------------------------------------------------------
# converter for the published binary model format


BIN_MAGIC = 793712314
_SUPPORTED_BIN_VERSIONS = (11, 12)


def _read_struct(fh, fmt: str):
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
    them: the word's own input row averaged (in float64) with its n-gram
    bucket rows, then rounded to float32.  The model's float32 bucket rows
    are kept as they are, so OOV inference addresses exactly the same
    vectors.  Dictionary labels and pruned models are not supported.  The
    input matrix is mapped with ``np.memmap`` once the file is known to
    hold it, so only the rows the conversion reads take memory.
    ``max_words`` keeps the first that many words.
    """
    path = Path(path)
    if max_words is not None and max_words < 0:
        raise EmbeddingError(f"max_words must be >= 0, got {max_words}")
    with path.open("rb") as fh:
        magic, version = _read_struct(fh, "<ii")
        if magic != BIN_MAGIC:
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
        if cols != dim or rows != nwords + bucket or min(rows, cols) < 0:
            raise EmbeddingError(f"{path}: unexpected input matrix shape {rows}x{cols}")
        offset = fh.tell()
        if os.fstat(fh.fileno()).st_size - offset < rows * cols * 4:
            raise EmbeddingError(f"{path}: truncated input matrix")
        if rows * cols:
            matrix = np.memmap(fh, dtype="<f4", mode="r", offset=offset, shape=(rows, cols)).view(np.ndarray)
        else:
            matrix = np.zeros((rows, cols), dtype=np.float32)

    buckets = matrix[nwords:]
    vectors: dict[str, np.ndarray] = {}
    keep = words[:nwords] if max_words is None else words[: min(nwords, max_words)]
    # Each distinct n-gram's matrix row, hashed once: words share most of theirs.
    rows_of: dict[str, int] = {}
    for wid, word in enumerate(keep):
        rows = [wid]
        if word != "</s>":
            for g in extract_char_ngrams(word, min_n, max_n):
                row = rows_of.get(g)
                if row is None:
                    row = rows_of[g] = nwords + ngram_bucket(g, bucket)
                rows.append(row)
        vectors[word] = np.mean(matrix[rows].astype(np.float64), axis=0).astype(np.float32)
    return EmbeddingStore(
        kind="fasttext",
        dim=dim,
        word_vectors=vectors,
        ngram_buckets=buckets,
        min_n=min_n,
        max_n=max_n,
        bucket_count=bucket,
    )
