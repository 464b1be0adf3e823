"""Corpus handling: the BIO tag grammar, TSV/column parsers, tagging-scheme
conversion and the combined-corpus label mapping, casing features,
character index rows and mini-batch assembly.

:func:`split_tag` is the one reader of a tag's parts: the column parser,
the IOB repair, the combined mapping and the chunk scorer in
:mod:`gner.evaluation` all take a label apart through it.

Two file formats are read and written.  The nested-annotation TSV format has
four tab-separated columns (token number, token, outer label, inner label),
``#`` comment lines and blank-line sentence breaks.  The column format is
whitespace-separated with the token first and the NE tag last; ``-DOCSTART-``
sentences are dropped.  Both parsers run one sentence loop and differ only
in their per-line rule, and :func:`read_corpus` reads either format into
BIO labels.  Parsing and batching are pure functions.

Character rows are built for many token keys at once: the keys' texts
become one array of code points, which one ``searchsorted`` maps through
the vocabulary, and the boundary symbols and the padding are written by
index arithmetic, so no Python loop runs per character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embeddings import atomic_write

__all__ = [
    "CorpusError",
    "Token",
    "Sentence",
    "LabelSchema",
    "CharVocab",
    "GERMEVAL_CLASSES",
    "CONLL_CLASSES",
    "COMBINED_CLASSES",
    "germeval_schema",
    "conll_schema",
    "combined_schema",
    "parse_germeval",
    "parse_conll03",
    "read_corpus",
    "write_germeval",
    "split_tag",
    "iob_to_bio",
    "map_combined",
    "casing_features",
    "CASING_FEATURE_NAMES",
    "build_char_vocab",
    "build_char_rows",
    "Batch",
    "batch_from_sentences",
    "make_batches",
]


class CorpusError(Exception):
    pass


@dataclass(frozen=True)
class Token:
    text: str


@dataclass
class Sentence:
    tokens: list[Token]
    outer_labels: list[str]
    inner_labels: list[str] | None = None
    source_id: str = ""

    def __post_init__(self):
        n = len(self.tokens)
        if len(self.outer_labels) != n or (self.inner_labels is not None and len(self.inner_labels) != n):
            raise CorpusError(f"{self.source_id}: label counts do not match {n} tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def labels(self, level: str = "outer") -> list[str]:
        if level == "outer":
            return self.outer_labels
        if level == "inner":
            if self.inner_labels is None:
                raise CorpusError(f"{self.source_id}: no inner annotation level")
            return self.inner_labels
        raise CorpusError(f"unknown annotation level {level!r}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sentence)
            and self.tokens == other.tokens
            and self.outer_labels == other.outer_labels
            and self.inner_labels == other.inner_labels
        )


GERMEVAL_CLASSES = (
    "LOC", "LOCderiv", "LOCpart",
    "ORG", "ORGderiv", "ORGpart",
    "OTH", "OTHderiv", "OTHpart",
    "PER", "PERderiv", "PERpart",
)
CONLL_CLASSES = ("LOC", "MISC", "ORG", "PER")
# The model trained on both corpora keeps the four main classes, folds the
# derived sub-classes into MISC and drops the -part sub-classes.
COMBINED_CLASSES = ("LOC", "MISC", "ORG", "OTH", "PER")


@dataclass(frozen=True)
class LabelSchema:
    """Ordered BIO label set: "O" first, then B-/I- per entity class."""

    entity_classes: tuple[str, ...]
    labels: tuple[str, ...] = field(init=False)
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        labels = ["O"]
        for cls in self.entity_classes:
            labels += [f"B-{cls}", f"I-{cls}"]
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "index", {lab: i for i, lab in enumerate(labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise CorpusError(f"label {label!r} not in schema over {self.entity_classes}") from None

    def label_of(self, idx: int) -> str:
        return self.labels[idx]


def germeval_schema() -> LabelSchema:
    return LabelSchema(GERMEVAL_CLASSES)


def conll_schema() -> LabelSchema:
    return LabelSchema(CONLL_CLASSES)


def combined_schema() -> LabelSchema:
    return LabelSchema(COMBINED_CLASSES)


_GERMEVAL_LABELS = frozenset(germeval_schema().labels)


def _read_sentences(path: str | Path, parse_line, drop_docstart: bool) -> list[Sentence]:
    """The sentence loop of both formats over a UTF-8 file: a blank line
    ends a sentence, and ``parse_line(path, number, line)`` checks each other
    line and gives its ``(token, *labels)`` row, or None to skip it.  With
    ``drop_docstart``, a sentence holding a ``-DOCSTART-`` token is dropped
    and takes no number."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    sentences: list[Sentence] = []
    rows: list[tuple[str, ...]] = []
    # The closing blank line ends a last sentence that has none.
    for i, line in enumerate([*lines, ""], start=1):
        if line.strip():
            row = parse_line(path, i, line)
            if row is not None:
                rows.append(row)
        elif rows:
            texts, *levels = zip(*rows)
            if not (drop_docstart and "-DOCSTART-" in texts):
                sentences.append(Sentence([Token(text) for text in texts], *map(list, levels),
                                          source_id=f"{path.name}:{len(sentences)}"))
            rows = []
    return sentences


def _germeval_line(path: Path, i: int, line: str) -> tuple[str, str, str] | None:
    if line.startswith("#"):
        return None
    cols = line.split("\t")
    if len(cols) != 4:
        raise CorpusError(f"{path}:{i}: expected 4 tab-separated columns, got {len(cols)}")
    _, text, out_lab, in_lab = cols
    if not text:
        raise CorpusError(f"{path}:{i}: empty token")
    for label in (out_lab, in_lab):
        if label not in _GERMEVAL_LABELS:
            raise CorpusError(f"{path}:{i}: unknown label {label!r}")
    return text, out_lab, in_lab


def _conll_line(path: Path, i: int, line: str) -> tuple[str, str]:
    cols = line.split()
    if len(cols) < 2:
        raise CorpusError(f"{path}:{i}: expected at least 2 columns, got {len(cols)}")
    text, tag = cols[0], cols[-1]
    parts = split_tag(tag)
    if parts is None:
        raise CorpusError(f"{path}:{i}: malformed tag {tag!r}")
    if parts[0] != "O" and parts[1] not in CONLL_CLASSES:
        raise CorpusError(f"{path}:{i}: unknown label {tag!r}")
    return text, tag


def parse_germeval(path: str | Path) -> list[Sentence]:
    """Parse the four-column nested-annotation TSV into sentences carrying
    both label levels, each label one of the GermEval schema's."""
    return _read_sentences(path, _germeval_line, drop_docstart=False)


def parse_conll03(path: str | Path) -> list[Sentence]:
    """Parse whitespace-separated columns (token first, NE tag last).

    Tags are kept exactly as found in the file; the original distribution
    uses the IOB scheme, which :func:`read_corpus` converts to BIO.
    ``-DOCSTART-`` sentences are dropped.
    """
    return _read_sentences(path, _conll_line, drop_docstart=True)


def read_corpus(path: str | Path, fmt: str) -> list[Sentence]:
    """A corpus file's sentences with BIO labels: ``germeval`` as
    :func:`parse_germeval` gives them, ``conll`` as :func:`parse_conll03`
    gives them with each sentence's tags through :func:`iob_to_bio`."""
    if fmt == "germeval":
        return parse_germeval(path)
    if fmt == "conll":
        return [Sentence(s.tokens, iob_to_bio(s.outer_labels), None, s.source_id) for s in parse_conll03(path)]
    raise CorpusError(f"unknown corpus format {fmt!r}")


def write_germeval(sentences: Iterable[Sentence], path: str | Path):
    """Write GermEval TSV in UTF-8 through :func:`~gner.embeddings.atomic_write`,
    so a write that fails midway leaves the file already there whole."""
    with atomic_write(path) as fh:
        for s in sentences:
            inner = s.inner_labels if s.inner_labels is not None else ["O"] * len(s)
            lines = [f"{n}\t{tok.text}\t{out_lab}\t{in_lab}\n"
                     for n, (tok, out_lab, in_lab) in enumerate(zip(s.tokens, s.outer_labels, inner), start=1)]
            fh.write(("".join(lines) + "\n").encode("utf-8"))


_TAG_RE = re.compile(r"([BI])-(\S+)")


def split_tag(label: str) -> tuple[str, str] | None:
    """The BIO tag grammar: ``("O", "")`` for ``O``, ``(marker, class)`` for
    a ``B-``/``I-`` tag whose class has no whitespace, None for anything
    else."""
    if label == "O":
        return "O", ""
    m = _TAG_RE.fullmatch(label)
    return (m.group(1), m.group(2)) if m else None


def iob_to_bio(labels: Sequence[str]) -> list[str]:
    """Convert IOB to BIO: I-X becomes B-X at sentence start or when the
    previous label does not continue class X.  Idempotent on BIO input."""
    out: list[str] = []
    prev_marker, prev_cls = "O", ""
    for pos, label in enumerate(labels):
        parts = split_tag(label)
        if parts is None:
            raise CorpusError(f"malformed tag {label!r} at position {pos}")
        marker, cls = parts
        if marker == "I" and not (prev_marker in ("B", "I") and prev_cls == cls):
            out.append(f"B-{cls}")
        else:
            out.append(label)
        prev_marker, prev_cls = marker, cls
    return out


# Where each GermEval or combined class goes in the combined label set;
# None drops the chunk.
_COMBINED_CLASS = {
    cls: "MISC" if cls.endswith("deriv") else None if cls.endswith("part") else cls
    for cls in GERMEVAL_CLASSES + COMBINED_CLASSES
}


def map_combined(labels: Sequence[str]) -> list[str]:
    """A BIO sequence's labels for the model trained on both corpora:
    derived sub-classes become MISC, -part sub-classes become O, O and the
    combined classes pass through; then :func:`iob_to_bio` repairs a chunk
    whose B- tag was dropped.  Idempotent."""
    mapped = []
    for label in labels:
        marker, cls = split_tag(label) or (None, None)
        if marker != "O" and cls not in _COMBINED_CLASS:
            raise CorpusError(f"cannot map unknown label {label!r}")
        combined = _COMBINED_CLASS.get(cls)
        mapped.append(f"{marker}-{combined}" if combined else "O")
    return iob_to_bio(mapped)


CASING_FEATURE_NAMES = (
    "all_lower", "all_upper", "initial_upper", "numeric", "mainly_numeric", "contains_digit", "other",
)
_CASE_INDEX = {name: i for i, name in enumerate(CASING_FEATURE_NAMES)}


def casing_feature_name(token_text: str) -> str:
    """First matching rule, in order: numeric, mainly numeric, all lower,
    all upper, initial upper, contains digit, other."""
    if not token_text:
        raise CorpusError("empty token has no casing feature")
    n_digits = sum(map(str.isdecimal, token_text))
    n = len(token_text)
    if n_digits == n:
        return "numeric"
    if 2 * n_digits > n:
        return "mainly_numeric"
    if token_text.islower():
        return "all_lower"
    if token_text.isupper():
        return "all_upper"
    if token_text[0].isupper() and (n == 1 or token_text[1:].islower()):
        return "initial_upper"
    if n_digits > 0:
        return "contains_digit"
    return "other"


def casing_features(texts: Sequence[str]) -> np.ndarray:
    """The one-hot surface-shape descriptor of each text, ``(len(texts), 7)``:
    one casing index per text, written with one scatter."""
    index = np.fromiter((_CASE_INDEX[casing_feature_name(t)] for t in texts), dtype=np.int64, count=len(texts))
    out = np.zeros((len(texts), len(CASING_FEATURE_NAMES)))
    out[np.arange(len(texts)), index] = 1.0
    return out


PAD_INDEX = 0
UNK_INDEX = 1
SENT_START = "<S>"
SENT_END = "</S>"
WORD_START = "<W>"
WORD_END = "</W>"
VIRTUAL_CHARS = (SENT_START, SENT_END, WORD_START, WORD_END)


@dataclass(frozen=True)
class CharVocab:
    """Character-to-index map with reserved slots: 0 pad, 1 unknown, then the
    four virtual boundary symbols, then real characters.  Built from the
    training split only so dev/test unknowns exercise the unknown slot.

    The single-character entries are also held as code points in ascending
    order, with their indices, for :meth:`code_indices`."""

    index: dict[str, int]
    _codes: np.ndarray = field(init=False, repr=False, compare=False)
    _ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A sentinel above every code point ends the table, so a search
        # never runs past it and an empty vocabulary needs no special case.
        singles = sorted((ord(s), i) for s, i in self.index.items() if len(s) == 1) + [(0xFFFFFFFF, UNK_INDEX)]
        object.__setattr__(self, "_codes", np.array([c for c, _ in singles], dtype=np.uint32))
        object.__setattr__(self, "_ids", np.array([i for _, i in singles], dtype=np.int64))

    @classmethod
    def from_chars(cls, chars: Iterable[str]) -> "CharVocab":
        index = {"<pad>": PAD_INDEX, "<unk>": UNK_INDEX}
        for v in VIRTUAL_CHARS:
            index[v] = len(index)
        for ch in sorted(set(chars)):
            if ch not in index:
                index[ch] = len(index)
        return cls(index)

    def lookup(self, symbol: str) -> int:
        return self.index.get(symbol, UNK_INDEX)

    def code_indices(self, codes: np.ndarray) -> np.ndarray:
        """The index of each code point in ``codes``, as :meth:`lookup`
        gives it for that one character."""
        at = np.searchsorted(self._codes, codes)
        return np.where(self._codes[at] == codes, self._ids[at], UNK_INDEX)

    def __len__(self) -> int:
        return len(self.index)

    def ordered_symbols(self) -> list[str]:
        return [s for s, _ in sorted(self.index.items(), key=lambda kv: kv[1])]


def build_char_vocab(sentences: Iterable[Sentence]) -> CharVocab:
    chars: set[str] = set()
    for s in sentences:
        for tok in s.tokens:
            chars.update(tok.text)
    return CharVocab.from_chars(chars)


def build_char_rows(keys: Sequence[tuple[str, bool, bool]], vocab: CharVocab, mode: str) -> np.ndarray:
    """Each ``(text, first, last)`` token key's character index row,
    post-padded with ``PAD_INDEX`` to the longest: ``(len(keys), width)``.

    ``cnn`` mode wraps the text in word-boundary symbols, additionally
    marking the sentence start/end on a first/last token; ``rnn`` mode uses
    the raw characters.  All keys' characters are mapped at once, from one
    array of the texts' code points.
    """
    if mode not in ("cnn", "rnn"):
        raise CorpusError(f"unknown char mode {mode!r}")
    texts, first, last = zip(*keys)
    first, last = np.array(first, dtype=bool), np.array(last, dtype=bool)
    sizes = np.fromiter(map(len, texts), dtype=np.int64, count=len(keys))
    # surrogatepass: a lone surrogate is one code point, as it is to str.
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    # Each text's first column: after <S> and <W> in cnn mode.
    lead = first + 1 if mode == "cnn" else np.zeros(len(keys), dtype=np.int64)
    widths = lead + sizes + 1 + last if mode == "cnn" else sizes
    out = np.full((len(keys), int(widths.max())), PAD_INDEX, dtype=np.int64)
    # The flat position of each character: its row's first text column plus
    # its offset in the text.
    row_lead = np.arange(len(keys)) * out.shape[1] + lead
    out.reshape(-1)[np.arange(len(codes)) + np.repeat(row_lead - (np.cumsum(sizes) - sizes), sizes)] = (
        vocab.code_indices(codes))
    if mode == "cnn":
        rows, end = np.arange(len(keys)), lead + sizes
        out[first, 0] = vocab.lookup(SENT_START)
        out[rows, lead - 1] = vocab.lookup(WORD_START)
        out[rows, end] = vocab.lookup(WORD_END)
        out[last, end[last] + 1] = vocab.lookup(SENT_END)
    return out


@dataclass
class Batch:
    """Post-padded mini-batch over a table of distinct token keys: sentence
    ``b`` holds its tokens at positions ``0 .. lengths[b] - 1``, and
    ``token_keys[b, t]`` indexes ``keys`` (0 at padding positions).  A key
    is ``(text, first, last)``, the two flags set only in ``cnn`` char mode,
    where a sentence's first and last token carry boundary symbols.  The
    keys are in order of first occurrence.  No character row is built with
    the batch: :meth:`chars_of` builds the rows a caller needs from
    ``char_vocab``."""

    sentences: list[Sentence]
    max_len: int
    lengths: np.ndarray
    keys: list[tuple[str, bool, bool]]
    token_keys: np.ndarray
    char_mode: str | None = None
    char_vocab: CharVocab | None = None

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def mask(self) -> np.ndarray:
        """(batch, max_len) booleans marking the real token positions."""
        return np.arange(self.max_len) < self.lengths[:, None]

    def chars_of(self, keys: Sequence[int]) -> np.ndarray:
        """The post-padded character rows ``(len(keys), chars)`` of the keys at the indices ``keys``."""
        return build_char_rows([self.keys[u] for u in keys], self.char_vocab, self.char_mode)

    @property
    def char_indices(self) -> np.ndarray | None:
        """(batch, max_len, chars): each real position's character row, and
        all-pad rows at padding positions; None without a char mode."""
        if self.char_mode is None:
            return None
        out = self.chars_of(range(len(self.keys)))[self.token_keys]
        out[~self.mask] = PAD_INDEX
        return out


def batch_from_sentences(
    sentences: Sequence[Sentence],
    char_vocab: CharVocab | None = None,
    char_mode: str | None = None,
) -> Batch:
    """Assemble one padded batch and its token-key table, keys in order of
    first occurrence.  A char mode needs ``char_vocab``, from which
    :meth:`Batch.chars_of` builds the rows of the keys a caller needs."""
    if not sentences:
        raise CorpusError("cannot batch zero sentences")
    if char_mode is not None and char_vocab is None:
        raise CorpusError("char sequences need a char vocabulary")
    lengths = np.array([len(s) for s in sentences])
    cnn = char_mode == "cnn"
    index: dict[tuple[str, bool, bool], int] = {}
    real_keys = np.array([index.setdefault((tok.text, cnn and t == 0, cnn and t == last), len(index))
                          for s, last in zip(sentences, (lengths - 1).tolist()) for t, tok in enumerate(s.tokens)],
                         dtype=np.int64)
    max_len = int(lengths.max())
    token_keys = np.zeros((len(sentences), max_len), dtype=np.int64)
    token_keys[np.arange(max_len) < lengths[:, None]] = real_keys
    return Batch(
        sentences=list(sentences),
        max_len=max_len,
        lengths=lengths,
        keys=list(index),
        token_keys=token_keys,
        char_mode=char_mode,
        char_vocab=char_vocab if char_mode is not None else None,
    )


def make_batches(
    sentences: Sequence[Sentence],
    batch_size: int,
    seed: int,
    char_vocab: CharVocab | None = None,
    char_mode: str | None = None,
) -> list[Batch]:
    """Shuffle by seed, bucket by similar length, pad per batch.

    Every sentence appears exactly once; batch order is shuffled again so
    length buckets do not impose a curriculum.
    """
    if batch_size < 1:
        raise CorpusError(f"batch_size must be >= 1, got {batch_size}")
    if not sentences:
        return []
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sentences))
    # Stable sort keeps the shuffled order within each length bucket.
    order = sorted(order, key=lambda i: len(sentences[i]))
    groups = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(groups)
    return [
        batch_from_sentences([sentences[i] for i in g], char_vocab, char_mode)
        for g in groups
    ]
