"""Chunk extraction and precision/recall/F1 scoring.

Chunks are exact (class, start, end) spans; scoring is micro-averaged over
sentences with the zero-division convention P = R = F1 = 0.  Stray I- tags
leniently open a new chunk (matching the classic shared-task scorer) unless
strict mode is requested.  The two-level combined metric pools true/false
positives and negatives across the outer and inner annotation levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .corpus import split_tag

__all__ = [
    "EvaluationError",
    "Chunk",
    "ClassCounts",
    "EvalReport",
    "extract_chunks",
    "prf1",
    "evaluate_bio",
    "germeval_combined",
    "split_oov_iv",
]


class EvaluationError(Exception):
    pass


class Chunk(NamedTuple):
    cls: str
    start: int  # inclusive token index
    end: int  # exclusive token index
    level: str = "outer"


def extract_chunks(labels: Sequence[str], strict: bool = False, level: str = "outer") -> list[Chunk]:
    """Maximal B-X (I-X)* runs as chunks.

    A stray I-X with no compatible predecessor starts a new chunk; with
    ``strict=True`` the stray run is discarded instead.
    """
    chunks: list[Chunk] = []
    cur_cls: str | None = None
    cur_start = 0
    cur_stray = False

    def close(end: int):
        nonlocal cur_cls
        if cur_cls is not None and not (strict and cur_stray):
            chunks.append(Chunk(cur_cls, cur_start, end, level))
        cur_cls = None

    for pos, label in enumerate(labels):
        parts = split_tag(label)
        if parts is None:
            raise EvaluationError(f"malformed label {label!r} at position {pos}")
        marker, cls = parts
        if marker == "O":
            close(pos)
        elif marker == "B" or cur_cls != cls:  # an I- that continues nothing is stray
            close(pos)
            cur_cls, cur_start, cur_stray = cls, pos, marker == "I"
    close(len(labels))
    return chunks


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    overall: ClassCounts
    per_class: dict[str, ClassCounts]
    n_sentences: int = 0

    @property
    def precision(self) -> float:
        return self.overall.precision

    @property
    def recall(self) -> float:
        return self.overall.recall

    @property
    def f1(self) -> float:
        return self.overall.f1

    def to_dict(self) -> dict:
        def row(c: ClassCounts) -> dict:
            return {"tp": c.tp, "fp": c.fp, "fn": c.fn,
                    "precision": c.precision, "recall": c.recall, "f1": c.f1}

        return {
            "n_sentences": self.n_sentences,
            "overall": row(self.overall),
            "per_class": {cls: row(c) for cls, c in sorted(self.per_class.items())},
        }

    def render_table(self) -> str:
        """Per-class table in the classic shared-task scorer layout."""
        lines = [
            f"processed {self.n_sentences} sentences; "
            f"found: {self.overall.tp + self.overall.fp} chunks; "
            f"gold: {self.overall.tp + self.overall.fn}.",
            f"overall: precision: {100 * self.precision:6.2f}%; "
            f"recall: {100 * self.recall:6.2f}%; FB1: {100 * self.f1:6.2f}",
        ]
        for cls in sorted(self.per_class):
            c = self.per_class[cls]
            lines.append(
                f"{cls:>17}: precision: {100 * c.precision:6.2f}%; "
                f"recall: {100 * c.recall:6.2f}%; FB1: {100 * c.f1:6.2f}  {c.tp + c.fp}"
            )
        return "\n".join(lines)


def prf1(gold: Sequence[Iterable[Chunk]], pred: Sequence[Iterable[Chunk]]) -> EvalReport:
    """Micro-averaged precision/recall/F1 over per-sentence chunk sets."""
    if len(gold) != len(pred):
        raise EvaluationError(f"sentence count mismatch: {len(gold)} gold vs {len(pred)} predicted")
    overall = ClassCounts()
    per_class: dict[str, ClassCounts] = {}

    def bucket(cls: str) -> ClassCounts:
        if cls not in per_class:
            per_class[cls] = ClassCounts()
        return per_class[cls]

    for g_chunks, p_chunks in zip(gold, pred):
        g_set, p_set = set(g_chunks), set(p_chunks)
        for c in g_set & p_set:
            overall.tp += 1
            bucket(c.cls).tp += 1
        for c in p_set - g_set:
            overall.fp += 1
            bucket(c.cls).fp += 1
        for c in g_set - p_set:
            overall.fn += 1
            bucket(c.cls).fn += 1
    return EvalReport(overall=overall, per_class=per_class, n_sentences=len(gold))


def _check_aligned(gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]], level: str = ""):
    for n, (g, p) in enumerate(zip(gold, pred), 1):
        if len(g) != len(p):
            raise EvaluationError(f"sentence {n} has {len(g)} gold {level}labels but {len(p)} predicted")


def evaluate_bio(
    gold_labels: Sequence[Sequence[str]],
    pred_labels: Sequence[Sequence[str]],
    strict: bool = False,
) -> EvalReport:
    """Convenience wrapper: extract chunks from BIO sequences, then score.
    Each predicted sequence must be as long as its gold one."""
    _check_aligned(gold_labels, pred_labels)
    gold = [extract_chunks(g, strict=strict) for g in gold_labels]
    pred = [extract_chunks(p, strict=strict) for p in pred_labels]
    return prf1(gold, pred)


def germeval_combined(
    gold_outer: Sequence[Sequence[str]],
    gold_inner: Sequence[Sequence[str]],
    pred_outer: Sequence[Sequence[str]],
    pred_inner: Sequence[Sequence[str]],
    strict: bool = False,
) -> EvalReport:
    """Two-level metric: chunk counts pooled across the outer and inner
    annotation levels (micro), then P/R/F1.  Each predicted sequence must
    be as long as its gold one."""
    if not (len(gold_outer) == len(gold_inner) == len(pred_outer) == len(pred_inner)):
        raise EvaluationError(
            "level misalignment: "
            f"{len(gold_outer)}/{len(gold_inner)} gold vs {len(pred_outer)}/{len(pred_inner)} predicted"
        )
    _check_aligned(gold_outer, pred_outer, "outer ")
    _check_aligned(gold_inner, pred_inner, "inner ")

    def level_chunks(rows, level):
        return [extract_chunks(r, strict=strict, level=level) for r in rows]

    gold = [a + b for a, b in zip(level_chunks(gold_outer, "outer"), level_chunks(gold_inner, "inner"))]
    pred = [a + b for a, b in zip(level_chunks(pred_outer, "outer"), level_chunks(pred_inner, "inner"))]
    return prf1(gold, pred)


def split_oov_iv(sentences: Sequence, store) -> tuple[list, list]:
    """Partition sentences into (iv, oov): a sentence is in-vocabulary only
    if every token is in the store's word list (subword inference does not
    count)."""
    iv, oov = [], []
    for s in sentences:
        if all(t.text in store.word_vectors for t in s.tokens):
            iv.append(s)
        else:
            oov.append(s)
    return iv, oov
