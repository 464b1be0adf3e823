"""Test oracles: central finite differences for hand-written gradients,
brute-force path enumeration for the CRF, and a line-at-a-time reference
parser for embedding stores."""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from gner.crf import CrfParams
from gner.embeddings import FASTTEXT_MAGIC, EmbeddingError, EmbeddingStore, check_kind

# A sample counts as taken at a kink when its one-sided slopes differ by more
# than this share of the larger one.
SLOPE_RTOL = 1e-3

BRUTE_FORCE_PATH_LIMIT = 1_000_000


def check_gradient(
    loss_fn: Callable[[], float],
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    eps: float = 1e-5,
    samples: int = 50,
    rng: np.random.Generator | None = None,
    return_stats: bool = False,
):
    """Compare ``grads``, the analytic gradients of ``loss_fn()`` w.r.t. the
    arrays ``params``, against central finite differences.

    ``loss_fn`` must recompute the loss from the current contents of
    ``params``, which are perturbed in place, and be deterministic (seeds
    fixed).  For ``samples`` randomly chosen scalar parameters, returns the
    maximum of ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.

    A sample whose forward slope ``(f(θ+ε) - f(θ))/ε`` and backward slope
    ``(f(θ) - f(θ-ε))/ε`` differ by more than ``SLOPE_RTOL`` of the larger
    one straddles a kink (a rectifier's zero, a max tie); it is skipped and
    another is drawn.  Raises ``ValueError`` if no sample could be checked.
    """
    if eps <= 0:
        raise ValueError("check_gradient: eps must be positive")
    params = list(params)
    if not params:
        raise ValueError("check_gradient: no parameters to check")
    if [g.shape for g in grads] != [p.shape for p in params]:
        raise ValueError("check_gradient: gradients do not match the parameters' shapes")
    rng = rng if rng is not None else np.random.default_rng(0)

    mid = float(loss_fn())
    if not np.isfinite(mid):
        raise ValueError("check_gradient: non-finite loss")

    candidates = [(pi, fi) for pi, p in enumerate(params) for fi in range(p.size)]
    order = rng.permutation(len(candidates))

    max_rel = 0.0
    checked = 0
    skipped = 0
    for pos in order:
        if checked >= samples:
            break
        pi, fi = candidates[pos]
        p = params[pi]
        orig = p.flat[fi]

        p.flat[fi] = orig + eps
        hi = float(loss_fn())
        p.flat[fi] = orig - eps
        lo = float(loss_fn())
        p.flat[fi] = orig

        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("check_gradient: non-finite loss under perturbation")
        up = (hi - mid) / eps
        down = (mid - lo) / eps
        if abs(up - down) > SLOPE_RTOL * max(abs(up), abs(down), 1e-8):
            skipped += 1
            continue

        numeric = (hi - lo) / (2.0 * eps)
        a = float(grads[pi].flat[fi])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
        checked += 1

    if not checked:
        raise ValueError(f"check_gradient: every one of {skipped} samples straddles a kink")
    if return_stats:
        return max_rel, {"checked": checked, "skipped": skipped}
    return max_rel


def _check_enumeration_guard(T: int, L: int):
    if L**T > BRUTE_FORCE_PATH_LIMIT:
        raise ValueError(f"brute force would enumerate {L}^{T} > {BRUTE_FORCE_PATH_LIMIT} paths")


def path_score(params: CrfParams, e: np.ndarray, path: Sequence[int]) -> float:
    """Score of one label path through the (T, L) emissions ``e``."""
    trans = params.transitions
    s = params.start_scores[path[0]] + params.end_scores[path[-1]]
    for t, y in enumerate(path):
        s += e[t, y]
    for t in range(len(path) - 1):
        s += trans[path[t], path[t + 1]]
    return float(s)


def brute_force_log_z(params: CrfParams, emissions) -> float:
    """Exact log partition function by enumerating all L^T paths."""
    e = np.asarray(emissions, dtype=np.float64)
    T, L = e.shape
    _check_enumeration_guard(T, L)
    scores = np.array([path_score(params, e, p) for p in itertools.product(range(L), repeat=T)])
    m = scores.max()
    return float(np.log(np.exp(scores - m).sum()) + m)


def brute_force_best_path(params: CrfParams, emissions) -> tuple[list[int], float]:
    """Exact argmax path under the same tie rule as ``viterbi_decode``:
    among equal-scoring paths, the one whose reversed sequence is
    lexicographically smallest wins (Viterbi backtracking fixes the last
    label first)."""
    e = np.asarray(emissions, dtype=np.float64)
    T, L = e.shape
    _check_enumeration_guard(T, L)
    best_path: tuple[int, ...] | None = None
    best_score = -np.inf
    for p in itertools.product(range(L), repeat=T):
        s = path_score(params, e, p)
        if s > best_score or (s == best_score and best_path is not None and p[::-1] < best_path[::-1]):
            best_score = s
            best_path = p
    assert best_path is not None
    return list(best_path), best_score


def reference_load_store(path: str | Path) -> EmbeddingStore:
    """The text store formats parsed one line at a time: each value as
    ``float()`` parses it, then rounded once to float32, the first vector
    of a duplicate word kept, and every error naming its line.
    ``load_store`` must accept the same files, with bit-equal arrays, and
    fail with the same messages."""
    path = Path(path)
    with path.open("rb") as fh:
        return _reference_read(_reference_lines(fh, path), path)


def _reference_floats(values: list[str], line_no: int) -> np.ndarray:
    try:
        parsed = np.array(values, dtype=np.float64)
    except ValueError as exc:
        raise EmbeddingError(f"line {line_no}: bad float value: {exc}") from None
    with np.errstate(over="ignore"):  # past float32's range is an infinity
        return parsed.astype(np.float32)


def _reference_lines(fh, path: Path):
    for line_no, raw in enumerate(fh, start=1):
        try:
            yield line_no, raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise EmbeddingError(f"{path}: line {line_no}: not UTF-8 text: {exc}") from None


def _reference_read(lines, path: Path) -> EmbeddingStore:
    _, head = next(lines, (1, ""))
    fields = head.split()
    kind = "fasttext" if fields[:1] == [FASTTEXT_MAGIC] else "plain"
    check_kind(path, None, kind)
    word_count, bucket_count, ngram_fields = float("inf"), 0, {}
    if kind == "fasttext":
        if len(fields) != 6 or not all(v.isascii() and v.isdigit() for v in fields[1:]):
            raise EmbeddingError(
                f"{path}: line 1: expected '{FASTTEXT_MAGIC} dim min_n max_n bucket_count word_count' header "
                f"with non-negative integer fields, got {head[:80]!r}"
            )
        dim, min_n, max_n, bucket_count, word_count = (int(v) for v in fields[1:])
        buckets = np.empty((bucket_count, dim), dtype=np.float32)
        ngram_fields = dict(ngram_buckets=buckets, min_n=min_n, max_n=max_n, bucket_count=bucket_count)
    elif len(fields) == 2 and all(p.isascii() and p.lstrip("+-").isdigit() for p in fields):
        dim = int(fields[1])
    else:
        dim = None
        lines = itertools.chain([(1, head)], lines)

    vectors: dict[str, np.ndarray] = {}
    duplicates = seen = 0
    line_no = 1
    for line_no, line in lines:
        if not line.strip():
            continue
        if seen == word_count + bucket_count:
            raise EmbeddingError(f"line {line_no}: more than the header's {word_count} word + {bucket_count} bucket lines")
        parts = line.split(" ")
        word = parts.pop(0) if seen < word_count else None
        values = [p for p in parts if p]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise EmbeddingError(f"line {line_no}: expected {dim} values, got {len(values)}")
        if word is None:
            buckets[seen - word_count] = _reference_floats(values, line_no)
        elif word in vectors:
            duplicates += 1
        else:
            vectors[word] = _reference_floats(values, line_no)
        seen += 1

    if kind == "fasttext" and seen != word_count + bucket_count:
        raise EmbeddingError(
            f"{path}: line {line_no}: file ends after {seen} of the header's "
            f"{word_count} word + {bucket_count} bucket lines"
        )
    if dim is None:
        raise EmbeddingError(f"{path}: no vectors found")
    return EmbeddingStore(kind=kind, dim=dim, word_vectors=vectors, duplicates_skipped=duplicates, **ngram_fields)
