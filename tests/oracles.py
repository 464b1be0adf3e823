"""Test oracles: central finite differences for hand-written gradients,
brute-force path enumeration for the CRF, a line-at-a-time reference
parser for embedding stores, character rows made one symbol at a time and
a char CNN that convolves every window and masks the dead ones."""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from gner.corpus import PAD_INDEX, SENT_END, SENT_START, WORD_END, WORD_START, CharVocab
from gner.crf import CrfParams
from gner.embeddings import FASTTEXT_MAGIC, EmbeddingError, EmbeddingStore, check_kind
from gner.layers import Conv1dParams

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


def reference_char_rows(keys: Sequence[tuple[str, bool, bool]], vocab: CharVocab, mode: str) -> np.ndarray:
    """Each ``(text, first, last)`` key's character row built one symbol at
    a time, then post-padded with ``PAD_INDEX`` to the longest: ``cnn`` mode
    wraps the text in ``<W>``..``</W>``, with ``<S>`` before a first and
    ``</S>`` after a last token; ``rnn`` mode takes the raw characters.
    ``corpus.build_char_rows`` must give the same array."""
    rows = []
    for text, first, last in keys:
        symbols = list(text)
        if mode == "cnn":
            symbols = [SENT_START] * first + [WORD_START, *symbols, WORD_END] + [SENT_END] * last
        rows.append([vocab.lookup(s) for s in symbols])
    out = np.full((len(rows), max(map(len, rows))), PAD_INDEX, dtype=np.int64)
    for r, row in enumerate(rows):
        out[r, : len(row)] = row
    return out


def _all_windows(x: np.ndarray, k: int) -> np.ndarray:
    """(rows, steps, in) -> (rows, steps, k*in): window ``w`` holds
    positions w..w+k-1 side by side, zeros past the last step."""
    rows, steps, width = x.shape
    cols = np.zeros((rows, steps, k * width), dtype=x.dtype)
    for j in range(min(k, steps)):
        cols[:, : steps - j, j * width : (j + 1) * width] = x[:, j:]
    return cols


def reference_conv1d_globalmaxpool(params: Conv1dParams, x: np.ndarray, lengths):
    """The char CNN over every window of every row: the windows starting at
    or past a row's length are masked to -inf, then each filter takes its
    first argmax and is rectified.  Returns the (rows, filters) features
    and the winning windows ``(rows, filters)`` as step indices."""
    rows, steps, width = x.shape
    k, filters = params.kernel_size, params.filters
    z = _all_windows(x, k).reshape(rows * steps, k * width) @ params.kernels.reshape(k * width, filters)
    z = (z + params.bias).reshape(rows, steps, filters)
    z[np.arange(steps)[None, :] >= np.asarray(lengths)[:, None]] = -np.inf
    best = z.argmax(axis=1)
    top = np.take_along_axis(z, best[:, None, :], axis=1)[:, 0]
    return np.where(top > 0, top, 0.0), best


def reference_conv1d_backward(params: Conv1dParams, x: np.ndarray, lengths, grad: np.ndarray):
    """Gradients of ``sum(reference_conv1d_globalmaxpool(...) * grad)``
    w.r.t. the input, the kernels and the bias, over every window: each
    filter's gradient reaches its winning window where that window's
    pre-activation is positive, and each window's input gradient is added
    back position by position."""
    rows, steps, width = x.shape
    k, filters = params.kernel_size, params.filters
    out, best = reference_conv1d_globalmaxpool(params, x, lengths)
    dz = np.zeros((rows, steps, filters), dtype=x.dtype)
    np.put_along_axis(dz, best[:, None, :], (grad * (out > 0))[:, None, :], axis=1)
    dz = dz.reshape(rows * steps, filters)
    cols = _all_windows(x, k).reshape(rows * steps, k * width)
    dcols = (dz @ params.kernels.reshape(k * width, filters).T).reshape(rows, steps, k * width)
    dx = np.zeros(x.shape, dtype=x.dtype)
    for j in range(min(k, steps)):
        dx[:, j:] += dcols[:, : steps - j, j * width : (j + 1) * width]
    return dx, (cols.T @ dz).reshape(k, width, filters), dz.sum(axis=0)
