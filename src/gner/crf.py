"""Linear-chain CRF output layer over whole batches.

A batch is (B, T, L) emissions plus per-row lengths; what lies past a row's
length is ignored.  :func:`crf_negative_log_likelihood` returns a batch's
negative log-likelihood, the mean over its sentences, together with its
gradients: the value comes from the logsumexp-stabilized forward recursion,
the gradients from one backward recursion.  Viterbi decoding is one
max-plus pass that keeps only each step's best scores, and a vectorised
backtrack that recovers each chosen label from them.  All of them run on the
:func:`~gner.layers.length_schedule` order, so the rows still running at a
step form a leading slice and ended rows keep their state.  Decoding is
reentrant: parameters are read-only during inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LayerError, length_schedule

__all__ = [
    "CrfError",
    "CrfParams",
    "crf_negative_log_likelihood",
    "viterbi_decode",
]


class CrfError(Exception):
    pass


@dataclass
class CrfParams:
    """Transition scores (label i -> label j) plus explicit start/end scores."""

    transitions: np.ndarray
    start_scores: np.ndarray
    end_scores: np.ndarray

    def __post_init__(self):
        n = self.num_labels
        if self.transitions.shape != (n, n) or self.end_scores.shape != (n,):
            raise CrfError(
                f"inconsistent CRF shapes: {self.transitions.shape}, "
                f"{self.start_scores.shape}, {self.end_scores.shape}"
            )

    @property
    def num_labels(self) -> int:
        return self.start_scores.shape[0]


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """logsumexp over the last axis."""
    m = np.max(x, axis=-1, keepdims=True)
    return (np.log(np.sum(np.exp(x - m), axis=-1, keepdims=True)) + m)[..., 0]


def _batch(emissions, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Checked (B, T, L) emissions and their :func:`length_schedule`."""
    e = np.asarray(emissions, dtype=np.float64)
    if e.ndim != 3 or 0 in e.shape:
        raise CrfError(f"emissions must be a non-empty 3-D array, got shape {tuple(e.shape)}")
    if not np.isfinite(e).all():
        raise CrfError("non-finite emissions")
    try:
        return (e, *length_schedule(lengths, *e.shape[:2]))
    except LayerError as exc:
        raise CrfError(str(exc)) from None


def crf_negative_log_likelihood(params: CrfParams, emissions, gold, lengths):
    """Mean over the batch's sentences of ``log Z - score(gold path)``, and
    its gradients w.r.t. the emissions, transitions, start and end scores.

    ``emissions`` is (B, T, L) and ``gold`` (B, T) label indices; row ``b``
    spans its first ``lengths[b]`` steps, and gold entries past that are
    ignored.  ``score(y) = start[y1] + sum_t emissions[t, yt] + sum_t
    transitions[yt, yt+1] + end[yT]``.  The gradient w.r.t. the emissions is
    (marginals - gold one-hot) / B, zero past each row's end; transitions and
    boundary scores get the matching pairwise and boundary marginal
    differences.
    """
    e, lengths, order, running = _batch(emissions, lengths)
    B, T, L = e.shape
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != (B, T):
        raise CrfError(f"gold labels of shape {gold.shape} do not match (batch, length) {(B, T)}")
    real = np.arange(T) < lengths[:, None]
    if gold[real].min() < 0 or gold[real].max() >= L:
        raise CrfError(f"gold label out of range for {L} labels")
    # From here on rows are in length order; the emission gradient goes back.
    e, lengths, real, gold = e[order], lengths[order], real[order], np.where(real, gold, 0)[order]
    trans, start, end = params.transitions, params.start_scores, params.end_scores
    rows, last = np.arange(B), lengths - 1

    # Forward recursion in log space, reducing over the contiguous (from) axis.
    trans_t = np.ascontiguousarray(trans.T)
    alphas = np.zeros_like(e)
    alphas[:, 0] = start + e[:, 0]
    for t in range(1, T):
        n = running[t]
        alphas[:n, t] = e[:n, t] + _logsumexp(alphas[:n, t - 1, None, :] + trans_t)
    log_z = _logsumexp(alphas[rows, last] + end)
    gold_score = start[gold[:, 0]] + end[gold[rows, last]]
    gold_score += np.where(real, np.take_along_axis(e, gold[..., None], axis=2)[..., 0], 0.0).sum(axis=1)
    gold_score += np.where(real[:, 1:], trans[gold[:, :-1], gold[:, 1:]], 0.0).sum(axis=1)
    loss = float(np.mean(log_z - gold_score))

    # Backward recursion, each row starting from beta = end at its last
    # step; each step's pairwise marginals reuse its (rows, from, to) scores.
    betas = np.zeros_like(e)
    betas[rows, last] = end
    d_trans = np.zeros((L, L))
    for t in range(T - 2, -1, -1):
        n = running[t + 1]
        ahead = trans + (e[:n, t + 1] + betas[:n, t + 1])[:, None, :]
        d_trans += np.exp(ahead + (alphas[:n, t] - log_z[:n, None])[:, :, None]).sum(axis=0)
        betas[:n, t] = _logsumexp(ahead)
    marg = np.exp(np.where(real[..., None], alphas + betas - log_z[:, None, None], -np.inf))
    d_e = marg - ((gold[..., None] == np.arange(L)) & real[..., None])
    pairs = (gold[:, :-1] * L + gold[:, 1:])[real[:, 1:]]
    d_trans -= np.bincount(pairs, minlength=L * L).reshape(L, L)
    scale = 1.0 / B
    grads = (d_e[np.argsort(order)] * scale, d_trans * scale,
             d_e[:, 0].sum(axis=0) * scale, d_e[rows, last].sum(axis=0) * scale)
    return loss, grads


def viterbi_decode(params: CrfParams, emissions, lengths) -> tuple[list[list[int]], np.ndarray]:
    """Best-scoring label path of every row, and the (B,) path scores.

    One max-plus pass over the (B, T, L) ``emissions``; row ``b`` spans its
    first ``lengths[b]`` steps.  The pass keeps each step's best scores
    only, one max per step.  The backtrack starts each row from its best
    last label and, vectorised over the rows still running, takes the
    argmax of the previous step's scores plus the transitions into the
    label already chosen, which are the same sums the pass maximised.  Ties
    break toward the lowest label index at every backtrack step.
    """
    e, lengths, order, running = _batch(emissions, lengths)
    B, T, L = e.shape
    e = e[order]
    trans, rows = params.transitions, np.arange(B)
    # scores[t, b]: the best score of a path ending at step t in each label,
    # written for the rows still running at t.
    scores = np.empty((T, B, L))
    scores[0] = params.start_scores + e[:, 0]
    for t in range(1, T):
        n = running[t]
        # (row, from, to): reducing the middle axis takes an elementwise max
        # over whole (row, to) slices, faster than many short last-axis runs.
        scores[t, :n] = e[:n, t] + np.maximum.reduce(scores[t - 1, :n, :, None] + trans, axis=1)
    final = scores[lengths[order] - 1, rows] + params.end_scores
    labels = np.empty((T, B), dtype=np.int64)
    labels[:] = final.argmax(axis=-1)  # a row's labels from its last step on
    for t in range(T - 1, 0, -1):
        n = running[t]
        labels[t - 1, :n] = (scores[t - 1, :n] + trans[:, labels[t, :n]].T).argmax(axis=-1)
    unsort = np.argsort(order)
    paths = labels[:, unsort]
    return [paths[:n, b].tolist() for b, n in enumerate(lengths)], final[rows, labels[-1]][unsort]
