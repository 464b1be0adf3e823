"""Linear-chain CRF output layer over whole batches.

A batch is (B, T, L) emissions plus per-row lengths; what lies past a row's
length is ignored.  A batch's negative log-likelihood, the mean over its
sentences, is one autodiff node: its value comes from the logsumexp-stabilized
forward recursion, its gradient from one backward recursion that runs only
when a gradient is asked for.  Viterbi decoding is one max-plus pass with a
vectorised backtrack.  All of them run over the rows sorted by length, so the
rows still running at a step form a leading slice and ended rows keep their
state.  Brute-force path enumeration over one sentence is the test oracle.
Decoding is reentrant: parameters are read-only during inference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node

__all__ = [
    "CrfError",
    "CrfParams",
    "init_crf_params",
    "crf_negative_log_likelihood",
    "viterbi_decode",
    "brute_force_log_z",
    "brute_force_best_path",
]

BRUTE_FORCE_PATH_LIMIT = 1_000_000


class CrfError(Exception):
    pass


@dataclass
class CrfParams:
    """Transition scores (label i -> label j) plus explicit start/end scores."""

    transitions: Node
    start_scores: Node
    end_scores: Node

    def __post_init__(self):
        n = self.num_labels
        if self.transitions.value.shape != (n, n) or self.end_scores.value.shape != (n,):
            raise CrfError(
                f"inconsistent CRF shapes: {self.transitions.value.shape}, "
                f"{self.start_scores.value.shape}, {self.end_scores.value.shape}"
            )

    @property
    def num_labels(self) -> int:
        return self.start_scores.value.shape[0]


def init_crf_params(num_labels: int) -> CrfParams:
    return CrfParams(
        transitions=ad.leaf(np.zeros((num_labels, num_labels)), requires_grad=True),
        start_scores=ad.leaf(np.zeros(num_labels), requires_grad=True),
        end_scores=ad.leaf(np.zeros(num_labels), requires_grad=True),
    )


def _logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    return out.squeeze(axis) if axis is not None else out.reshape(())


def _as_array(emissions, ndim: int) -> np.ndarray:
    e = emissions.value if isinstance(emissions, Node) else np.asarray(emissions, dtype=np.float64)
    if e.ndim != ndim or 0 in e.shape:
        raise CrfError(f"emissions must be a non-empty {ndim}-D array, got shape {tuple(e.shape)}")
    if not np.isfinite(e).all():
        raise CrfError("non-finite emissions")
    return e


def _batch(emissions, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Checked (B, T, L) emissions and (B,) row lengths in [1, T], the rows
    by descending length and, per step, how many of them are still running:
    always a leading run of that order, as in a packed sequence."""
    e = _as_array(emissions, 3)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != e.shape[:1] or lengths.min() < 1 or lengths.max() > e.shape[1]:
        raise CrfError(f"lengths {lengths.tolist()} must give each of {e.shape[0]} rows 1 to {e.shape[1]} steps")
    order = np.argsort(-lengths, kind="stable")
    return e, lengths, order, (lengths[order] > np.arange(e.shape[1])[:, None]).sum(axis=1).tolist()


def crf_negative_log_likelihood(params: CrfParams, emissions: Node, gold, lengths) -> Node:
    """Mean over the batch's sentences of ``log Z - score(gold path)``, as
    one scalar autodiff node.

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
    mask = np.arange(T) < lengths[:, None]
    if gold[mask].min() < 0 or gold[mask].max() >= L:
        raise CrfError(f"gold label out of range for {L} labels")
    # From here on rows are in length order; the emission gradient goes back.
    e, lengths, mask, gold = e[order], lengths[order], mask[order], np.where(mask, gold, 0)[order]
    trans, start, end = params.transitions.value, params.start_scores.value, params.end_scores.value
    rows, last = np.arange(B), lengths - 1

    # Forward recursion in log space, reducing over the contiguous (from) axis.
    trans_t = np.ascontiguousarray(trans.T)
    alphas = np.zeros_like(e)
    alphas[:, 0] = start + e[:, 0]
    for t in range(1, T):
        n = running[t]
        alphas[:n, t] = e[:n, t] + _logsumexp(alphas[:n, t - 1, None, :] + trans_t, axis=-1)
    log_z = _logsumexp(alphas[rows, last] + end, axis=-1)
    gold_score = start[gold[:, 0]] + end[gold[rows, last]]
    gold_score += np.where(mask, np.take_along_axis(e, gold[..., None], axis=2)[..., 0], 0.0).sum(axis=1)
    gold_score += np.where(mask[:, 1:], trans[gold[:, :-1], gold[:, 1:]], 0.0).sum(axis=1)
    loss = float(np.mean(log_z - gold_score))

    def joint_vjp(g):
        # Backward recursion, each row starting from beta = end at its last
        # step; each step's pairwise marginals reuse its (rows, from, to) scores.
        betas = np.zeros_like(e)
        betas[rows, last] = end
        d_trans = np.zeros((L, L))
        for t in range(T - 2, -1, -1):
            n = running[t + 1]
            ahead = trans + (e[:n, t + 1] + betas[:n, t + 1])[:, None, :]
            d_trans += np.exp(ahead + (alphas[:n, t] - log_z[:n, None])[:, :, None]).sum(axis=0)
            betas[:n, t] = _logsumexp(ahead, axis=-1)
        marg = np.exp(np.where(mask[..., None], alphas + betas - log_z[:, None, None], -np.inf))
        d_e = marg - ((gold[..., None] == np.arange(L)) & mask[..., None])
        pairs = (gold[:, :-1] * L + gold[:, 1:])[mask[:, 1:]]
        d_trans -= np.bincount(pairs, minlength=L * L).reshape(L, L)
        scale = float(g) / B
        d_boundary = [d_e[:, 0].sum(axis=0) * scale, d_e[rows, last].sum(axis=0) * scale]
        return [d_e[np.argsort(order)] * scale, d_trans * scale, *d_boundary]

    parents = (emissions, params.transitions, params.start_scores, params.end_scores)
    return ad.joint_result("crf_nll", np.asarray(loss), parents, joint_vjp)


def viterbi_decode(params: CrfParams, emissions, lengths) -> tuple[list[list[int]], np.ndarray]:
    """Best-scoring label path of every row, and the (B,) path scores.

    One max-plus pass over the (B, T, L) ``emissions``; row ``b`` spans its
    first ``lengths[b]`` steps.  The backtrack starts each row from its best
    last label and is vectorised over the rows still running.  Ties break
    toward the lowest label index at every backtrack step.
    """
    e, lengths, order, running = _batch(emissions, lengths)
    B, T, L = e.shape
    e = e[order]
    trans_t = params.transitions.value.T
    score = params.start_scores.value + e[:, 0]
    backptr = np.empty((T, B, L), dtype=np.int64)
    for t in range(1, T):
        n = running[t]
        cand = score[:n, None, :] + trans_t  # (row, to, from)
        backptr[t, :n] = cand.argmax(axis=-1)  # argmax takes the lowest index on ties
        score[:n] = e[:n, t] + cand.max(axis=-1)
    score += params.end_scores.value
    labels = np.empty((T, B), dtype=np.int64)
    labels[:] = score.argmax(axis=-1)  # a row's labels from its last step on
    rows = np.arange(B)
    for t in range(T - 1, 0, -1):
        n = running[t]
        labels[t - 1, :n] = backptr[t, rows[:n], labels[t, :n]]
    unsort = np.argsort(order)
    paths = labels[:, unsort]
    return [paths[:n, b].tolist() for b, n in enumerate(lengths)], score[rows, labels[-1]][unsort]


def _check_enumeration_guard(T: int, L: int):
    if L**T > BRUTE_FORCE_PATH_LIMIT:
        raise CrfError(f"brute force would enumerate {L}^{T} > {BRUTE_FORCE_PATH_LIMIT} paths")


def _path_score(params: CrfParams, e: np.ndarray, path: Sequence[int]) -> float:
    trans = params.transitions.value
    s = params.start_scores.value[path[0]] + params.end_scores.value[path[-1]]
    for t, y in enumerate(path):
        s += e[t, y]
    for t in range(len(path) - 1):
        s += trans[path[t], path[t + 1]]
    return float(s)


def brute_force_log_z(params: CrfParams, emissions) -> float:
    """Exact log partition function by enumerating all L^T paths."""
    e = _as_array(emissions, 2)
    T, L = e.shape
    _check_enumeration_guard(T, L)
    scores = np.array([_path_score(params, e, p) for p in itertools.product(range(L), repeat=T)])
    return float(_logsumexp(scores))


def brute_force_best_path(params: CrfParams, emissions) -> tuple[list[int], float]:
    """Exact argmax path under the same tie rule as :func:`viterbi_decode`:
    among equal-scoring paths, the one whose reversed sequence is
    lexicographically smallest wins (Viterbi backtracking fixes the last
    label first)."""
    e = _as_array(emissions, 2)
    T, L = e.shape
    _check_enumeration_guard(T, L)
    best_path: tuple[int, ...] | None = None
    best_score = -np.inf
    for p in itertools.product(range(L), repeat=T):
        s = _path_score(params, e, p)
        if s > best_score or (s == best_score and best_path is not None and p[::-1] < best_path[::-1]):
            best_score = s
            best_path = p
    assert best_path is not None
    return list(best_path), best_score
