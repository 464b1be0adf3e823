"""Linear-chain CRF output layer.

Sequence negative log-likelihood uses the logsumexp-stabilized forward
recursion; its gradient (marginals minus the gold one-hot, via a
forward-backward pass) is attached analytically so the loss plugs into the
autodiff graph.  Brute-force path enumeration is provided as a test oracle.
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


def _as_array(emissions) -> np.ndarray:
    e = emissions.value if isinstance(emissions, Node) else np.asarray(emissions, dtype=np.float64)
    if e.ndim != 2:
        raise CrfError(f"emissions must be (T, L), got shape {tuple(e.shape)}")
    if not np.isfinite(e).all():
        raise CrfError("non-finite emissions")
    return e


def _forward_alphas(e: np.ndarray, trans: np.ndarray, start: np.ndarray) -> np.ndarray:
    T = e.shape[0]
    alphas = np.empty_like(e)
    alphas[0] = start + e[0]
    for t in range(1, T):
        alphas[t] = e[t] + _logsumexp(alphas[t - 1][:, None] + trans, axis=0)
    return alphas


def _backward_betas(e: np.ndarray, trans: np.ndarray, end: np.ndarray) -> np.ndarray:
    T = e.shape[0]
    betas = np.empty_like(e)
    betas[T - 1] = end
    for t in range(T - 2, -1, -1):
        betas[t] = _logsumexp(trans + (e[t + 1] + betas[t + 1])[None, :], axis=1)
    return betas


def crf_negative_log_likelihood(params: CrfParams, emissions: Node, gold: Sequence[int]) -> Node:
    """Loss = logZ - score(gold path), as a scalar autodiff node.

    ``score(y) = start[y1] + sum_t emissions[t, yt] + sum_t transitions[yt, yt+1]
    + end[yT]``; logZ comes from the forward recursion in log space.  The
    gradient w.r.t. emissions is (marginals - gold one-hot); transitions and
    boundary scores get the matching pairwise/boundary marginal differences.
    """
    e = _as_array(emissions)
    T, L = e.shape
    gold = list(gold)
    if T < 1:
        raise CrfError("empty sequence")
    if len(gold) != T:
        raise CrfError(f"gold length {len(gold)} != sequence length {T}")
    if any(not 0 <= y < L for y in gold):
        raise CrfError(f"gold label out of range for {L} labels: {gold}")

    trans = params.transitions.value
    start = params.start_scores.value
    end = params.end_scores.value

    alphas = _forward_alphas(e, trans, start)
    betas = _backward_betas(e, trans, end)
    log_z = float(_logsumexp(alphas[T - 1] + end))

    gold_score = start[gold[0]] + e[np.arange(T), gold].sum() + end[gold[T - 1]]
    gold_score += sum(trans[gold[t], gold[t + 1]] for t in range(T - 1))
    loss = log_z - float(gold_score)

    # Marginals for the analytic gradient.
    marg = np.exp(alphas + betas - log_z)
    d_e = marg.copy()
    d_e[np.arange(T), gold] -= 1.0

    d_trans = np.zeros_like(trans)
    for t in range(T - 1):
        pair = np.exp(alphas[t][:, None] + trans + (e[t + 1] + betas[t + 1])[None, :] - log_z)
        d_trans += pair
    for t in range(T - 1):
        d_trans[gold[t], gold[t + 1]] -= 1.0

    d_start = marg[0].copy()
    d_start[gold[0]] -= 1.0
    d_end = marg[T - 1].copy()
    d_end[gold[T - 1]] -= 1.0

    parents = (emissions, params.transitions, params.start_scores, params.end_scores)
    vjps = (
        lambda g: float(g) * d_e,
        lambda g: float(g) * d_trans,
        lambda g: float(g) * d_start,
        lambda g: float(g) * d_end,
    )
    return Node(
        np.asarray(loss),
        requires_grad=any(p.requires_grad for p in parents),
        op="crf_nll",
        parents=parents,
        vjps=vjps,
    )


def viterbi_decode(params: CrfParams, emissions) -> tuple[list[int], float]:
    """Best-scoring label path and its score; ties break toward the lowest
    label index at every backtrack step."""
    e = _as_array(emissions)
    T, L = e.shape
    trans = params.transitions.value
    score = params.start_scores.value + e[0]
    backptr = np.zeros((T, L), dtype=np.int64)
    for t in range(1, T):
        cand = score[:, None] + trans  # (from, to)
        backptr[t] = cand.argmax(axis=0)  # argmax takes the lowest index on ties
        score = e[t] + cand.max(axis=0)
    score = score + params.end_scores.value
    last = int(score.argmax())
    best_score = float(score[last])
    path = [last]
    for t in range(T - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    path.reverse()
    return path, best_score


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
    e = _as_array(emissions)
    T, L = e.shape
    _check_enumeration_guard(T, L)
    scores = np.array([_path_score(params, e, p) for p in itertools.product(range(L), repeat=T)])
    return float(_logsumexp(scores))


def brute_force_best_path(params: CrfParams, emissions) -> tuple[list[int], float]:
    """Exact argmax path under the same tie rule as :func:`viterbi_decode`:
    among equal-scoring paths, the one whose reversed sequence is
    lexicographically smallest wins (Viterbi backtracking fixes the last
    label first)."""
    e = _as_array(emissions)
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
