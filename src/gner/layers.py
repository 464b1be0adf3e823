"""Parameterized layers on top of the autodiff core.

The BiLSTM takes a whole padded batch as one ``(batch, steps, dim)`` node
plus a boolean mask, and runs each direction as a single graph node with a
hand-written BPTT gradient.  The char CNN takes one ``(rows, steps, dim)``
node and is likewise one graph node with a hand-written gradient.
Parameters are immutable during inference and mutated only by the training
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, logistic

__all__ = [
    "LayerError",
    "LstmParams",
    "Conv1dParams",
    "EmbeddingTable",
    "init_lstm_params",
    "init_conv1d_params",
    "init_embedding_table",
    "init_dense_params",
    "bilstm_sequence",
    "conv1d_globalmaxpool",
    "dropout_mask",
    "embed_lookup",
]


class LayerError(Exception):
    pass


# Gate slices of the fused LSTM weight matrices, in order:
# input gate, forget gate, cell candidate, output gate.
GATE_ORDER = ("input", "forget", "candidate", "output")


@dataclass
class LstmParams:
    """Fused LSTM weights: ``w_input`` is (input_dim, 4*cells), ``w_recurrent``
    is (cells, 4*cells), ``bias`` is (4*cells,).  The forget-gate bias slice
    is initialized to 1.0."""

    w_input: Node
    w_recurrent: Node
    bias: Node
    cells: int

    def __post_init__(self):
        four = 4 * self.cells
        if self.w_input.value.shape[1] != four or self.w_recurrent.value.shape != (self.cells, four) or self.bias.value.shape != (four,):
            raise LayerError(
                f"inconsistent LSTM shapes for cells={self.cells}: "
                f"{self.w_input.value.shape}, {self.w_recurrent.value.shape}, {self.bias.value.shape}"
            )

    @property
    def input_dim(self) -> int:
        return self.w_input.value.shape[0]


@dataclass
class Conv1dParams:
    """1-D convolution kernels (kernel_size, in_dim, filters) plus bias."""

    kernels: Node
    bias: Node
    kernel_size: int
    filters: int

    def __post_init__(self):
        k, _, f = self.kernels.value.shape
        if k != self.kernel_size or f != self.filters or self.bias.value.shape != (self.filters,):
            raise LayerError(f"inconsistent conv shapes: kernels {self.kernels.value.shape}, bias {self.bias.value.shape}")

    @property
    def in_dim(self) -> int:
        return self.kernels.value.shape[1]


@dataclass
class EmbeddingTable:
    """Lookup table of row vectors.  ``frozen_rows`` (e.g. the padding row)
    receive no parameter updates."""

    rows: Node
    trainable: bool = True
    frozen_rows: tuple[int, ...] = ()

    @property
    def vocab_size(self) -> int:
        return self.rows.value.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.value.shape[1]


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def init_lstm_params(input_dim: int, cells: int, rng: np.random.Generator) -> LstmParams:
    """Glorot-uniform input weights, per-gate orthogonal recurrent weights,
    zero bias except the forget gate at 1.0."""
    w_in = _glorot(rng, (input_dim, 4 * cells))
    w_rec = np.concatenate([_orthogonal(rng, cells) for _ in range(4)], axis=1)
    bias = np.zeros(4 * cells)
    bias[cells : 2 * cells] = 1.0
    return LstmParams(
        w_input=ad.leaf(w_in, requires_grad=True),
        w_recurrent=ad.leaf(w_rec, requires_grad=True),
        bias=ad.leaf(bias, requires_grad=True),
        cells=cells,
    )


def init_conv1d_params(kernel_size: int, in_dim: int, filters: int, rng: np.random.Generator) -> Conv1dParams:
    kernels = _glorot(rng, (kernel_size * in_dim, filters)).reshape(kernel_size, in_dim, filters)
    return Conv1dParams(
        kernels=ad.leaf(kernels, requires_grad=True),
        bias=ad.leaf(np.zeros(filters), requires_grad=True),
        kernel_size=kernel_size,
        filters=filters,
    )


def init_embedding_table(
    vocab_size: int, dim: int, rng: np.random.Generator, trainable: bool = True, pad_row: int | None = 0
) -> EmbeddingTable:
    rows = rng.uniform(-np.sqrt(3.0 / dim), np.sqrt(3.0 / dim), size=(vocab_size, dim))
    frozen: tuple[int, ...] = ()
    if pad_row is not None:
        rows[pad_row] = 0.0
        frozen = (pad_row,)
    return EmbeddingTable(rows=ad.leaf(rows, requires_grad=trainable), trainable=trainable, frozen_rows=frozen)


def init_dense_params(in_dim: int, out_dim: int, rng: np.random.Generator) -> tuple[Node, Node]:
    """Weights (in_dim, out_dim) and bias for a linearly activated layer."""
    return ad.leaf(_glorot(rng, (in_dim, out_dim)), requires_grad=True), ad.leaf(np.zeros(out_dim), requires_grad=True)


def _schedule(mask: np.ndarray):
    """Real (mask-on) positions in time-major order.

    Returns the ``(rows, times)`` index pair that gathers them from a
    ``(B, T, ...)`` array, and per timestep the slice of those positions it
    owns plus the batch rows they sit in (a full slice when every row is
    real, so dense steps need no fancy indexing).
    """
    times, rows = np.nonzero(mask.T)
    bounds = np.concatenate(([0], np.cumsum(mask.sum(axis=0))))
    batch = mask.shape[0]
    steps = []
    for t in range(mask.shape[1]):
        lo, hi = int(bounds[t]), int(bounds[t + 1])
        steps.append((slice(lo, hi), slice(None) if hi - lo == batch else rows[lo:hi]))
    return (rows, times), steps


def _recur(params: LstmParams, xw: np.ndarray, steps, order, rec_mask, batch: int, keep: bool):
    """Run the recurrence over the steps in ``order``; ``xw`` holds the input
    projection of every real position.  Masked rows keep their state and
    emit zeros.  With ``keep``, also returns the per-position activations
    BPTT needs: gates (i, f, g, o), recurrent input, previous cell, tanh(cell).
    """
    cells = params.cells
    u, bias = params.w_recurrent.value, params.bias.value
    h = np.zeros((batch, cells))
    c = np.zeros((batch, cells))
    out = np.zeros((batch, len(steps), cells))
    n = xw.shape[0]
    cache = None
    if keep:
        cache = (np.empty((n, 4 * cells)), np.empty((n, cells)), np.empty((n, cells)), np.empty((n, cells)))
    for t in order:
        seg, rows = steps[t]
        if seg.start == seg.stop:
            continue
        h_in = h[rows]
        if rec_mask is not None:
            h_in = h_in * rec_mask[rows]
        z = xw[seg] + h_in @ u
        z += bias
        act = logistic(z)
        act[:, 2 * cells : 3 * cells] = np.tanh(z[:, 2 * cells : 3 * cells])
        c_prev = c[rows]
        c_new = act[:, cells : 2 * cells] * c_prev + act[:, :cells] * act[:, 2 * cells : 3 * cells]
        tc = np.tanh(c_new)
        h_new = act[:, 3 * cells :] * tc
        if keep:
            for buf, val in zip(cache, (act, h_in, c_prev, tc)):
                buf[seg] = val
        h[rows] = h_new
        c[rows] = c_new
        out[rows, t] = h_new
    return out, cache


def _bptt(params: LstmParams, cache, steps, order, rec_mask, grad_out: np.ndarray) -> np.ndarray:
    """Backpropagate ``grad_out`` (B, T, cells) through the recurrence.
    Returns the gradient of every real position's pre-activation (N, 4*cells)."""
    gates, h_ins, c_prevs, tcs = cache
    cells = params.cells
    u_t = params.w_recurrent.value.T
    batch = grad_out.shape[0]
    dz_all = np.empty_like(gates)
    dh = np.zeros((batch, cells))
    dc = np.zeros((batch, cells))
    for t in reversed(order):
        seg, rows = steps[t]
        if seg.start == seg.stop:
            continue
        act, tc = gates[seg], tcs[seg]
        i, f = act[:, :cells], act[:, cells : 2 * cells]
        g, o = act[:, 2 * cells : 3 * cells], act[:, 3 * cells :]
        dh_t = dh[rows] + grad_out[rows, t]
        dc_t = dc[rows] + dh_t * o * (1.0 - tc * tc)
        dz = dz_all[seg]
        dz[:, :cells] = dc_t * g * i * (1.0 - i)
        dz[:, cells : 2 * cells] = dc_t * c_prevs[seg] * f * (1.0 - f)
        dz[:, 2 * cells : 3 * cells] = dc_t * i * (1.0 - g * g)
        dz[:, 3 * cells :] = dh_t * tc * o * (1.0 - o)
        dh_prev = dz @ u_t
        if rec_mask is not None:
            dh_prev *= rec_mask[rows]
        dh[rows] = dh_prev
        dc[rows] = dc_t * f
    return dz_all


def _lstm_direction(params: LstmParams, x: Node, schedule, reverse: bool, rec_mask, keep: bool) -> Node:
    """One LSTM direction as a single graph node over ``x`` (B, T, in).

    The input projection runs as one matmul over the real positions; the
    recurrence and its BPTT gradient run in numpy.  Without ``keep`` no
    activations are retained, and a backward pass recomputes them.
    """
    gather, steps = schedule
    batch = x.value.shape[0]
    order = range(len(steps) - 1, -1, -1) if reverse else range(len(steps))

    def forward(keep_cache: bool):
        x_real = x.value[gather]
        out, cache = _recur(params, x_real @ params.w_input.value, steps, order, rec_mask, batch, keep_cache)
        return out, (x_real, cache) if keep_cache else None

    out, saved = forward(keep)
    parents = (x, params.w_input, params.w_recurrent, params.bias)

    def joint_vjp(g):
        x_real, cache = saved if saved is not None else forward(True)[1]
        dz = _bptt(params, cache, steps, order, rec_mask, g)
        dx = None
        if x.requires_grad:
            dx = np.zeros(x.value.shape)
            dx[gather] = dz @ params.w_input.value.T
        return dx, x_real.T @ dz, cache[1].T @ dz, dz.sum(axis=0)

    return ad.joint_result("lstm_sequence", out, parents, joint_vjp)


def bilstm_sequence(
    fwd: LstmParams,
    bwd: LstmParams,
    x: Node,
    mask,
    recurrent_dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Node:
    """Bidirectional LSTM over ``x`` (batch, steps, in) with a boolean
    ``mask`` (batch, steps); returns (batch, steps, 2*cells) holding
    concat(h_fwd_t, h_bwd_t).

    Each direction is one graph node.  Masked positions, wherever they sit,
    produce zero vectors, leave their row's state untouched and receive no
    gradient.  When training with ``recurrent_dropout``, one mask per
    direction (forward first) is sampled and reused at every timestep.  Only
    train mode retains activations for the backward pass.
    """
    if x.value.ndim != 3:
        raise LayerError(f"bilstm_sequence: expected (batch, steps, in) input, got shape {x.value.shape}")
    batch, steps, width = x.value.shape
    if steps == 0:
        raise LayerError("bilstm_sequence: empty sequence")
    for p in (fwd, bwd):
        if width != p.input_dim:
            raise LayerError(f"bilstm_sequence: input dim {width} != {p.input_dim}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (batch, steps):
        raise LayerError(f"bilstm_sequence: mask shape {mask.shape} != {(batch, steps)}")
    train = mode == "train"
    rec_masks = [None, None]
    if train and recurrent_dropout > 0.0:
        if rng is None:
            raise LayerError("bilstm_sequence: recurrent dropout in train mode needs an rng")
        rec_masks = [dropout_mask((batch, p.cells), recurrent_dropout, rng) for p in (fwd, bwd)]
    schedule = _schedule(mask)
    out_f = _lstm_direction(fwd, x, schedule, False, rec_masks[0], train)
    out_b = _lstm_direction(bwd, x, schedule, True, rec_masks[1], train)
    return ad.concat_last([out_f, out_b])


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """(rows, steps, in) -> (rows, steps-k+1, k*in): window ``w`` holds
    positions w..w+k-1 side by side, matching the kernels' (k, in) layout."""
    n = x.shape[1] - k + 1
    return np.concatenate([x[:, j : j + n] for j in range(k)], axis=-1)


def conv1d_globalmaxpool(params: Conv1dParams, x: Node) -> Node:
    """Valid (no-pad) convolution with ReLU, then per-filter max over windows.

    ``x`` is (rows, steps, in); returns (rows, filters) as one graph node.
    Since ``relu(max z) == max(relu z)``, the forward takes the first argmax
    of the pre-activations and rectifies after; the gradient reaches only
    that window, and only where its pre-activation is positive.  The caller
    guarantees ``steps >= kernel_size`` by pre-padding character sequences.
    """
    if x.value.ndim != 3:
        raise LayerError(f"conv1d_globalmaxpool: expected (rows, steps, in) input, got shape {x.value.shape}")
    rows, steps, width = x.value.shape
    k, filters = params.kernel_size, params.filters
    if steps < k:
        raise LayerError(f"conv1d_globalmaxpool: sequence length {steps} < kernel size {k}")
    if width != params.in_dim:
        raise LayerError(f"conv1d_globalmaxpool: input dim {width} != {params.in_dim}")
    n = steps - k + 1
    w_flat = params.kernels.value.reshape(k * width, filters)
    z = (_windows(x.value, k).reshape(rows * n, k * width) @ w_flat + params.bias.value).reshape(rows, n, filters)
    best = z.argmax(axis=1)[:, None, :]
    top = np.take_along_axis(z, best, axis=1)[:, 0]
    live = top > 0

    def joint_vjp(g):
        dz = np.zeros((rows, n, filters))
        np.put_along_axis(dz, best, (g * live)[:, None, :], axis=1)
        dz = dz.reshape(rows * n, filters)
        cols = _windows(x.value, k).reshape(rows * n, k * width)
        dx = None
        if x.requires_grad:
            dcols = (dz @ w_flat.T).reshape(rows, n, k * width)
            dx = np.zeros(x.value.shape)
            for j in range(k):
                dx[:, j : j + n] += dcols[..., j * width : (j + 1) * width]
        return dx, (cols.T @ dz).reshape(k, width, filters), dz.sum(axis=0)

    parents = (x, params.kernels, params.bias)
    return ad.joint_result("conv1d_globalmaxpool", np.where(live, top, 0.0), parents, joint_vjp)


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """Sample an inverted-dropout mask: kept entries carry 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise LayerError(f"dropout: rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def embed_lookup(table: EmbeddingTable, indices) -> Node:
    """Look up table rows; gradient w.r.t. a row sums over its occurrences."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.vocab_size):
        bad = int(idx.flat[np.argmax((idx < 0) | (idx >= table.vocab_size))])
        raise IndexError(f"embed_lookup: index {bad} out of range [0, {table.vocab_size})")
    return ad.gather_rows(table.rows, idx.reshape(-1))
