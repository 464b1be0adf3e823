"""The model's parameterized layers, each a forward and a backward function
over plain arrays.

Every layer runs in its weights' dtype, float32 for a built or loaded
model.  The BiLSTM and the char CNN raise :class:`LayerError` on an input
of another dtype, and every backward on a gradient of another, so nothing
upcasts without notice.

A sequence batch is described by each row's length, and
:func:`length_schedule` is the one place that checks the lengths and
orders the rows by them.  The BiLSTM has one input layout, a ``(rows,
dim)`` table plus a ``(batch, steps)`` index into it, and one output
layout, packed rows: one per real position, in the schedule's order, with
each one's (row, step) to place it, so it holds no padded activation.  It
runs both directions in one call on that order, and in train mode masks
the rows it gathers under input dropout, so one masked copy of them
exists.  Its backward takes its gradient in the same packed rows and is a
hand-written BPTT over what the train-mode forward keeps per position and
direction: the gates, the recurrent input and the previous cell.
tanh(cell) is recomputed from them, and each step's gate gradient is
written over its gates, so a backward uses its cache up.  The char CNN
reads a post-padded ``(rows, steps, dim)`` array, forms only the windows
that start inside each row, packed row after row, and max-pools each
row's segment; its backward routes the gradient to each filter's winning
window.
An eval-mode forward keeps nothing for a backward pass.  A layer's
parameter record holds only its arrays, and its sizes are read from their
shapes; the character table is a bare ``(vocab, dim)`` array.
Nothing here draws initial values: :func:`gner.model.build_model` does, by
parameter name.  Parameters are immutable during inference and mutated in
place only by the training loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LayerError",
    "length_schedule",
    "LstmParams",
    "Conv1dParams",
    "bilstm_sequence",
    "bilstm_backward",
    "conv1d_globalmaxpool",
    "conv1d_backward",
    "dropout_mask",
    "embed_lookup",
    "embed_backward",
]


class LayerError(Exception):
    pass


@dataclass
class LstmParams:
    """Fused LSTM weights: ``w_input`` is (input_dim, 4*cells), ``w_recurrent``
    is (cells, 4*cells), ``bias`` is (4*cells,).  The gate blocks are, in
    order: input gate, forget gate, cell candidate, output gate."""

    w_input: np.ndarray
    w_recurrent: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        n = self.cells
        if self.w_input.shape[1:] != (4 * n,) or self.w_recurrent.shape != (n, 4 * n) or self.bias.shape != (4 * n,):
            raise LayerError(
                f"inconsistent LSTM shapes: {self.w_input.shape}, {self.w_recurrent.shape}, {self.bias.shape}"
            )

    @property
    def cells(self) -> int:
        return self.w_recurrent.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_input.shape[0]


@dataclass
class Conv1dParams:
    """1-D convolution kernels (kernel_size, in_dim, filters) plus bias."""

    kernels: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.kernels.ndim != 3 or self.bias.shape != (self.filters,):
            raise LayerError(f"inconsistent conv shapes: kernels {self.kernels.shape}, bias {self.bias.shape}")

    @property
    def kernel_size(self) -> int:
        return self.kernels.shape[0]

    @property
    def in_dim(self) -> int:
        return self.kernels.shape[1]

    @property
    def filters(self) -> int:
        return self.kernels.shape[-1]


def logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-free sigmoid in ``x``'s dtype, as ``0.5*tanh(0.5*x) + 0.5``:
    one transcendental ufunc, within 4.5e-16 absolute of ``1/(1+e^-x)`` in
    float64, and exactly 0 or 1 far out in the tails.  Written into ``out``
    when given."""
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def length_schedule(lengths, batch: int, steps: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Checked per-row ``lengths`` of a ``(batch, steps)`` layout whose rows
    each hold their entries at steps ``0 .. lengths[b] - 1``; the rows by
    descending length (ties keep batch order); and per step how many rows
    are still running.  Those are always a leading run of that order, as in
    a packed sequence, so a recurrence holds its state in that order and
    updates a leading slice of it at every step."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,) or batch and not 1 <= lengths.min() <= lengths.max() <= steps:
        raise LayerError(f"lengths {lengths.tolist()} must give each of {batch} rows 1 to {steps} steps")
    order = np.argsort(-lengths, kind="stable")
    return lengths, order, (lengths[order] > np.arange(steps)[:, None]).sum(axis=1).tolist()


def _recur(params: LstmParams, xw: np.ndarray, steps, times, rec_mask, out: np.ndarray, batch: int, keep: bool):
    """Run the recurrence over ``times``; ``xw`` holds the input projection
    of every real position in the schedule's packed order, and ``out``
    (N, cells), this direction's half of the packed output, takes each
    position's output in that order.  The state is held in the schedule's
    row order (``rec_mask`` too) and each step updates the rows still
    running, a leading slice of it, in place: the gate arithmetic writes
    into buffers made once per call.  With ``keep``, returns what BPTT
    cannot recompute, per position: the gates (i, f, g, o), the recurrent
    input and the previous cell, so ``6 * cells`` values.
    """
    cells = params.cells
    u, bias = params.w_recurrent, params.bias
    n, dtype = xw.shape[0], out.dtype
    h, c, h_masked, i_g, tanh_c = (np.zeros((batch, cells), dtype=dtype) for _ in range(5))
    z, act = np.empty((batch, 4 * cells), dtype=dtype), np.empty((batch, 4 * cells), dtype=dtype)
    cache = None
    if keep:
        cache = tuple(np.empty((n, width), dtype=dtype) for width in (4 * cells, cells, cells))
    for t in times:
        seg, running = steps[t]
        h_in = h[:running]
        if rec_mask is not None:
            h_in = np.multiply(h_in, rec_mask[:running], out=h_masked[:running])
        z_t, a = z[:running], act[:running]
        np.matmul(h_in, u, out=z_t)
        z_t += xw[seg]
        z_t += bias
        # One logistic over all four gate blocks: splitting the candidate
        # block out (two logistic calls on slices) measured -10.8% tokens/s on
        # serve-oov (2 vCPUs), where ufunc calls dominate small batches.
        logistic(z_t, out=a)
        np.tanh(z_t[:, 2 * cells : 3 * cells], out=a[:, 2 * cells : 3 * cells])
        c_t = c[:running]
        if keep:
            for buf, val in zip(cache, (a, h_in, c_t)):
                buf[seg] = val
        # c = f * c + i * g, then h = o * tanh(c).
        np.multiply(a[:, :cells], a[:, 2 * cells : 3 * cells], out=i_g[:running])
        c_t *= a[:, cells : 2 * cells]
        c_t += i_g[:running]
        tc = np.tanh(c_t, out=tanh_c[:running])
        np.multiply(a[:, 3 * cells :], tc, out=out[seg])
        h[:running] = out[seg]
    return cache


def _bptt(params: LstmParams, kept, steps, times, rec_mask, grad_real: np.ndarray, batch: int) -> np.ndarray:
    """Backpropagate ``grad_real`` (N, cells), the output gradient of every
    real position, through the recurrence, given what :func:`_recur` kept.
    tanh(cell) is recomputed from the kept gates and previous cell with the
    operations :func:`_recur` ran, so it is the same bits.  Each step writes
    its pre-activation gradient over its own gates once it has read them,
    so the gates come back as the gradient of every real position's
    pre-activation (N, 4*cells) and ``kept`` is used up."""
    gates, _, c_prevs = kept
    cells = params.cells
    u = params.w_recurrent
    dh = np.zeros((batch, cells), dtype=gates.dtype)
    dc = np.zeros((batch, cells), dtype=gates.dtype)
    for t in reversed(times):
        seg, running = steps[t]
        act, c_prev = gates[seg], c_prevs[seg]
        i, f = act[:, :cells], act[:, cells : 2 * cells]
        g, o = act[:, 2 * cells : 3 * cells], act[:, 3 * cells :]
        tc = np.tanh(c_prev * f + i * g)
        dh_t = dh[:running] + grad_real[seg]
        dc_t = dc[:running] + dh_t * o * (1.0 - tc * tc)
        dz_i, dz_g = dc_t * g * i * (1.0 - i), dc_t * i * (1.0 - g * g)
        dz_f = dc_t * c_prev * f * (1.0 - f)
        dc[:running] = dc_t * f
        act[:, 3 * cells :] = dh_t * tc * o * (1.0 - o)
        act[:, :cells], act[:, cells : 2 * cells], act[:, 2 * cells : 3 * cells] = dz_i, dz_f, dz_g
        # act @ u.T would multiply by a transposed view of u.  This product
        # gave the same bits at 1 to 256 rows on OpenBLAS, and on a layout
        # it runs faster: 61-113 against 121-181 us at 8-32 rows of 200 cells.
        dh_prev = (u @ act.T).T
        if rec_mask is not None:
            dh_prev *= rec_mask[:running]
        dh[:running] = dh_prev
    return gates


def bilstm_sequence(
    fwd: LstmParams,
    bwd: LstmParams,
    x: np.ndarray,
    index,
    lengths,
    dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    projected: bool = False,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], list | None]:
    """Bidirectional LSTM over a batch whose row ``b`` holds its sequence at
    steps ``0 .. lengths[b] - 1``: step ``t`` of row ``b`` reads row
    ``index[b, t]`` of the (rows, in) table ``x``, so that positions sharing
    an input row share a table row.  ``index`` is (batch, steps) and read
    only at real positions.  A ``projected`` table, eval mode only, holds
    each row's gate inputs instead: ``row @ fwd.w_input`` beside
    ``row @ bwd.w_input``, so ``4 * (fwd.cells + bwd.cells)`` wide.

    Returns three things.  The packed output ``(positions, 2*cells)`` holds
    concat(h_fwd_t, h_bwd_t) for each real position and nothing else, in
    the :func:`length_schedule` order: step after step, and within a step
    the running rows by descending length.  ``place`` is each packed row's
    (row, step), two int arrays, so ``padded[place] = out`` places them.
    The cache :func:`bilstm_backward` reads, and uses up, is kept in train
    mode only (None in eval mode).

    Each direction's input projection is one matmul over the real
    positions' rows, gathered once into that order, on which the recurrence
    runs in numpy; the backward direction starts each row at its last real
    step, and each direction writes its half of the packed output in place.
    When training with ``dropout``, one mask per batch row over the input
    columns multiplies each row it gathers, and one mask per direction
    (forward first) the recurrent input, each reused at every timestep;
    the input mask is drawn first.
    """
    index = np.asarray(index)
    if x.ndim != 2 or index.ndim != 2:
        raise LayerError(
            f"bilstm_sequence: expected a (rows, in) table and a (batch, steps) index, got shapes "
            f"{x.shape} and {index.shape}")
    (batch, length), width = index.shape, x.shape[1]
    train = mode == "train"
    gates = 4 * fwd.cells
    if projected and (train or width != gates + 4 * bwd.cells):
        raise LayerError(f"bilstm_sequence: a projected input is an eval-mode ({gates + 4 * bwd.cells})-wide "
                         f"table, got shape {x.shape}, mode {mode!r}")
    for p in (fwd, bwd):
        if not projected and width != p.input_dim:
            raise LayerError(f"bilstm_sequence: input dim {width} != {p.input_dim}")
        if x.dtype != p.w_input.dtype:
            raise LayerError(f"bilstm_sequence: {x.dtype} input, {p.w_input.dtype} weights")
    _, order, running = length_schedule(lengths, batch, length)
    in_mask, rec_masks = None, [None, None]
    if train and dropout > 0.0:
        if rng is None:
            raise LayerError("bilstm_sequence: dropout in train mode needs an rng")
        # Drawn in batch order; the recurrent masks are held in the schedule's row order.
        in_mask = dropout_mask((batch, width), dropout, rng, x.dtype)
        rec_masks = [dropout_mask((batch, p.cells), dropout, rng, x.dtype)[order] for p in (fwd, bwd)]
    bounds = np.cumsum([0, *running])
    steps = [(slice(bounds[t], bounds[t + 1]), n) for t, n in enumerate(running)]
    place = (np.concatenate([order[:n] for n in running]), np.repeat(np.arange(length), running))
    # Each real position's table row, in the schedule's packed order.
    pos = index[place].astype(np.int64, copy=False)
    if pos.size and (pos.min() < 0 or pos.max() >= len(x)):
        raise LayerError(f"bilstm_sequence: index outside the table's {len(x)} rows")
    directions = (
        (fwd, range(length), rec_masks[0], slice(0, fwd.cells)),
        (bwd, range(length - 1, -1, -1), rec_masks[1], slice(fwd.cells, fwd.cells + bwd.cells)),
    )
    x_real = None if projected else x[pos]
    if in_mask is not None:
        for seg, n in steps:
            x_real[seg] *= in_mask[order[:n]]
    out = np.empty((len(pos), fwd.cells + bwd.cells), dtype=x.dtype)

    def gate_inputs(p: LstmParams, cols: slice) -> np.ndarray:
        return x[pos, cols] if projected else x_real @ p.w_input

    acts = [_recur(p, gate_inputs(p, cols), steps, times, rec, out[:, half], batch, train)
            for (p, times, rec, half), cols in zip(directions, (slice(0, gates), slice(gates, None)))]
    if not train:
        return out, place, None
    return out, place, [len(x), order, place, pos, steps, directions, x_real, in_mask, acts]


def bilstm_backward(cache: list, grad: np.ndarray, input_from: int | None = 0):
    """Gradients of a train-mode :func:`bilstm_sequence` call, given
    ``grad``, the gradient of its packed output, in the same packed rows.

    Returns the gradient of the input table's columns from ``input_from``
    on (None if ``input_from`` is None), one row per table row, and,
    forward direction first, the gradients of each direction's
    ``(w_input, w_recurrent, bias)``.  A table row's gradient sums over the
    positions that read it, each times its row's input-dropout mask, in
    row-major (batch, step) order, and is zero for a row no position reads.

    The call uses the cache up: BPTT writes each position's pre-activation
    gradient over its gates and the cache lets each array go once read, so
    a second call on it raises :class:`LayerError`.
    """
    if not cache:
        raise LayerError("bilstm_backward: this cache was used up by an earlier backward; run the forward again")
    rows, order, place, pos, steps, directions, x_real, in_mask, acts = cache
    if grad.dtype != x_real.dtype:
        raise LayerError(f"bilstm_backward: {grad.dtype} gradient, {x_real.dtype} weights")
    cache.clear()
    d_real = None if input_from is None else np.zeros_like(x_real[:, input_from:])
    params = []
    for p, times, rec, half in directions:
        kept = acts.pop(0)
        dz = _bptt(p, kept, steps, times, rec, grad[:, half], len(order))
        if d_real is not None:
            d_real += dz @ p.w_input[input_from:].T
        params.append((x_real.T @ dz, kept[1].T @ dz, dz.sum(axis=0)))
        del kept, dz  # before the next direction's BPTT
    if d_real is None:
        return None, params
    if in_mask is not None:
        for seg, n in steps:
            d_real[seg] *= in_mask[order[:n], input_from:]
    dx = np.zeros((rows, d_real.shape[1]), dtype=x_real.dtype)
    first = np.lexsort(place[::-1])  # row-major order
    _add_rows(dx, pos[first], d_real[first])
    return dx, params


def _add_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray):
    """``out[index[k]] += values[k]`` for each ``k`` in turn, so a row's sum
    adds its values in their order.  One ``np.add.at`` over single
    elements, which runs about four times faster than over whole rows."""
    width = out.shape[1]
    flat = (index[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(out.reshape(-1), flat, values.reshape(-1))


def conv1d_globalmaxpool(params: Conv1dParams, x: np.ndarray, lengths, mode: str = "eval"):
    """Convolution with ReLU, then per-filter max over windows.

    ``x`` is (rows, steps, in); returns the (rows, filters) features and the
    cache :func:`conv1d_backward` reads, which only train mode keeps (None
    in eval mode).  Row ``r`` pools only the windows that start before
    position ``lengths[r]`` (1 <= lengths[r] <= steps), so whatever follows
    a row's content beyond its last window cannot win the max.  A window
    that runs past the last step reads zeros there.

    Only those live windows are formed, packed row after row into one
    ``(windows, k*in)`` matrix that goes through one matmul, and each row's
    segment is max-pooled.  Since ``relu(max z) == max(relu z)``, the
    forward rectifies after the max.  Train mode also keeps each filter's
    first winning window.
    """
    if x.ndim != 3:
        raise LayerError(f"conv1d_globalmaxpool: expected (rows, steps, in) input, got shape {x.shape}")
    rows, steps, width = x.shape
    k, filters = params.kernel_size, params.filters
    if width != params.in_dim:
        raise LayerError(f"conv1d_globalmaxpool: input dim {width} != {params.in_dim}")
    if x.dtype != params.kernels.dtype:
        raise LayerError(f"conv1d_globalmaxpool: {x.dtype} input, {params.kernels.dtype} kernels")
    lengths, _, _ = length_schedule(lengths, rows, steps)
    # Each row followed by k - 1 zero steps, flattened: window (r, w) is the
    # k consecutive positions from r * wide + w.
    wide = steps + k - 1
    padded = np.zeros((rows, wide, width), dtype=x.dtype)
    padded[:, :steps] = x
    starts = np.cumsum(lengths) - lengths  # each row's first packed window
    n = int(lengths.sum())
    base = np.arange(n) + np.repeat(np.arange(rows) * wide - starts, lengths)
    cols = np.take(padded.reshape(rows * wide, width), base[:, None] + np.arange(k), axis=0).reshape(n, k * width)
    z = cols @ params.kernels.reshape(k * width, filters) + params.bias
    top = np.maximum.reduceat(z, starts, axis=0)
    live = top > 0
    out = np.where(live, top, 0.0)
    if mode != "train":
        return out, None
    # The first window in each row's segment that reaches its maximum.
    best = np.minimum.reduceat(np.where(z == np.repeat(top, lengths, axis=0), np.arange(n)[:, None], n),
                               starts, axis=0)
    return out, (params, x.shape, base, cols, best, live)


def conv1d_backward(cache: tuple, grad: np.ndarray):
    """Gradients of a train-mode :func:`conv1d_globalmaxpool` call, given
    ``grad``, the gradient of its (rows, filters) output: those of the
    input, the kernels and the bias.  Each filter's gradient reaches only
    its winning window, and only where that window's pre-activation is
    positive; the input's gradient then folds back onto each of the
    window's k positions in turn."""
    params, shape, base, cols, best, live = cache
    rows, steps, width = shape
    k, filters = params.kernel_size, params.filters
    if grad.dtype != params.kernels.dtype:
        raise LayerError(f"conv1d_backward: {grad.dtype} gradient, {params.kernels.dtype} kernels")
    dz = np.zeros((len(cols), filters), dtype=cols.dtype)
    dz[best, np.arange(filters)] = grad * live
    dcols = (dz @ params.kernels.reshape(k * width, filters).T).reshape(len(cols), k, width)
    dx = np.zeros((rows * (steps + k - 1), width), dtype=cols.dtype)
    for j in range(k):
        dx[base + j] += dcols[:, j]  # a row's windows start at distinct positions
    dx = dx.reshape(rows, steps + k - 1, width)[:, :steps]
    return dx, (cols.T @ dz).reshape(k, width, filters), dz.sum(axis=0)


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator, dtype: np.dtype | type) -> np.ndarray:
    """Sample an inverted-dropout mask in ``dtype``: kept entries carry
    1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise LayerError(f"dropout: rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return (keep / (1.0 - rate)).astype(dtype, copy=False)


def embed_lookup(table: np.ndarray, indices) -> np.ndarray:
    """Rows of the (vocab, dim) ``table`` for an index array of any shape:
    ``indices.shape + (dim,)``."""
    idx = np.asarray(indices, dtype=np.int64)
    vocab = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        bad = int(idx.flat[np.argmax((idx < 0) | (idx >= vocab))])
        raise IndexError(f"embed_lookup: index {bad} out of range [0, {vocab})")
    return table[idx]


def embed_backward(table: np.ndarray, indices, grad: np.ndarray) -> np.ndarray:
    """Gradient of the table's rows, given ``grad``, the gradient of an
    :func:`embed_lookup` output: a row's gradient sums over its
    occurrences."""
    if grad.dtype != table.dtype:
        raise LayerError(f"embed_backward: {grad.dtype} gradient, {table.dtype} table")
    d_rows = np.zeros(table.shape, dtype=table.dtype)
    _add_rows(d_rows, np.asarray(indices, dtype=np.int64).reshape(-1), grad.reshape(-1, table.shape[1]))
    return d_rows
