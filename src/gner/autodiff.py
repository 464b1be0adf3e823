"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The graph is built define-by-run: every operation returns a fresh ``Node``
holding the forward value plus the vector-Jacobian products needed to
propagate gradients back to its parents.  Graphs are rebuilt per step and are
confined to a single thread; there is no global tape, so independent graphs
on different threads never interact.

Supported shapes are deliberately narrow: row-major dense arrays, no
broadcasting except adding a bias vector along the last axis.  Ops with a
kink (the char CNN's rectifier and max-pool) live in fused nodes built with
:func:`joint_result`; the core itself only holds smooth ops, and
:func:`check_gradient` skips samples whose one-sided slopes disagree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "Node",
    "leaf",
    "constant",
    "add",
    "matmul",
    "mul",
    "concat_last",
    "logistic",
    "sigmoid",
    "tanh",
    "slice_",
    "sum_all",
    "stack",
    "gather_rows",
    "reshape",
    "joint_result",
    "backward",
    "check_gradient",
]


class AutodiffError(Exception):
    """Base error for graph construction and differentiation failures."""


class ShapeError(AutodiffError):
    """Operand shapes do not conform to an operator's shape rule."""


VJP = Callable[[np.ndarray], np.ndarray]


class Node:
    """One value in the computation graph.

    ``value`` is a float64 ndarray, ``grad`` is populated by
    :func:`backward` (same shape as ``value``), ``parents``/``vjps`` hold the
    backward edges.
    """

    __slots__ = ("value", "grad", "requires_grad", "op", "parents", "vjps")

    def __init__(
        self,
        value: np.ndarray,
        *,
        requires_grad: bool = False,
        op: str = "leaf",
        parents: tuple["Node", ...] = (),
        vjps: tuple[VJP, ...] = (),
    ):
        value = np.asarray(value, dtype=np.float64)
        if len(parents) != len(vjps):
            raise AutodiffError(f"{op}: {len(parents)} parents but {len(vjps)} vjps")
        self.value = value
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self.vjps = vjps

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def leaf(value, requires_grad: bool = False) -> Node:
    """Create a graph input holding ``value``."""
    return Node(np.array(value, dtype=np.float64), requires_grad=requires_grad)


def constant(value) -> Node:
    """Create a non-trainable graph input."""
    return leaf(value, requires_grad=False)


def _result(op: str, value: np.ndarray, parents: Sequence[Node], vjps: Sequence[VJP]) -> Node:
    return Node(
        value,
        requires_grad=any(p.requires_grad for p in parents),
        op=op,
        parents=tuple(parents),
        vjps=tuple(vjps),
    )


def _shape_of(x: Node) -> str:
    return str(tuple(x.value.shape))


# ---------------------------------------------------------------------------
# operators


def add(a: Node, b: Node) -> Node:
    """Elementwise add; also accepts a 1-D bias broadcast along the last axis."""
    if a.value.shape == b.value.shape:
        return _result("add", a.value + b.value, (a, b), (lambda g: g, lambda g: g))
    if b.value.ndim == 1 and a.value.ndim >= 2 and a.value.shape[-1] == b.value.shape[0]:
        axes = tuple(range(a.value.ndim - 1))
        return _result("add", a.value + b.value, (a, b), (lambda g: g, lambda g: g.sum(axis=axes)))
    raise ShapeError(f"add: expected equal shapes or trailing bias vector, got {_shape_of(a)} and {_shape_of(b)}")


def matmul(a: Node, b: Node) -> Node:
    """Matrix/vector product for (n,m)@(m,k), (m,)@(m,k) and (n,m)@(m,).)"""
    av, bv = a.value, b.value
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul: expected inner dims to agree, got {_shape_of(a)} @ {_shape_of(b)}")
        return _result("matmul", av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))
    if av.ndim == 1 and bv.ndim == 2:
        if av.shape[0] != bv.shape[0]:
            raise ShapeError(f"matmul: expected inner dims to agree, got {_shape_of(a)} @ {_shape_of(b)}")
        return _result("matmul", av @ bv, (a, b), (lambda g: bv @ g, lambda g: np.outer(av, g)))
    if av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul: expected inner dims to agree, got {_shape_of(a)} @ {_shape_of(b)}")
        return _result("matmul", av @ bv, (a, b), (lambda g: np.outer(g, bv), lambda g: av.T @ g))
    raise ShapeError(f"matmul: expected 1-D/2-D operands, got {_shape_of(a)} @ {_shape_of(b)}")


def mul(a: Node, b: Node) -> Node:
    """Elementwise product of equal shapes."""
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul_elementwise: expected equal shapes, got {_shape_of(a)} and {_shape_of(b)}")
    av, bv = a.value, b.value
    return _result("mul_elementwise", av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def concat_last(nodes: Sequence[Node]) -> Node:
    """Concatenate along the last axis; all other axes must agree."""
    nodes = list(nodes)
    if not nodes:
        raise ShapeError("concat_last_axis: expected at least one input, got 0")
    lead = nodes[0].value.shape[:-1]
    for n in nodes[1:]:
        if n.value.ndim != nodes[0].value.ndim or n.value.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last_axis: expected leading dims {lead}, got {_shape_of(n)}"
            )
    value = np.concatenate([n.value for n in nodes], axis=-1)
    vjps = []
    offset = 0
    for n in nodes:
        width = n.value.shape[-1]
        lo, hi = offset, offset + width
        vjps.append(lambda g, lo=lo, hi=hi: g[..., lo:hi])
        offset = hi
    return _result("concat_last_axis", value, nodes, vjps)


def logistic(x: np.ndarray) -> np.ndarray:
    """Overflow-free sigmoid: ``1/(1+e^-x)`` for x >= 0, ``e^x/(1+e^x)`` below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Node) -> Node:
    out = logistic(a.value)
    return _result("sigmoid", out, (a,), (lambda g: g * out * (1.0 - out),))


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)
    return _result("tanh", out, (a,), (lambda g: g * (1.0 - out * out),))


def slice_(a: Node, key) -> Node:
    """Basic (non-fancy) indexing; gradients scatter back into place."""
    try:
        value = a.value[key]
    except (IndexError, TypeError) as exc:
        raise ShapeError(f"slice: invalid key {key!r} for shape {_shape_of(a)}: {exc}") from exc
    value = np.array(value, dtype=np.float64)
    shape = a.value.shape

    def vjp(g):
        z = np.zeros(shape)
        z[key] = g
        return z

    return _result("slice", value, (a,), (vjp,))


def sum_all(a: Node) -> Node:
    """Sum all elements to a scalar-shaped node."""
    shape = a.value.shape
    return _result("sum", np.asarray(a.value.sum()), (a,), (lambda g: np.full(shape, float(g)),))


def stack(nodes: Sequence[Node], axis: int = 0) -> Node:
    """Stack equal-shaped nodes along a new axis."""
    nodes = list(nodes)
    if not nodes:
        raise ShapeError("stack: expected at least one input, got 0")
    base = nodes[0].value.shape
    for n in nodes[1:]:
        if n.value.shape != base:
            raise ShapeError(f"stack: expected shape {base}, got {_shape_of(n)}")
    value = np.stack([n.value for n in nodes], axis=axis)
    vjps = [lambda g, i=i: np.take(g, i, axis=axis) for i in range(len(nodes))]
    return _result("stack", value, nodes, vjps)


def gather_rows(a: Node, indices) -> Node:
    """Select rows of a 2-D node; repeated rows accumulate gradient."""
    if a.value.ndim != 2:
        raise ShapeError(f"gather_rows: expected a 2-D operand, got {_shape_of(a)}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: expected 1-D indices, got shape {tuple(idx.shape)}")
    n_rows = a.value.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        bad = int(idx[(idx < 0) | (idx >= n_rows)][0])
        raise IndexError(f"gather_rows: index {bad} out of range [0, {n_rows})")
    shape = a.value.shape

    def vjp(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return z

    return _result("gather_rows", a.value[idx], (a,), (vjp,))


def reshape(a: Node, shape: tuple[int, ...]) -> Node:
    if np.prod(shape, dtype=np.int64) != a.value.size:
        raise ShapeError(f"reshape: cannot view {_shape_of(a)} as {tuple(shape)}")
    old = a.value.shape
    return _result("reshape", a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


def joint_result(op: str, value: np.ndarray, parents: Sequence[Node], joint_vjp: Callable[[np.ndarray], Sequence]) -> Node:
    """A node whose parents' gradients come from one computation.

    ``joint_vjp(g)`` returns one gradient per parent; the entry of a parent
    that does not require grad is never read and may be ``None``.  It runs
    once per upstream gradient ``g``, however many parents ask for theirs.
    """
    memo: list = [None, None]

    def pick(i: int) -> VJP:
        def vjp(g):
            if memo[0] is not g:
                memo[0], memo[1] = g, joint_vjp(g)
            return memo[1][i]

        return vjp

    return _result(op, value, parents, [pick(i) for i in range(len(parents))])


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Node) -> list[Node]:
    # Iterative DFS: graphs from long sequences overflow Python's recursion limit.
    order: list[Node] = []
    seen: set[int] = set()
    work: list[tuple[Node, bool]] = [(root, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        work.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                work.append((p, False))
    return order


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Propagate gradients of a scalar-shaped ``root`` to every ancestor.

    Returns a map from node to its gradient; gradients sum over all uses of
    a node.  Each node's ``grad`` attribute is also populated.
    """
    if root.value.shape not in ((), (1,)):
        raise AutodiffError(f"backward: root must be scalar-shaped, got {tuple(root.value.shape)}")
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.value)}
    result: dict[Node, np.ndarray] = {}
    for node in reversed(_topo_order(root)):
        g = grads.get(id(node))
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g
            result[node] = g
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
    return result


# ---------------------------------------------------------------------------
# gradient checking


# A sample counts as taken at a kink when its one-sided slopes differ by more
# than this share of the larger one.
SLOPE_RTOL = 1e-3


def check_gradient(
    loss_fn: Callable[[], Node],
    params: Iterable[Node],
    eps: float = 1e-5,
    samples: int = 50,
    rng: np.random.Generator | None = None,
    return_stats: bool = False,
):
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must rebuild the graph from the current parameter values and
    be deterministic (dropout off, seeds fixed).  For ``samples`` randomly
    chosen scalar parameters, returns the maximum of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.

    A sample whose forward slope ``(f(θ+ε) - f(θ))/ε`` and backward slope
    ``(f(θ) - f(θ-ε))/ε`` differ by more than ``SLOPE_RTOL`` of the larger
    one straddles a kink (a rectifier's zero, a max tie); it is skipped and
    another is drawn.  Raises :class:`AutodiffError` if no sample could be
    checked.
    """
    if eps <= 0:
        raise AutodiffError("check_gradient: eps must be positive")
    params = list(params)
    if not params:
        raise AutodiffError("check_gradient: no parameters to check")
    rng = rng if rng is not None else np.random.default_rng(0)

    root = loss_fn()
    if not np.isfinite(root.value).all():
        raise AutodiffError("check_gradient: non-finite loss")
    mid = float(root.value)
    grads = backward(root)
    analytic = [grads.get(p, np.zeros_like(p.value)) for p in params]

    candidates = [(pi, fi) for pi, p in enumerate(params) for fi in range(p.value.size)]
    order = rng.permutation(len(candidates))

    max_rel = 0.0
    checked = 0
    skipped = 0
    for pos in order:
        if checked >= samples:
            break
        pi, fi = candidates[pos]
        p = params[pi]
        orig = p.value.flat[fi]

        p.value.flat[fi] = orig + eps
        hi = loss_fn()
        p.value.flat[fi] = orig - eps
        lo = loss_fn()
        p.value.flat[fi] = orig

        if not (np.isfinite(hi.value).all() and np.isfinite(lo.value).all()):
            raise AutodiffError("check_gradient: non-finite loss under perturbation")
        up = (float(hi.value) - mid) / eps
        down = (mid - float(lo.value)) / eps
        if abs(up - down) > SLOPE_RTOL * max(abs(up), abs(down), 1e-8):
            skipped += 1
            continue

        numeric = (float(hi.value) - float(lo.value)) / (2.0 * eps)
        a = float(analytic[pi].flat[fi])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
        checked += 1

    if not checked:
        raise AutodiffError(f"check_gradient: every one of {skipped} samples straddles a kink")
    if return_stats:
        return max_rel, {"checked": checked, "skipped": skipped}
    return max_rel
