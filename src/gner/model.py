"""Full network assembly for the five character-embedding variants, plus
model serialization.

The per-token input is the concatenation of a fixed word vector, the casing
one-hot and (except for the ``none`` variant) a learned character feature:
a single CNN over the decorated character window, three parallel CNNs, or a
one/two-layer BiLSTM over the raw character sequence.  A token-level BiLSTM,
a linearly activated dense layer and a linear-chain CRF sit on top.

A batch flows through as whole arrays: each BiLSTM and each char conv is
one call.  Every sequence is described by its length: the token BiLSTM runs
over each sentence's tokens, and the char submodel over each real token's
characters, so a sentence's emissions do not depend on the other sentences
in its batch.  Every BiLSTM reads a table of input rows through an index
and writes packed rows, one per real position, so no BiLSTM output or
gradient is padded: the dense layer is a single matmul over the token
BiLSTM's packed rows, placed into the ``(batch, max_len, labels)``
emissions, and a char BiLSTM's feature reads two packed rows per key.  The
CRF decodes each group of sentences in one batched Viterbi pass, so one
path serves a single sentence and a batch.

Training runs :func:`forward_emissions` in train mode, which also returns
the cache that :func:`backward` reads, once: the BiLSTMs' backward uses
their caches up.  That reverse sweep takes the CRF's gradients and goes
back through the layers in the fixed reverse order: dense, token BiLSTM
(with its input dropout and key gather), char submodel, char embedding.

Word vectors come from an external store and are never trained.  A batch's
input is built once per token key (the text, plus in ``cnn`` char mode
whether it opens or closes its sentence): one ``(keys, input_width)`` table
of word vector, casing one-hot and character feature.  The word vector and
casing depend on the text alone, so each is built once per distinct text
and copied to its keys; the keys' character rows are built together
(:func:`~gner.corpus.build_char_rows`), and the char CNN computes only the
windows that start inside each row.  No padded ``(batch, max_len,
input_width)`` input exists.  In eval mode the table holds each key's gate
inputs, its row projected by both directions, and the token BiLSTM reads
it through ``token_keys``; a :class:`RowCache` carries the rows across
batches, and only the keys it does not hold (every key, without one) are
built and projected.  In training the token BiLSTM reads the table of
input rows through ``token_keys`` and gathers one row per real position,
masked by its sentence's input-dropout mask, and a key's character
gradient sums over the positions that share it; the char submodel runs
the keys' rows sorted.

The architecture is written down once, in :func:`_assemble`, which asks
for each parameter array by name and shape: :func:`build_model` draws new
ones by name, :func:`load_model` reads a saved file's blocks.

A model trains and infers in the one dtype its parameters share.
:func:`build_model` rounds its draws to float32; :func:`save_model` stores
float32 blocks, and :func:`load_model` returns them as they are, so a
float32 model round-trips bit-equal.  The CRF scores in float64, and
:func:`backward` casts its gradients to the parameters' dtype once.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (CASING_FEATURE_NAMES, PAD_INDEX, Batch, CharVocab, LabelSchema, Sentence, Token,
                     batch_from_sentences, casing_features)
from .crf import CrfParams, viterbi_decode
from .embeddings import EmbeddingStore, atomic_write, lookup_word
from .layers import (
    Conv1dParams,
    LstmParams,
    bilstm_backward,
    bilstm_sequence,
    conv1d_backward,
    conv1d_globalmaxpool,
    embed_backward,
    embed_lookup,
)

__all__ = [
    "ModelError",
    "ModelFormatError",
    "CHAR_VARIANTS",
    "ModelConfig",
    "NerModel",
    "RowCache",
    "build_model",
    "forward_emissions",
    "backward",
    "predict",
    "predict_batch",
    "save_model",
    "load_model",
]

# Each char variant's (char mode, char conv kernel widths, char BiLSTM layers).
CHAR_VARIANTS = {
    "none": (None, (), 0),
    "cnn": ("cnn", (3,), 0),
    "cnn3": ("cnn", (3, 4, 5), 0),
    "bilstm": ("rnn", (), 1),
    "bilstm2": ("rnn", (), 2),
}

MODEL_MAGIC = b"MNER1"
MODEL_VERSION = 2


class ModelError(Exception):
    pass


class ModelFormatError(ModelError):
    pass


@dataclass
class ModelConfig:
    label_schema: LabelSchema
    char_variant: str = "bilstm"
    word_dim: int = 300
    char_emb_dim: int = 32
    char_cnn_filters: int = 32
    char_lstm_cells: int = 50
    token_lstm_cells: int = 200
    dropout: float = 0.5
    embedding_kind: str = "fasttext"

    def __post_init__(self):
        if self.char_variant not in CHAR_VARIANTS:
            raise ModelError(f"unknown char variant {self.char_variant!r}; choose from {tuple(CHAR_VARIANTS)}")
        for name in ("word_dim", "char_emb_dim", "char_cnn_filters", "char_lstm_cells", "token_lstm_cells"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ModelError(f"{name} must be an integer >= 1, got {value!r}")
        d = self.dropout
        if not isinstance(d, (int, float)) or isinstance(d, bool) or not 0.0 <= d < 1.0:
            raise ModelError(f"dropout must be a number in [0, 1), got {d!r}")

    @property
    def casing_dim(self) -> int:
        return len(CASING_FEATURE_NAMES)

    @property
    def required_char_mode(self) -> str | None:
        return CHAR_VARIANTS[self.char_variant][0]

    @property
    def char_cnn_kernels(self) -> tuple[int, ...]:
        return CHAR_VARIANTS[self.char_variant][1]

    @property
    def char_lstm_layers(self) -> int:
        return CHAR_VARIANTS[self.char_variant][2]

    @property
    def char_feature_dim(self) -> int:
        if self.char_cnn_kernels:
            return self.char_cnn_filters * len(self.char_cnn_kernels)
        return 2 * self.char_lstm_cells if self.char_lstm_layers else 0

    @property
    def input_width(self) -> int:
        return self.word_dim + self.casing_dim + self.char_feature_dim

    @property
    def num_labels(self) -> int:
        return len(self.label_schema)

    def to_dict(self) -> dict:
        return {"entity_classes": list(self.label_schema.entity_classes),
                **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "label_schema"}}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        classes = tuple(d.pop("entity_classes"))
        # Older version-2 headers also carry these two, now derived, values.
        kernels, casing = d.pop("char_cnn_kernels", None), d.pop("casing_dim", None)
        config = cls(label_schema=LabelSchema(classes), **d)
        if kernels is not None and tuple(kernels) != config.char_cnn_kernels or casing not in (None, config.casing_dim):
            raise ValueError(
                f"char_cnn_kernels {kernels} and casing_dim {casing} must be the {config.char_variant!r} "
                f"variant's {list(config.char_cnn_kernels)} and {config.casing_dim}"
            )
        return config


@dataclass(frozen=True)
class NerModel:
    config: ModelConfig
    char_vocab: CharVocab | None
    char_table: np.ndarray | None
    char_convs: list[Conv1dParams] = field(default_factory=list)
    char_lstms: list[tuple[LstmParams, LstmParams]] = field(default_factory=list)
    token_fwd: LstmParams = None  # type: ignore[assignment]
    token_bwd: LstmParams = None  # type: ignore[assignment]
    dense_w: np.ndarray = None  # type: ignore[assignment]
    dense_b: np.ndarray = None  # type: ignore[assignment]
    crf: CrfParams = None  # type: ignore[assignment]
    named_parameters: list[tuple[str, np.ndarray]] = field(default_factory=list, repr=False)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """All trainable parameters in the order :func:`_assemble` asked for
        them; training updates the arrays in place."""
        return list(self.named_parameters)

    @property
    def dtype(self) -> np.dtype:
        """The dtype all parameters share: float32 when built or loaded."""
        dtypes = {p.dtype for _, p in self.parameters()}
        if len(dtypes) != 1:
            raise ModelError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        return dtypes.pop()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.copy() for name, p in self.parameters()}

    def restore(self, snap: dict[str, np.ndarray]):
        for name, p in self.parameters():
            p[:] = snap[name]


def build_model(config: ModelConfig, char_vocab: CharVocab | None = None, seed: int = 0) -> NerModel:
    """The configured architecture with new parameters drawn from ``seed``
    by :func:`_initial` and rounded to float32."""
    if config.required_char_mode is not None and char_vocab is None:
        raise ModelError(f"char variant {config.char_variant!r} needs a character vocabulary")
    draw = _initial(np.random.default_rng(seed))
    return _assemble(config, char_vocab, lambda name, shape: draw(name, shape).astype(np.float32))


def _initial(rng: np.random.Generator):
    """A ``param(name, shape)`` for :func:`_assemble` that draws a new
    float64 array from ``rng`` by its name: Glorot-uniform (fan-in
    ``prod(shape[:-1])``) LSTM input weights, conv kernels and dense weights;
    four orthogonal gate blocks per recurrent matrix; char rows uniform
    within ±√(3/dim) under a zero padding row; zeros for the rest, but 1 for
    an LSTM's forget-gate bias."""

    def param(name: str, shape: tuple[int, ...]) -> np.ndarray:
        kind = name.rsplit(".", 1)[-1]
        if kind == "rows":
            out = rng.uniform(-np.sqrt(3.0 / shape[1]), np.sqrt(3.0 / shape[1]), size=shape)
            out[PAD_INDEX] = 0.0
        elif kind in ("w_input", "kernels") or name == "dense.w":
            limit = np.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
            out = rng.uniform(-limit, limit, size=shape)
        elif kind == "w_recurrent":
            blocks = [np.linalg.qr(rng.normal(size=(shape[0], shape[0]))) for _ in range(4)]
            out = np.concatenate([q * np.sign(np.diag(r)) for q, r in blocks], axis=1)
        else:
            out = np.zeros(shape)
            if "lstm" in name:
                out[shape[0] // 4 : shape[0] // 2] = 1.0  # the forget gate's block
        return out

    return param


def _assemble(config: ModelConfig, char_vocab: CharVocab | None, param) -> NerModel:
    """The configured architecture, each parameter array taken from
    ``param(name, shape)``; the order of those calls is the order of
    :meth:`NerModel.parameters`.  :func:`build_model` draws the arrays,
    :func:`load_model` reads them."""
    emb, filters, cells, labels = config.char_emb_dim, config.char_cnn_filters, config.char_lstm_cells, config.num_labels
    named: list[tuple[str, np.ndarray]] = []

    def take(name: str, shape: tuple[int, ...]) -> np.ndarray:
        array = param(name, shape)
        named.append((name, array))
        return array

    def lstm(prefix: str, in_dim: int, n: int) -> LstmParams:
        shapes = (("w_input", (in_dim, 4 * n)), ("w_recurrent", (n, 4 * n)), ("bias", (4 * n,)))
        return LstmParams(*(take(f"{prefix}.{name}", shape) for name, shape in shapes))

    return NerModel(
        config=config,
        char_vocab=char_vocab,
        char_table=take("char_table.rows", (len(char_vocab), emb)) if config.required_char_mode is not None else None,
        char_convs=[Conv1dParams(take(f"char_conv{i}.kernels", (k, emb, filters)),
                                 take(f"char_conv{i}.bias", (filters,))) for i, k in enumerate(config.char_cnn_kernels)],
        char_lstms=[tuple(lstm(f"char_lstm{i}.{tag}", emb if i == 0 else 2 * cells, cells) for tag in ("fwd", "bwd"))
                    for i in range(config.char_lstm_layers)],
        token_fwd=lstm("token_lstm.fwd", config.input_width, config.token_lstm_cells),
        token_bwd=lstm("token_lstm.bwd", config.input_width, config.token_lstm_cells),
        dense_w=take("dense.w", (2 * config.token_lstm_cells, labels)),
        dense_b=take("dense.b", (labels,)),
        crf=CrfParams(take("crf.transitions", (labels, labels)), take("crf.start", (labels,)), take("crf.end", (labels,))),
        named_parameters=named,
    )


class RowCache:
    """A bounded LRU of eval-mode token-BiLSTM gate inputs for one ``(model,
    store)`` pair: each token key ``(text, first, last)`` maps to its input
    row (word vector, casing one-hot, char feature) times the token
    BiLSTM's ``w_input``, forward direction first, so ``8 * cells`` values
    in the model's dtype.

    The rows sit in one ``(max_rows, 8 * cells)`` array, whose pages take
    memory only once written, so a batch's hits are one gather.  When the
    cache is full, a new key takes the slot of the least recently used one.
    One lock guards the slots, so threads can share a cache.  The rows stay
    valid while the model's parameters and the store stay as they are:
    training never passes a cache.
    """

    def __init__(self, model: NerModel, store: EmbeddingStore, max_rows: int):
        if not isinstance(max_rows, int) or isinstance(max_rows, bool) or max_rows < 1:
            raise ModelError(f"max_rows must be an integer >= 1, got {max_rows!r}")
        self.model, self.store, self.max_rows = model, store, max_rows
        self._rows = np.empty((max_rows, _gate_width(model)), dtype=model.dtype)
        self._slots: OrderedDict[tuple[str, bool, bool], int] = OrderedDict()  # least recently used first
        self._lock = threading.Lock()
        self.hits = self.lookups = 0

    def take(self, keys: list, table: np.ndarray) -> list[int]:
        """Copy each held key's row into the row of ``table`` with the key's
        index, and return the indices of the keys it does not hold."""
        found, slots, miss = [], [], []
        with self._lock:
            for u, key in enumerate(keys):
                slot = self._slots.get(key)
                if slot is None:
                    miss.append(u)
                else:
                    self._slots.move_to_end(key)
                    found.append(u)
                    slots.append(slot)
            table[found] = self._rows[slots]
            self.hits += len(found)
            self.lookups += len(keys)
        return miss

    def put(self, keys: list, rows: np.ndarray):
        """Hold ``rows[i]`` for ``keys[i]``, evicting the least recently used
        keys beyond ``max_rows``."""
        with self._lock:
            for key, row in zip(keys, rows):
                slot = self._slots.pop(key, None)
                if slot is None:
                    # Slots 0 .. len - 1 are taken; a full cache reuses the oldest key's.
                    full = len(self._slots) == self.max_rows
                    slot = self._slots.popitem(last=False)[1] if full else len(self._slots)
                self._slots[key] = slot
                self._rows[slot] = row


def _char_features(model: NerModel, rows: np.ndarray, mode: str) -> tuple[np.ndarray, tuple | None]:
    """The character feature (U, char_dim) of each of the U post-padded
    character rows ``rows`` (one per token key) and, in train mode, the
    cache :func:`backward` reads.  A row's feature reads only its real
    characters, never the padding, so it does not depend on how wide the
    batch pads its longest token.  Train mode runs the rows sorted (the
    cache's ``order``), so the weight gradients sum in an order set by the
    set of rows alone, and returns the features in the order of ``rows``.

    The char CNN reads the rows' padded ``(U, chars, emb)`` embedding.  The
    first char BiLSTM reads ``char_table`` through ``rows``, a second one
    the first one's packed rows through ``at``, each real character's
    packed row, which the train-mode cache keeps."""
    cfg = model.config
    order = None
    if mode == "train":
        # lexsort is stable and reads its last key first; PAD_INDEX (0) sorts a prefix first.
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
    lengths = (rows != PAD_INDEX).sum(axis=1)
    at = None
    if cfg.char_cnn_kernels:
        # Pool the windows that start inside the decorated token.
        out = embed_lookup(model.char_table, rows)
        pooled = [conv1d_globalmaxpool(conv, out, lengths, mode) for conv in model.char_convs]
        feat = np.concatenate([f for f, _ in pooled], axis=1)
        caches = [c for _, c in pooled]
    else:
        out, index, caches = model.char_table, rows, []
        for fwd, bwd in model.char_lstms:
            out, place, cache = bilstm_sequence(fwd, bwd, out, index, lengths, mode=mode)
            caches.append(cache)
            at = index = np.zeros(rows.shape, dtype=np.int64)
            at[place] = np.arange(len(out))
        # The forward half is read after the last character, the backward
        # half after the first.
        c = cfg.char_lstm_cells
        feat = np.concatenate([out[at[np.arange(len(rows)), lengths - 1], :c], out[at[:, 0], c:]], axis=1)
    if order is None:
        return feat, None
    return feat[np.argsort(order)], (rows, lengths, at, caches, order)


def _gate_width(model: NerModel) -> int:
    return 4 * (model.token_fwd.cells + model.token_bwd.cells)


def _input_rows(model: NerModel, batch: Batch, embedding_store: EmbeddingStore, keys: Sequence[int], mode: str):
    """The input rows ``(len(keys), input_width)`` of the batch's keys at
    the indices ``keys`` (word vector, casing one-hot, char feature) and,
    in train mode, the char submodel's cache.  The first two are built once
    per distinct text, which in cnn char mode can be up to three keys, and
    copied to each of its keys."""
    cfg = model.config
    words = cfg.word_dim + cfg.casing_dim
    table = np.empty((len(keys), cfg.input_width), dtype=model.dtype)
    distinct: dict[str, int] = {}
    of_text = [distinct.setdefault(batch.keys[u][0], len(distinct)) for u in keys]
    per_text = np.empty((len(distinct), words), dtype=model.dtype)
    per_text[:, : cfg.word_dim] = [lookup_word(embedding_store, text)[0] for text in distinct]
    per_text[:, cfg.word_dim :] = casing_features(list(distinct))
    table[:, :words] = per_text[of_text]
    chars = None
    if cfg.required_char_mode is not None:
        table[:, words:], chars = _char_features(model, batch.chars_of(keys), mode)
    return table, chars


def forward_emissions(
    model: NerModel,
    batch: Batch,
    embedding_store: EmbeddingStore,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    cache: RowCache | None = None,
):
    """Per-token label scores before the CRF, shaped (batch, max_len, labels).

    Both modes run in the parameters' dtype, and so do the emissions.  In
    eval mode returns the emissions alone and keeps nothing else.  In train
    mode returns ``(emissions, cache)``, the cache being what
    :func:`backward` reads once, and applies dropout (input and recurrent,
    per-sequence-constant masks in that dtype, none at dropout 0): the
    token BiLSTM reads the keys' input rows and gathers one masked row per
    real position.  The dense layer runs on the token BiLSTM's packed rows,
    one per real position, and its scores are placed into the emissions;
    the entries past a sentence's length are zero, and neither the CRF nor
    Viterbi reads them.

    In eval mode a row ``cache`` made for this model and store supplies
    the token BiLSTM's gate inputs of the keys it holds; only the other
    keys (every key, without a cache) are built and projected, and the
    cache keeps them.  A cached row was computed in a batch of other rows,
    so the emissions can differ from a cold cache's in the last bits.
    """
    cfg = model.config
    if mode not in ("train", "eval"):
        raise ModelError(f"unknown mode {mode!r}")
    required = cfg.required_char_mode
    if required is not None and batch.char_mode != required:
        raise ModelError(
            f"char-mode mismatch: variant {cfg.char_variant!r} needs {required!r} "
            f"sequences, batch has {batch.char_mode!r}"
        )
    if embedding_store.dim != cfg.word_dim:
        raise ModelError(f"embedding store has dimension {embedding_store.dim}, the model's word_dim is {cfg.word_dim}")
    train = mode == "train"
    if cache is not None and (train or cache.model is not model or cache.store is not embedding_store):
        raise ModelError("a row cache serves eval mode of the model and store it was made for")
    dtype = model.dtype
    if train and cfg.dropout > 0.0 and rng is None:
        raise ModelError("train mode with dropout needs an rng")

    if train:
        # The keys' input rows; the BiLSTM gathers them, masked, into its packed order.
        table, chars = _input_rows(model, batch, embedding_store, range(len(batch.keys)), mode)
    else:
        # One row of gate inputs per token key, read by the positions that share it.
        table = np.empty((len(batch.keys), _gate_width(model)), dtype=dtype)
        miss = range(len(table)) if cache is None else cache.take(batch.keys, table)
        if miss:
            rows, _ = _input_rows(model, batch, embedding_store, miss, mode)
            # Without a cache every key misses, and each direction projects into its half of the table.
            gates = table if cache is None else np.empty((len(miss), table.shape[1]), dtype=dtype)
            np.matmul(rows, model.token_fwd.w_input, out=gates[:, : 4 * model.token_fwd.cells])
            np.matmul(rows, model.token_bwd.w_input, out=gates[:, 4 * model.token_fwd.cells :])
            if cache is not None:
                table[miss] = gates
                cache.put([batch.keys[u] for u in miss], gates)

    hidden, place, token = bilstm_sequence(
        model.token_fwd,
        model.token_bwd,
        table,
        batch.token_keys,
        batch.lengths,
        dropout=cfg.dropout if train else 0.0,
        mode=mode,
        rng=rng,
        projected=not train,
    )
    emissions = np.zeros((len(batch.sentences), batch.max_len, cfg.num_labels), dtype=dtype)
    emissions[place] = hidden @ model.dense_w + model.dense_b
    if not train:
        return emissions
    return emissions, (hidden, place, token, chars)


def backward(model: NerModel, cache: tuple, crf_grads) -> dict[str, np.ndarray]:
    """Every parameter's gradient, keyed and ordered as
    :meth:`NerModel.parameters`, from a train-mode :func:`forward_emissions`
    cache and the CRF's gradients w.r.t. (emissions, transitions, start
    scores, end scores), which it casts to the parameters' dtype.

    The sweep runs back through the layers in the order the forward fixes:
    CRF, dense, token BiLSTM (with its input dropout and key gather), char
    submodel, char embedding.  It uses the cache up, so a second sweep
    needs a new forward.
    """
    cfg = model.config
    hidden, place, token, chars = cache
    d_em, *d_crf = (g.astype(hidden.dtype, copy=False) for g in crf_grads)
    grads = dict(zip(("crf.transitions", "crf.start", "crf.end"), d_crf))
    # The emissions' gradient at each of the BiLSTM's packed rows; the bias
    # sums them in row-major order, the order of the positions.
    g = d_em[place]
    grads["dense.w"], grads["dense.b"] = hidden.T @ g, g[np.lexsort(place[::-1])].sum(axis=0)
    d_hidden = g @ model.dense_w.T
    # Only the char-feature columns, which follow the word and casing ones,
    # feed a trained parameter.
    words = cfg.word_dim + cfg.casing_dim
    d_chars, token_grads = bilstm_backward(token, d_hidden, input_from=words if chars is not None else None)
    _put_lstm(grads, "token_lstm", token_grads)
    if chars is not None:
        rows, lengths, at, caches, order = chars
        # The keys' gradients, in the char submodel's row order.
        d_feat = d_chars[order]
        if cfg.char_cnn_kernels:
            f = cfg.char_cnn_filters
            d_emb = 0.0
            for i, conv in enumerate(caches):
                d_in, grads[f"char_conv{i}.kernels"], grads[f"char_conv{i}.bias"] = conv1d_backward(
                    conv, d_feat[:, i * f : (i + 1) * f])
                d_emb = d_emb + d_in
            d_table = embed_backward(model.char_table, rows, d_emb)
        else:
            # The packed rows' gradient: each key's forward half at its last
            # character, its backward half at its first.
            c = cfg.char_lstm_cells
            d_table = np.zeros((int(lengths.sum()), 2 * c), dtype=hidden.dtype)
            d_table[at[np.arange(len(rows)), lengths - 1], :c] = d_feat[:, :c]
            d_table[at[:, 0], c:] = d_feat[:, c:]
            # Each layer's table gradient is the packed gradient of the layer
            # below; the first layer's table is char_table.
            for i in range(len(caches) - 1, -1, -1):
                d_table, lstm_grads = bilstm_backward(caches[i], d_table)
                _put_lstm(grads, f"char_lstm{i}", lstm_grads)
        grads["char_table.rows"] = d_table
        d_table[PAD_INDEX] = 0.0  # the padding row stays zero
    return {name: grads[name] for name, _ in model.parameters()}


def _put_lstm(grads: dict[str, np.ndarray], prefix: str, lstm_grads):
    for tag, direction in zip(("fwd", "bwd"), lstm_grads):
        for field_name, g in zip(("w_input", "w_recurrent", "bias"), direction):
            grads[f"{prefix}.{tag}.{field_name}"] = g


def predict_batch(model: NerModel, embedding_store: EmbeddingStore, sentences: list[Sentence],
                  batch_size: int = 64, cache: RowCache | None = None) -> list[list[str]]:
    """Viterbi-decoded BIO labels for each sentence, eval mode, one batched
    pass per group, reading and filling ``cache`` if one is given."""
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1:
        raise ModelError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    schema = model.config.label_schema
    out: list[list[str]] = []
    for lo in range(0, len(sentences), batch_size):
        group = sentences[lo : lo + batch_size]
        batch = batch_from_sentences(group, model.char_vocab, model.config.required_char_mode)
        em = forward_emissions(model, batch, embedding_store, mode="eval", cache=cache)
        paths, _ = viterbi_decode(model.crf, em, batch.lengths)
        out.extend([schema.label_of(y) for y in path] for path in paths)
    return out


def predict(model: NerModel, embedding_store: EmbeddingStore, tokens: list[str]) -> list[str]:
    """Label one pre-tokenized sentence."""
    if not tokens:
        raise ModelError("cannot predict on an empty token list")
    if any(not isinstance(tok, str) or not tok for tok in tokens):
        raise ModelError("tokens must be non-empty strings")
    sentence = Sentence([Token(tok) for tok in tokens], ["O"] * len(tokens))
    return predict_batch(model, embedding_store, [sentence])[0]


# ---------------------------------------------------------------------------
# serialization: MNER1 magic, JSON header (config, schema, char vocab,
# declared parameter shapes), then named blocks of little-endian float32,
# which load as the model's float32 parameters.


def save_model(model: NerModel, path: str | Path):
    params = model.parameters()
    header = {
        "version": MODEL_VERSION,
        "config": model.config.to_dict(),
        "char_vocab": model.char_vocab.ordered_symbols() if model.char_vocab else None,
        "params": [{"name": name, "shape": list(p.shape)} for name, p in params],
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MODEL_MAGIC + b"\n")
        fh.write(str(len(blob)).encode("ascii") + b"\n")
        fh.write(blob)
        for _, p in params:
            fh.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def _read_exact(fh: io.BufferedReader, n: int, what: str) -> bytes:
    # A declared size is checked against the bytes left before anything is allocated for it.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ModelFormatError(f"truncated model file: expected {n} bytes for {what}, got {left}")
    return fh.read(n)


def load_model(path: str | Path) -> NerModel:
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MODEL_MAGIC:
            raise ModelFormatError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r} version {MODEL_VERSION}")
        try:
            header_len = int(fh.readline().strip())
        except ValueError as exc:
            raise ModelFormatError(f"{path}: unreadable header length") from exc
        if header_len < 0:
            raise ModelFormatError(f"{path}: negative header length {header_len}")
        try:
            header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ModelFormatError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise ModelFormatError(f"{path}: header is not a JSON object")
        version = header.get("version")
        if version == 1:
            raise ModelFormatError(
                f"{path}: version 1 model; its character features read the padding, "
                f"so it must be retrained for version {MODEL_VERSION}"
            )
        if version != MODEL_VERSION:
            raise ModelFormatError(f"{path}: unsupported version {version}")

        try:
            config = ModelConfig.from_dict(header["config"])
            symbols = header["char_vocab"]
            if symbols is None and config.required_char_mode is not None:
                raise ValueError(f"char variant {config.char_variant!r} needs a character vocabulary")
            vocab = None if symbols is None else CharVocab({sym: i for i, sym in enumerate(symbols)})
            declared = iter([(d["name"], tuple(d["shape"])) for d in header["params"]])
        except (KeyError, TypeError, ValueError, ModelError) as exc:
            raise ModelFormatError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc

        def block(name: str, shape: tuple[int, ...]) -> np.ndarray:
            declared_name, declared_shape = next(declared, (None, None))
            if declared_name != name:
                raise ModelFormatError(f"{path}: parameter blocks do not match the configured architecture")
            if declared_shape != shape:
                raise ModelFormatError(f"{path}: {name} has shape {declared_shape}, expected {shape}")
            raw = _read_exact(fh, 4 * int(np.prod(shape, dtype=np.int64)), name)
            return np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)

        model = _assemble(config, vocab, block)
        if next(declared, None) is not None:
            raise ModelFormatError(f"{path}: parameter blocks do not match the configured architecture")
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing bytes after parameter blocks")
    return model
