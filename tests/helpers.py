"""Fixture writers (text embedding stores among them), synthetic CoNLL
data, layer parameters drawn as a built model draws them, a padded view of
the BiLSTM, a model's float64 widening, and a threaded server, used only
by the tests."""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterable

import numpy as np

from gner.corpus import Sentence, Token
from gner.crf import CrfParams
from gner.datagen import make_corpus
from gner.embeddings import FASTTEXT_MAGIC, EmbeddingStore
from gner.evaluation import Chunk, EvaluationError
from gner.layers import Conv1dParams, LstmParams, bilstm_backward, bilstm_sequence
from gner.model import NerModel, _assemble, _initial
from gner.service import ModelRegistry, serve


def write_conll03(sentences: Iterable[Sentence], path: str | Path):
    """Write ``token tag`` lines with blank-line sentence breaks."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for s in sentences:
            for tok, tag in zip(s.tokens, s.outer_labels):
                fh.write(f"{tok.text} {tag}\n")
            fh.write("\n")


def write_text_store(store: EmbeddingStore, path: str | Path):
    """Write ``store`` in its text import format: ``FTXT1`` for a fasttext
    store, else plain vectors under a ``count dim`` header.  Each value is
    written as ``repr(float)``, which parses back to the same float64."""
    fasttext = store.kind == "fasttext"

    def values(vec) -> str:
        return " ".join(repr(float(v)) for v in vec)

    with Path(path).open("w", encoding="utf-8") as fh:
        if fasttext:
            fh.write(f"{FASTTEXT_MAGIC} {store.dim} {store.min_n} {store.max_n} {store.bucket_count} "
                     f"{len(store.word_vectors)}\n")
        else:
            fh.write(f"{len(store.word_vectors)} {store.dim}\n")
        for word, vec in store.word_vectors.items():
            fh.write(f"{word} {values(vec)}\n")
        for row in store.ngram_buckets if fasttext else ():
            fh.write(f"{values(row)}\n")


def chunks_to_bio(chunks: Iterable[Chunk], length: int) -> list[str]:
    """Render non-overlapping chunks back to a BIO sequence."""
    labels = ["O"] * length
    for c in sorted(chunks, key=lambda c: c.start):
        if not 0 <= c.start < c.end <= length:
            raise EvaluationError(f"chunk {c} out of bounds for length {length}")
        if any(labels[i] != "O" for i in range(c.start, c.end)):
            raise EvaluationError(f"chunk {c} overlaps another chunk")
        labels[c.start] = f"B-{c.cls}"
        for i in range(c.start + 1, c.end):
            labels[i] = f"I-{c.cls}"
    return labels


def make_conll_corpus(n_sentences: int, seed: int = 0, split: str = "train") -> list[Sentence]:
    """Four-class corpus (PER/LOC/ORG/MISC) with outer labels only."""
    sentences = []
    for i, s in enumerate(make_corpus(n_sentences, seed, split, with_subclasses=False)):
        outer = [lab.replace("OTH", "MISC") for lab in s.outer_labels]
        sentences.append(Sentence(s.tokens, outer, None, source_id=f"synthetic-conll-{split}:{i}"))
    return sentences


def bio_to_iob1(labels: list[str]) -> list[str]:
    """Render BIO as IOB1: chunks open with I-X except immediately after a
    same-class chunk, where B-X disambiguates the boundary."""
    out = []
    for pos, label in enumerate(labels):
        if label.startswith("B-"):
            cls = label[2:]
            prev = labels[pos - 1] if pos > 0 else "O"
            if prev in (f"B-{cls}", f"I-{cls}"):
                out.append(label)
            else:
                out.append("I-" + cls)
        else:
            out.append(label)
    return out


def fixture_training_sentences() -> list[Sentence]:
    """Small hand-written sentences anchoring a few fixed surface forms
    (notably "Aachen" as a location) for service and CLI fixtures."""
    rows = [
        (["Aachen", "liegt", "im", "Westen", "."], ["B-LOC", "O", "O", "O", "O"]),
        (["Aachen", "liegt", "im", "Norden", "."], ["B-LOC", "O", "O", "O", "O"]),
        (["Anna", "besucht", "Aachen", "."], ["B-PER", "O", "B-LOC", "O"]),
        (["Jonas", "besucht", "Aachen", "gern", "."], ["B-PER", "O", "B-LOC", "O", "O"]),
        (["die", "Ulmwerke", "GmbH", "liegt", "im", "Osten", "."],
         ["O", "B-ORG", "I-ORG", "O", "O", "O", "O"]),
        (["der", "Vorstand", "arbeitet", "im", "Büro", "."], ["O", "O", "O", "O", "O", "O"]),
        (["heute", "gewinnt", "Anna", "gegen", "Jonas", "."],
         ["O", "O", "B-PER", "O", "B-PER", "O"]),
    ]
    out = []
    for i, (toks, labels) in enumerate(rows):
        out.append(Sentence([Token(t) for t in toks], labels, ["O"] * len(toks), source_id=f"fixture:{i}"))
    return out


def lstm_params(input_dim: int, cells: int, rng: np.random.Generator) -> LstmParams:
    """LSTM weights initialized as :func:`gner.model.build_model` initializes each LSTM."""
    param = _initial(rng)
    return LstmParams(param("lstm.w_input", (input_dim, 4 * cells)), param("lstm.w_recurrent", (cells, 4 * cells)),
                      param("lstm.bias", (4 * cells,)))


def conv_params(kernel_size: int, in_dim: int, filters: int, rng: np.random.Generator) -> Conv1dParams:
    """Conv kernels and bias initialized as a built model's char CNN."""
    param = _initial(rng)
    return Conv1dParams(param("char_conv.kernels", (kernel_size, in_dim, filters)), param("char_conv.bias", (filters,)))


def char_table(vocab_size: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A (vocab_size, dim) character table initialized as a built model's."""
    return _initial(rng)("char_table.rows", (vocab_size, dim))


def crf_params(num_labels: int) -> CrfParams:
    """CRF scores initialized as a built model's: all zero."""
    param = _initial(np.random.default_rng(0))
    n = num_labels
    return CrfParams(param("crf.transitions", (n, n)), param("crf.start", (n,)), param("crf.end", (n,)))


def placed(out: np.ndarray, place, batch: int, steps: int) -> np.ndarray:
    """Packed BiLSTM rows ``out`` placed at their (row, step) ``place`` in a
    zero ``(batch, steps, width)`` array."""
    padded = np.zeros((batch, steps, out.shape[1]), dtype=out.dtype)
    padded[place] = out
    return padded


def bilstm_padded(fwd: LstmParams, bwd: LstmParams, x: np.ndarray, lengths, **kwargs):
    """:func:`~gner.layers.bilstm_sequence` over a post-padded ``(batch,
    steps, in)`` input: the positions' rows are the table, each position
    reading its own.  Returns the packed output placed, through the
    placement the call returns, into a zero ``(batch, steps, 2*cells)``
    array, and ``(cache, place)`` for :func:`bilstm_backward_padded`."""
    batch, steps, width = x.shape
    out, place, cache = bilstm_sequence(fwd, bwd, x.reshape(batch * steps, width),
                                        np.arange(batch * steps).reshape(batch, steps), lengths, **kwargs)
    return placed(out, place, batch, steps), (cache, place)


def bilstm_backward_padded(cache, grad: np.ndarray, input_from: int | None = 0):
    """:func:`~gner.layers.bilstm_backward` of a :func:`bilstm_padded` call
    given a ``(batch, steps, 2*cells)`` gradient, read at the real positions;
    the input's gradient comes back in the padded input's shape."""
    cache, place = cache
    dx, params = bilstm_backward(cache, grad[place], input_from)
    return (None if dx is None else dx.reshape(*grad.shape[:2], dx.shape[1])), params


def widened(model: NerModel) -> NerModel:
    """A new model holding ``model``'s parameters widened exactly to
    float64, the dtype the finite-difference and reference oracles run in."""
    params = dict(model.parameters())
    return _assemble(model.config, model.char_vocab, lambda name, _: params[name].astype(np.float64))


def serve_in_thread(registry: ModelRegistry, bind: str = "127.0.0.1", port: int = 0):
    """Start the service on a daemon thread (port 0 picks a free port);
    returns (server, thread)."""
    server = serve(registry, bind, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
