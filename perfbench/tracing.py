"""Per-layer tracing from outside the package.

Wrappers replace public functions where the caller looks them up: each
``gner`` module imports its collaborators by name, so ``gner.model``'s own
binding of ``bilstm_sequence`` is wrapped, not ``gner.layers``'.  A span
records wall time, the time its traced children covered (for self time) and
the tokens it handled; counters sit at the same boundaries.  Nothing in
``src/gner`` changes, and an untraced run installs no wrapper at all.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import gner.autodiff
import gner.corpus
import gner.embeddings
import gner.evaluation
import gner.model
import gner.service
import gner.training


class Tracer:
    """Span and counter accumulator, safe under the threading HTTP server."""

    def __init__(self):
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0, 0])  # total, child, calls, tokens
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.token_lstms: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, amount: float = 1.0):
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float):
        with self._lock:
            self.samples[name].append(value)

    def wrap(self, owner, attr: str, name, before=None, after=None):
        """Replace ``owner.attr`` with a timed wrapper.  ``name`` is a span
        name or a function of the call's arguments; ``before(args, kwargs)``
        and ``after(args, kwargs, result, seconds)`` run outside the span and
        may return a token count for it."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tokens = before(args, kwargs) if before else 0
            t0 = tracer._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt, child = tracer._end(t0)
            if after:
                tokens = after(args, kwargs, result, dt) or tokens
            tracer._record(name(args, kwargs) if callable(name) else name, dt, child, tokens)
            return result

        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def timed(self, name: str):
        """A span around the benchmark's own call into a layer."""
        t0 = self._begin()
        try:
            yield
        finally:
            self._record(name, *self._end(t0), 0)

    def _begin(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _end(self, t0: float) -> tuple[float, float]:
        """(span seconds, seconds its traced children covered); the span
        counts as a child of the enclosing one."""
        dt = time.perf_counter() - t0
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += dt
        return dt, child

    def _record(self, name: str, seconds: float, child: float, tokens):
        with self._lock:
            row = self.spans[name]
            row[0] += seconds
            row[1] += child
            row[2] += 1
            row[3] += tokens or 0

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def absorb(self, export: dict):
        """Add another process's :meth:`export` to this tracer."""
        with self._lock:
            for k, row in export["spans"].items():
                self.spans[k] = [a + b for a, b in zip(self.spans[k], row)]
            for k, v in export["counts"].items():
                self.counts[k] += v
            for k, v in export["samples"].items():
                self.samples[k] += v

    def export(self) -> dict:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


# ---------------------------------------------------------------------------
# hooks


def _sentence_tokens(sentences) -> int:
    return sum(len(s) for s in sentences)


def install(tracer: Tracer):
    """Wrap every traced boundary of the package in this process."""

    def forward_before(args, kwargs):
        model, batch = args[0], args[1]
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
        tokens = _sentence_tokens(batch.sentences)
        tracer.count(f"tokens.{mode}", tokens)
        tracer.token_lstms.add(id(model.token_fwd))
        if batch.char_indices is not None:
            b, t, p = batch.char_indices.shape
            unique = len(np.unique(batch.char_indices.reshape(b * t, p), axis=0))
            tracer.count("char_rows.unique", unique)
            tracer.count("char_rows.total", b * t)
        return tokens

    for owner in (gner.model, gner.training):
        tracer.wrap(owner, "forward_emissions", "model.forward", before=forward_before)

    def bilstm_name(args, kwargs):
        return "layers.token_bilstm" if id(args[0]) in tracer.token_lstms else "model.char_bilstm"

    tracer.wrap(gner.model, "bilstm_sequence", bilstm_name)
    tracer.wrap(gner.model, "conv1d_globalmaxpool", "model.char_conv")
    tracer.wrap(gner.model, "embed_lookup", "model.char_embed")

    def lookup_after(args, kwargs, result, dt):
        tracer.count("embeddings.lookups")
        if result[1]:
            tracer.count("embeddings.oov")

    tracer.wrap(gner.model, "lookup_word", "embeddings.lookup", after=lookup_after)
    tracer.wrap(gner.model, "viterbi_decode", "crf.viterbi", before=lambda a, k: len(a[1]))
    tracer.wrap(gner.training, "crf_negative_log_likelihood", "crf.nll", before=lambda a, k: len(a[2]))
    tracer.wrap(gner.autodiff, "backward", "autodiff.backward")

    def clip_after(args, kwargs, result, dt):
        max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else None)
        tracer.count("training.clip_calls")
        if max_norm is not None and result > max_norm:
            tracer.count("training.clip_fired")

    tracer.wrap(gner.training, "clip_gradients", "training.optimizer", after=clip_after)
    tracer.wrap(gner.training, "nadam_step", "training.optimizer",
                after=lambda a, k, r, dt: tracer.count("training.steps"))

    def batches_after(args, kwargs, result, dt):
        batches = [result] if isinstance(result, gner.corpus.Batch) else result
        tokens = 0
        for batch in batches:
            tokens += _sentence_tokens(batch.sentences)
            tracer.count("pad.token_cells", batch.mask.size)
            tracer.count("pad.token_real", int(batch.mask.sum()))
            if batch.char_indices is not None:
                tracer.count("pad.char_cells", batch.char_indices.size)
                tracer.count("pad.char_real", int(np.count_nonzero(batch.char_indices)))
        return tokens

    tracer.wrap(gner.model, "batch_from_sentences", "corpus.batch", after=batches_after)
    tracer.wrap(gner.training, "make_batches", "corpus.batch", after=batches_after)
    tracer.wrap(gner.evaluation, "evaluate_bio", "evaluation.score")
    for owner in (gner.embeddings, gner.service):
        tracer.wrap(owner, "load_store", "embeddings.load_store")
    for owner in (gner.model, gner.service):
        tracer.wrap(owner, "load_model", "model.load")

    def handle_after(args, kwargs, result, dt):
        tracer.sample("service.handle_ms", dt * 1000.0)
        # The client subtracts this from its own latency for the same request.
        result[1]["trace_handle_ms"] = dt * 1000.0

    tracer.wrap(gner.service, "handle_ner_request", "service.handle", after=handle_after)

    node_init = gner.autodiff.Node.__init__

    def counting_init(self, *args, **kwargs):
        tracer.count("autodiff.nodes")
        node_init(self, *args, **kwargs)

    gner.autodiff.Node.__init__ = counting_init


# ---------------------------------------------------------------------------
# per-layer metrics


def _ms_per_ktok(seconds: float, tokens: float) -> float:
    return seconds * 1e6 / tokens if tokens else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(ex: dict) -> dict[str, float]:
    """Per-layer figures from an export.  A layer that the workload
    never ran reads 0."""
    spans, counts, samples = ex["spans"], ex["counts"], ex["samples"]

    def total(name):
        return spans.get(name, [0.0, 0.0, 0, 0])[0]

    def calls(name):
        return spans.get(name, [0.0, 0.0, 0, 0])[2]

    def tokens(name):
        return spans.get(name, [0.0, 0.0, 0, 0])[3]

    fwd_tok = counts.get("tokens.train", 0.0) + counts.get("tokens.eval", 0.0)
    forward = spans.get("model.forward", [0.0, 0.0, 0, 0])
    char_s = total("model.char_bilstm") + total("model.char_conv") + total("model.char_embed")
    return {
        "service.handle_ms_p50": _median(samples.get("service.handle_ms", [])),
        "service.outside_handler_ms_p50": _median(samples.get("service.outside_handler_ms", [])),
        "embeddings.lookup_us_per_token": _share(total("embeddings.lookup") * 1e6, fwd_tok),
        "embeddings.lookups_per_token": _share(counts.get("embeddings.lookups", 0.0), fwd_tok),
        "embeddings.oov_share": _share(counts.get("embeddings.oov", 0.0), counts.get("embeddings.lookups", 0.0)),
        "embeddings.load_store_s": _share(total("embeddings.load_store"), calls("embeddings.load_store")),
        "model.load_s": _share(total("model.load"), calls("model.load")),
        "model.forward_ms_per_ktok": _ms_per_ktok(forward[0], fwd_tok),
        "model.forward_self_ms_per_ktok": _ms_per_ktok(forward[0] - forward[1], fwd_tok),
        "model.char_ms_per_ktok": _ms_per_ktok(char_s, fwd_tok),
        "model.char_rows_unique_share": _share(counts.get("char_rows.unique", 0.0), counts.get("char_rows.total", 0.0)),
        "layers.token_bilstm_ms_per_ktok": _ms_per_ktok(total("layers.token_bilstm"), fwd_tok),
        "crf.nll_ms_per_ktok": _ms_per_ktok(total("crf.nll"), tokens("crf.nll")),
        "crf.viterbi_ms_per_ktok": _ms_per_ktok(total("crf.viterbi"), tokens("crf.viterbi")),
        "autodiff.nodes_per_token": _share(counts.get("autodiff.nodes", 0.0), fwd_tok),
        "autodiff.backward_ms_per_ktok": _ms_per_ktok(total("autodiff.backward"), counts.get("tokens.train", 0.0)),
        "training.optimizer_ms_per_step": _share(total("training.optimizer") * 1e3, counts.get("training.steps", 0.0)),
        "training.clip_fired_share": _share(counts.get("training.clip_fired", 0.0), counts.get("training.clip_calls", 0.0)),
        "corpus.batch_ms_per_ktok": _ms_per_ktok(total("corpus.batch"), tokens("corpus.batch")),
        "corpus.char_pad_share": 1.0 - _share(counts.get("pad.char_real", 0.0), counts.get("pad.char_cells", 0.0))
        if counts.get("pad.char_cells") else 0.0,
        "corpus.token_pad_share": 1.0 - _share(counts.get("pad.token_real", 0.0), counts.get("pad.token_cells", 0.0))
        if counts.get("pad.token_cells") else 0.0,
        "evaluation.score_ms": _share(total("evaluation.score") * 1e3, calls("evaluation.score")),
    }
