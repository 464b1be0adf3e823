"""The model registry and the JSON-over-HTTP inference service on top of it.

The registry binds model names to a loaded model, its embedding store and a
row cache; everything is loaded at startup (startup fails on any broken
entry), and the bindings, models and stores do not change afterwards.

Each entry's :class:`~gner.model.RowCache` is the one state that the
requests one process serves share.  It holds the token BiLSTM's gate
inputs (each token key's input row times both directions' input weights,
6 400 bytes at paper size) of up to :data:`ROW_CACHE_ROWS` keys and evicts
the least recently used key beyond that.  It serves that entry's requests only.  A cached row was computed in
a batch of other keys, so emissions can differ from a cold cache's in the
last float32 bits, and a response can depend on which requests the entry
served before it.  The labels were measured equal to a cold cache's on
two seeds' ``serve-oov`` pools, with emissions within the stated parity
bound (1e-4 at paper size); a near-tie Viterbi path could still flip.

``gner serve`` runs this server once per CPU it may run on.  After the
registry is loaded and the socket bound, it forks one worker process for
each further CPU in its affinity set, and every process, the parent
included, runs the same single-threaded ``serve_forever`` on the one
listening socket (none is forked on one CPU).  All of them wake on a new
connection, and the one whose ``accept()`` wins handles it, one request per
connection (HTTP/1.0), on its one thread; the others wait in the kernel's
accept queue, up to :data:`LISTEN_BACKLOG` of them, and the kernel refuses
connections beyond it.  Models and stores are shared copy-on-write, but each
process fills its own row caches, so ``cached_share``, and the last bits a
cached row can change, also depend on which process answered.  A worker
costs the memory it writes after the fork, its caches and forward buffers
(figures in the README), and each process should run one BLAS thread, as
the Dockerfile sets, or N processes start N BLAS threads each.  With no
second Python thread in a process to compete with a forward for the
interpreter lock, a server spends less CPU per request than with a thread
per connection (figures in the README).  The price is that a slow client
holds up the process that accepted it: each read of a request waits at most
:data:`HANDLER_TIMEOUT_S`, so an idle connection stalls that process for that
long, but a client that sends a byte just under each timeout holds it for
longer, and as many such clients as processes hold them all.  For untrusted
clients, put a buffering reverse proxy in front of the service.

The registry also holds one lock, and a request holds it while the model
runs, so that library callers sharing a registry across threads run one
forward at a time.  Each server process's one thread takes it
uncontended, so ``timing_ms`` includes no wait for it; a request waits in
the accept queue, before ``timing_ms`` starts.

Request validation and prediction live in :func:`handle_ner_request`, a
function over parsed JSON, so the HTTP layer stays a thin shell.  It bounds
each request's work before the model runs: at most
:data:`MAX_REQUEST_TOKENS` tokens over all sentences and
:data:`MAX_TOKEN_CHARS` characters a token, else a 413.  A
response carries the labels, the handling time, ``oov_rate`` (the share of
the request's tokens that are not in the store's vocabulary) and
``cached_share`` (the share of its batches' distinct token keys whose rows
came from the cache).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

from .corpus import Sentence, Token
from .embeddings import EmbeddingStore, check_kind, load_store
from .model import NerModel, RowCache, load_model, predict_batch

__all__ = [
    "ServiceError",
    "RegisteredModel",
    "ModelRegistry",
    "handle_ner_request",
    "serve",
]

class ServiceError(Exception):
    pass


# Rows each entry's cache holds.  At paper size a row is 6 400 bytes, so a
# full cache takes about 27 MB of RSS (26.2 MB of rows and the key map);
# pages are taken only as rows are written, and `serve-oov` fills about
# 1 350 rows.  A memory bound, not a hit-rate optimum for real traffic.
ROW_CACHE_ROWS = 4_096

# Connections that wait in the kernel's accept queue while the server
# handles one; the kernel may cap it (``net.core.somaxconn``).
LISTEN_BACKLOG = 128

# Seconds each read of a request may wait for the client.
HANDLER_TIMEOUT_S = 5.0

# Largest request body read; `serve-oov`'s largest is 1 761 bytes.
MAX_BODY_BYTES = 1 << 20

# Most tokens one request may hold, over all its sentences, and most
# characters one token may hold.  Each char row is padded to the request's
# longest token, so both bound a forward's memory: a request at both limits
# (1 024 distinct 100-character tokens) took 0.93 s on a paper-size `bilstm`
# and raised the process's peak RSS from 70 to 244 MB (2 vCPUs, one BLAS
# thread).  `serve-oov` requests hold at most 166 tokens of at most 20
# characters.
MAX_REQUEST_TOKENS = 1_024
MAX_TOKEN_CHARS = 100


@dataclass
class RegisteredModel:
    """A served model, its store and the row cache its requests share."""

    model: NerModel
    store: EmbeddingStore
    cache: RowCache = field(init=False, repr=False)

    def __post_init__(self):
        self.cache = RowCache(self.model, self.store, ROW_CACHE_ROWS)


class ModelRegistry:
    """Name -> :class:`RegisteredModel` binding, fixed at startup, and the
    lock that lets one request at a time run a model."""

    def __init__(self, entries: dict[str, RegisteredModel]):
        if not entries:
            raise ServiceError("registry has no models")
        self._entries = dict(entries)
        self.lock = threading.Lock()

    @classmethod
    def load(cls, config_path: str | Path) -> "ModelRegistry":
        """Load a registry description:

        ``{"models": {name: {"model": path, "embeddings": path}}}``; paths
        are relative to the config file, and entries naming the same store
        file share one loaded store.  An optional ``"embedding_kind"`` is
        checked against the store file's own kind.  Any unloadable entry, or
        a store whose dimension is not the model's word dimension, fails
        startup.
        """
        config_path = Path(config_path)
        try:
            config = json.loads(config_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"cannot read registry {config_path}: {exc}") from exc
        models = config.get("models") if isinstance(config, dict) else None
        if not isinstance(models, dict) or not models:
            raise ServiceError(f"{config_path}: expected a non-empty 'models' map")
        base = config_path.parent
        entries = {}
        stores: dict[Path, EmbeddingStore] = {}
        for name, spec in models.items():
            try:
                model = load_model(base / spec["model"])
                key = (base / spec["embeddings"]).resolve()
                if key not in stores:
                    stores[key] = load_store(key)
                store = stores[key]
                check_kind(key, spec.get("embedding_kind"), store.kind)
                if store.dim != model.config.word_dim:
                    raise ServiceError(f"embedding dim {store.dim} != model word_dim {model.config.word_dim}")
                entries[name] = RegisteredModel(model, store)
            except Exception as exc:
                raise ServiceError(f"registry entry {name!r} failed to load: {exc}") from exc
        return cls(entries)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def get(self, name: str) -> RegisteredModel:
        try:
            return self._entries[name]
        except KeyError:
            raise ServiceError(f"unknown model {name!r}") from None


def _bad_request(message: str) -> tuple[int, dict]:
    return 400, {"error": message}


def handle_ner_request(registry: ModelRegistry, payload) -> tuple[int, dict]:
    """Validate a request body and tag all its sentences in one batched call,
    holding the registry's lock while the model runs.

    Returns (http_status, response_body).  The response's label lists align
    one-to-one with the request's token lists; ``oov_rate`` and
    ``cached_share`` are 0 for a request without tokens.  A request with
    more than :data:`MAX_REQUEST_TOKENS` tokens, or a token longer than
    :data:`MAX_TOKEN_CHARS` characters, gets a 413 naming the first
    sentence and token past the limit.
    """
    if not isinstance(payload, dict):
        return _bad_request("request body must be a JSON object")
    name = payload.get("model")
    if not isinstance(name, str):
        return _bad_request("missing or non-string 'model'")
    sentences = payload.get("sentences")
    if not isinstance(sentences, list):
        return _bad_request("'sentences' must be a list of token lists")
    tokens_before = 0
    for i, sent in enumerate(sentences):
        if not isinstance(sent, list):
            return _bad_request(f"sentence {i} must be a list of tokens, not {type(sent).__name__}")
        if not sent:
            return _bad_request(f"sentence {i} is empty")
        if any(not isinstance(tok, str) or not tok for tok in sent):
            return _bad_request(f"sentence {i} contains a non-string or empty token")
        if tokens_before + len(sent) > MAX_REQUEST_TOKENS:
            return 413, {"error": f"sentence {i} token {MAX_REQUEST_TOKENS - tokens_before} is past the limit of "
                                  f"{MAX_REQUEST_TOKENS} tokens per request"}
        tokens_before += len(sent)
        for j, tok in enumerate(sent):
            if len(tok) > MAX_TOKEN_CHARS:
                return 413, {"error": f"sentence {i} token {j} has {len(tok)} characters, over the limit of "
                                      f"{MAX_TOKEN_CHARS}"}
    try:
        entry = registry.get(name)
    except ServiceError:
        return 404, {"error": f"unknown model {name!r}", "models": registry.names()}

    started = time.perf_counter()
    batch = [Sentence([Token(tok) for tok in sent], ["O"] * len(sent)) for sent in sentences]
    cache = entry.cache
    with registry.lock:
        # One forward runs at a time, so the counts' growth is this request's.
        hits, lookups = cache.hits, cache.lookups
        labels = predict_batch(entry.model, entry.store, batch, cache=cache)
        hits, lookups = cache.hits - hits, cache.lookups - lookups
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    tokens = [tok for sent in sentences for tok in sent]
    oov = sum(tok not in entry.store.word_vectors for tok in tokens)
    return 200, {"model": name, "labels": labels, "timing_ms": elapsed_ms,
                 "oov_rate": oov / len(tokens) if tokens else 0.0,
                 "cached_share": hits / lookups if lookups else 0.0}


def _make_handler(registry: ModelRegistry):
    class Handler(BaseHTTPRequestHandler):
        server_version = "gner"
        timeout = HANDLER_TIMEOUT_S

        def _send(self, status: int, body: dict):
            blob = json.dumps(body, ensure_ascii=False).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def do_GET(self):
            if self.path == "/health":
                self._send(200, {"status": "ok"})
            elif self.path == "/models":
                self._send(200, {"models": registry.names()})
            else:
                self._send(404, {"error": f"no such path {self.path}"})

        def do_POST(self):
            if self.path != "/ner":
                self._send(404, {"error": f"no such path {self.path}"})
                return
            raw_length = self.headers.get("Content-Length", "0").strip()
            # Digits only: int() would also take "-1" (read until the client
            # closes), "+5" and "1_0".
            if not (raw_length.isascii() and raw_length.isdigit()):
                self._send(400, {"error": f"invalid Content-Length {raw_length!r}"})
                return
            length = int(raw_length)
            if length > MAX_BODY_BYTES:
                self._send(413, {"error": f"body of {length} bytes exceeds the limit of {MAX_BODY_BYTES}"})
                return
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:  # nested past the decoder's depth
                self._send(400, {"error": f"malformed JSON body: {exc}"})
                return
            except TimeoutError:
                self._send(408, {"error": f"body not received within {self.timeout} s"})
                return
            status, body = handle_ner_request(registry, payload)
            self._send(status, body)

        def log_message(self, fmt, *args):  # quiet by default
            pass

    return Handler


class _Server(HTTPServer):
    request_queue_size = LISTEN_BACKLOG


def serve(registry: ModelRegistry, bind: str = "127.0.0.1", port: int = 8080) -> HTTPServer:
    """Bind the HTTP service; the caller drives ``serve_forever``, which
    handles one connection at a time (``gner serve`` runs one per CPU)."""
    try:
        server = _Server((bind, port), _make_handler(registry))
    except OSError as exc:
        raise ServiceError(f"cannot bind {bind}:{port}: {exc}") from exc
    return server
