"""The three workloads.  Each returns a :class:`Outcome`; ``run.py`` turns it
into the printed result.

Every workload reports every end-to-end metric, each defined on the
workload's own unit of work (see README.md).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import data
import gner.embeddings
import gner.evaluation
import gner.model
from gner.corpus import build_char_vocab, germeval_schema
from gner.model import ModelConfig
from gner.training import NadamState, TrainConfig, train_epoch
from prepare import ARTIFACT_SEED
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SCHEMA = germeval_schema()

# serve-oov: an open-loop phase at a fixed Poisson rate, then a closed-loop
# phase.  The rate is about 30% of the seed commit's saturation rate of 11-14
# requests/s on 2 cores: this machine's speed drifts by 20% between runs,
# and nearer saturation queueing would amplify that drift in the latencies.
SERVE_RATE = 4.0
SERVE_OPEN_SHARE = 0.8
SCHEDULE_SEED = 0
SERVE_SETUPS = 3
SERVE_WARMUP = 4
SERVE_REFERENCE_SAMPLE = 6
SERVE_DEV_POOL = 400
HEALTH_TIMEOUT_S = 120.0
# tag-b64
TAG_BATCH = 64
TAG_POOL = 1280
TAG_SETUPS = 5
# train-b16: fixed optimizer work, proportional to --seconds.
TRAIN_BATCH = 16
TRAIN_STEPS_PER_SECOND = 3.5
TRAIN_SETUPS = 3
TRAIN_LOSS_STEPS = 16
TRAIN_DEV = 320


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    workdir: Path  # this run's scratch directory, removed afterwards
    artifacts: Path  # prepared stores and models, kept for later runs of the same sources
    tracer: Tracer


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(workload: str, run: Run) -> tuple[Path, dict]:
    """The workload's artifacts: built by prepare.py in a child process on
    the first run, then reused.  They depend only on the sources, which
    ``run.artifacts`` is named after."""
    out = run.artifacts / workload
    if not (out / "prepare.json").is_file():
        tmp = run.workdir / f"prepare-{workload}"
        tmp.mkdir()
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--out", str(tmp)],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp.rename(out)
    return out, json.loads((out / "prepare.json").read_text(encoding="utf-8"))


def labels_ok(n: int, labels) -> bool:
    """``labels`` is a list of ``n`` labels of the schema."""
    return isinstance(labels, list) and len(labels) == n and all(lab in SCHEMA.index for lab in labels)


def attempt(fn, *args, **kwargs):
    """One benchmark operation.  An exception is a failed operation, not the
    end of the run: its traceback goes to stderr and the result is None."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        return None


def scored(tracer: Tracer, gold, pred) -> float:
    with tracer.timed("evaluation.score"):
        return gner.evaluation.evaluate_bio(gold, pred).f1


# ---------------------------------------------------------------------------
# serve-oov


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _request(port: int, body: bytes, path: str = "/ner", method: str = "POST"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """One ``gner serve`` process started through the benchmark's launcher."""

    def __init__(self, registry: Path, workdir: Path, index: int, trace: bool):
        self.port = _free_port()
        self.report = workdir / f"server{index}.json"
        self.started = time.perf_counter()
        with open(workdir / f"server{index}.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"), "--report", str(self.report), "--trace", str(int(trace)),
                 "--", "serve", "--registry", str(registry), "--port", str(self.port)],
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.setup_s = math.nan

    def await_health(self):
        """Poll ``/health``; set-up time runs from spawn to the first 200."""
        while time.perf_counter() - self.started < HEALTH_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before becoming healthy")
            try:
                if _request(self.port, b"", "/health", "GET")[0] == 200:
                    self.setup_s = time.perf_counter() - self.started
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server did not become healthy")

    def stop(self):
        """SIGINT, as a terminal would, and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def result(self) -> dict:
        """The launcher's exit report: peak memory and spans."""
        if self.proc.returncode != 0 or not self.report.exists():
            raise RuntimeError(f"server stopped with exit code {self.proc.returncode}")
        return json.loads(self.report.read_text(encoding="utf-8"))


@dataclass
class Call:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = None


def _send(port: int, payload: bytes, call: Call):
    call.sent = time.perf_counter()
    try:
        call.status, raw = _request(port, payload)
        call.body = json.loads(raw)
    except (OSError, ValueError, http.client.HTTPException):
        call.status = -1
    call.done = time.perf_counter()


def _open_loop(port, payloads, first, rate, duration, connections) -> list[Call]:
    """Poisson arrivals at ``rate``: exponential gaps at stratified quantiles,
    in one fixed order.  Every seed gets the same arrival schedule, as it gets
    the same rate; the seed picks what the requests hold.  A due request
    waits for one of ``connections`` in-flight slots, and its latency counts
    from its due time."""
    gaps = data.stratified(max(1, round(rate * duration)), lambda q: -math.log1p(-q) / rate,
                           np.random.default_rng(SCHEDULE_SEED))
    offsets = np.cumsum(gaps)
    start = time.perf_counter() + 0.05
    calls = [Call(first + i, start + off) for i, off in enumerate(offsets)]
    cursor = iter(calls)
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                call = next(cursor, None)
            if call is None:
                return
            delay = call.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(port, payloads[call.index], call)

    _run_threads(worker, connections)
    return calls


def _closed_loop(port, payloads, first, duration, connections) -> tuple[list[Call], float]:
    start = time.perf_counter()
    end = start + duration
    calls: list[Call] = []
    lock = threading.Lock()
    nxt = [first]

    def worker():
        while time.perf_counter() < end:
            with lock:
                call = Call(nxt[0], time.perf_counter())
                nxt[0] += 1
                calls.append(call)
            _send(port, payloads[call.index], call)

    _run_threads(worker, connections)
    return calls, max(c.done for c in calls) - start


def _run_threads(target, n: int):
    threads = [threading.Thread(target=target) for _ in range(n)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()


def serve_oov(run: Run) -> Outcome:
    art, info = prepare("serve-oov", run)
    seconds, tracer = run.seconds, run.tracer
    rng = np.random.default_rng([run.seed, 10])
    pool = data.germeval_sentences(SERVE_DEV_POOL, run.seed, "dev")
    # 1-4 sentences per request, each size once in every block of four.
    sizes = np.concatenate([rng.permutation(4) + 1 for _ in range(1000)])
    order = rng.permutation(len(pool))
    requests, pos = [], 0
    for k in sizes:
        requests.append([pool[order[(pos + j) % len(pool)]] for j in range(k)])
        pos += k
    payloads = [json.dumps({"model": "bilstm", "sentences": [s.texts() for s in r]}).encode("utf-8")
                for r in requests]
    connections = min(2, os.cpu_count() or 1)

    servers: list[Server] = []
    try:
        for i in range(SERVE_SETUPS):
            servers.append(Server(art / "registry.json", run.workdir, i, run.trace))
            servers[-1].await_health()
            if i + 1 < SERVE_SETUPS:
                servers[-1].stop()
        server = servers[-1]
        warm = [Call(i, time.perf_counter()) for i in range(SERVE_WARMUP)]
        for call in warm:
            _send(server.port, payloads[call.index], call)
        open_calls = _open_loop(server.port, payloads, SERVE_WARMUP, SERVE_RATE, seconds * SERVE_OPEN_SHARE,
                                connections)
        sat_calls, sat_s = _closed_loop(server.port, payloads, SERVE_WARMUP + len(open_calls),
                                        seconds * (1 - SERVE_OPEN_SHARE), connections)
    finally:
        for s in servers:
            s.stop()
    reports = [s.result() for s in servers]
    calls = warm + open_calls + sat_calls

    # Correctness: status, alignment, schema, and a seeded sample against
    # in-process prediction on the same artifacts.
    bad = set()
    for call in calls:
        req = requests[call.index]
        labels = (call.body or {}).get("labels") if call.status == 200 else None
        if not (isinstance(labels, list) and len(labels) == len(req)
                and all(labels_ok(len(s), lab) for s, lab in zip(req, labels))):
            bad.add(call.index)
    good = [c for c in calls if c.index not in bad]
    sample = rng.choice(len(good), size=min(SERVE_REFERENCE_SAMPLE, len(good)), replace=False)
    model = gner.model.load_model(art / info["model"])
    store = gner.embeddings.load_store(art / info["store"], info["kind"])
    for i in sample:
        call = good[int(i)]
        for sent, got in zip(requests[call.index], call.body["labels"]):
            if gner.model.predict(model, store, sent.texts()) != got:
                bad.add(call.index)

    gold = [s.outer_labels for c in good for s in requests[c.index]]
    pred = [lab for c in good for lab in c.body["labels"]]
    f1 = scored(tracer, gold, pred)
    latencies = [(c.done - c.due) * 1000.0 for c in open_calls]
    sat_tokens = sum(len(s) for c in sat_calls if c.index not in bad for s in requests[c.index])
    tokens_per_s = sat_tokens / sat_s
    if run.trace:
        for c in good:
            if "trace_handle_ms" in c.body:
                tracer.sample("service.outside_handler_ms", (c.done - c.sent) * 1000.0 - c.body["trace_handle_ms"])
    metrics = {
        "setup_s": statistics.median(s.setup_s for s in servers),
        "tokens_per_s": tokens_per_s,
        "latency_p50_ms": data.quantile(latencies, 0.5),
        "latency_p90_ms": data.quantile(latencies, 0.9),
        "peak_rss_mb": reports[-1]["peak_rss_mb"],
        "f1": f1,
        "train_loss": info["brief_train_loss"],
    }
    lags = [(c.sent - c.due) * 1000.0 for c in open_calls]
    detail = {
        "shape": data.shape([s for r in requests[: len(calls)] for s in r], set(data.train_vocabulary(ARTIFACT_SEED)),
                            requests[: len(calls)]),
        "connections": connections,
        "open_loop": {"rate_per_s": SERVE_RATE, "requests": len(open_calls), "generator_lag_ms_p50": data.quantile(lags, 0.5),
                      "generator_lag_ms_max": max(lags)},
        "closed_loop": {"requests": len(sat_calls), "seconds": sat_s},
        "setup_s_each": [s.setup_s for s in servers],
        "reference_checked_requests": len(sample),
    }
    for r in reports:
        if r["trace"]:
            tracer.absorb(r["trace"])
    return Outcome(metrics, len(calls), len(bad), detail)


# ---------------------------------------------------------------------------
# tag-b64


def _mixed_batches(sentences, rng) -> list[list]:
    """Batches of TAG_BATCH that each hold one sentence from every length
    stratum, in seeded order.  Like batches of a corpus in file order, each
    spans short to long sentences and pads to its longest; unlike them, their
    padded widths do not swing from seed to seed."""
    n = len(sentences) // TAG_BATCH
    ranked = sorted(sentences, key=len)
    strata = [ranked[k * n : (k + 1) * n] for k in range(TAG_BATCH)]
    for stratum in strata:
        rng.shuffle(stratum)
    groups = [[stratum[g] for stratum in strata] for g in range(n)]
    for group in groups:
        rng.shuffle(group)
    return groups


def tag_b64(run: Run) -> Outcome:
    art, info = prepare("tag-b64", run)
    groups = _mixed_batches(data.germeval_sentences(TAG_POOL, run.seed, "dev"), np.random.default_rng([run.seed, 30]))
    pool = [s for g in groups for s in g]
    gold = [s.outer_labels for s in pool]

    setups = []
    for _ in range(TAG_SETUPS):
        t0 = time.perf_counter()
        model = gner.model.load_model(art / info["model"])
        store = gner.embeddings.load_store(art / info["store"], info["kind"])
        setups.append(time.perf_counter() - t0)

    # Cycle through the batches until --seconds have passed and every batch
    # ran once.  A batch tagged again must repeat its first labels.
    first: list[list[list[str]]] = []
    batch_ms, tokens, bad = [], 0, 0
    start = time.perf_counter()
    while len(first) < len(groups) or time.perf_counter() - start < run.seconds:
        group = groups[len(batch_ms) % len(groups)]
        t0 = time.perf_counter()
        labels = attempt(gner.model.predict_batch, model, store, group, batch_size=TAG_BATCH)
        batch_ms.append((time.perf_counter() - t0) * 1000.0)
        tokens += sum(len(s) for s in group)
        ok = (isinstance(labels, list) and len(labels) == len(group)
              and all(labels_ok(len(s), lab) for s, lab in zip(group, labels)))
        if not ok:
            labels = [["O"] * len(s) for s in group]  # scored as a miss
        if len(first) < len(groups):
            first.append(labels)
        bad += not ok or labels != first[(len(batch_ms) - 1) % len(groups)]
    elapsed = time.perf_counter() - start
    f1 = scored(run.tracer, gold, [lab for labels in first for lab in labels])
    metrics = {
        "setup_s": statistics.median(setups),
        "tokens_per_s": tokens / elapsed,
        "latency_p50_ms": data.quantile(batch_ms, 0.5),
        "latency_p90_ms": data.quantile(batch_ms, 0.9),
        "peak_rss_mb": peak_rss_mb(),
        "f1": f1,
        "train_loss": info["brief_train_loss"],
    }
    detail = {"shape": data.shape(pool, set(store.word_vectors)), "batches": len(batch_ms), "setup_s_each": setups}
    return Outcome(metrics, len(batch_ms), bad, detail)


# ---------------------------------------------------------------------------
# train-b16


def _length_buckets(sentences, rng) -> list[list]:
    """Batches as ``make_batches`` forms them: shuffle, stable sort by length,
    cut into batches, shuffle the batch order."""
    order = sorted(rng.permutation(len(sentences)), key=lambda i: len(sentences[i]))
    groups = [[sentences[i] for i in order[k : k + TRAIN_BATCH]] for k in range(0, len(order), TRAIN_BATCH)]
    rng.shuffle(groups)
    return groups


def train_b16(run: Run) -> Outcome:
    art, info = prepare("train-b16", run)
    seed = run.seed
    steps = max(4, round(TRAIN_STEPS_PER_SECOND * run.seconds))
    train = data.germeval_sentences(steps * TRAIN_BATCH, seed, "train")
    dev = data.germeval_sentences(TRAIN_DEV, seed, "dev")
    batches = _length_buckets(train, np.random.default_rng([seed, 20]))

    setups = []
    for _ in range(TRAIN_SETUPS):
        t0 = time.perf_counter()
        store = gner.embeddings.load_store(art / info["store"], info["kind"])
        vocab = build_char_vocab(train)
        config = ModelConfig(label_schema=SCHEMA, char_variant="bilstm", word_dim=store.dim,
                             embedding_kind=store.kind)
        model = gner.model.build_model(config, vocab, seed=ARTIFACT_SEED)
        setups.append(time.perf_counter() - t0)

    train_cfg = TrainConfig(stage1_batch=TRAIN_BATCH, seed=seed)
    state = NadamState()
    paired, step_ms, bad = [], [], 0  # paired: (loss, (sentences, tokens)) of each good step
    start = time.perf_counter()
    for k, batch in enumerate(batches):
        t0 = time.perf_counter()
        # One call per batch of 16 runs exactly one optimizer step.
        row = attempt(train_epoch, model, batch, store, train_cfg, 1, state, epoch_seed=seed * 1_000_003 + k)
        step_ms.append((time.perf_counter() - t0) * 1000.0)
        loss = row["mean_loss"] if row else math.nan
        if math.isfinite(loss):
            paired.append((loss, (len(batch), sum(len(s) for s in batch))))
        else:
            bad += 1
    elapsed = time.perf_counter() - start

    # Loss per token: the batch loss is a mean over sentences of summed
    # token losses, so sentence length would otherwise dominate it.  The
    # reported loss covers the first TRAIN_LOSS_STEPS steps, which every run
    # takes from the same initial weights; over more steps the runs of
    # different seeds drift apart by 10% and more.
    quarter = max(1, len(paired) // 4)

    def per_token(part):
        return sum(loss * n for loss, (n, _) in part) / sum(t for _, (_, t) in part)

    falls = per_token(paired[-quarter:]) < per_token(paired[:quarter])
    pred = gner.model.predict_batch(model, store, dev)
    aligned = len(pred) == len(dev) and all(labels_ok(len(s), lab) for s, lab in zip(dev, pred))
    f1 = scored(run.tracer, [s.outer_labels for s in dev], pred)
    metrics = {
        "setup_s": statistics.median(setups),
        "tokens_per_s": sum(len(s) for s in train) / elapsed,
        "latency_p50_ms": data.quantile(step_ms, 0.5),
        "latency_p90_ms": data.quantile(step_ms, 0.9),
        "peak_rss_mb": peak_rss_mb(),
        "f1": f1,
        "train_loss": per_token(paired[:TRAIN_LOSS_STEPS]),
    }
    detail = {"shape": data.shape(train, set(store.word_vectors)), "steps": len(batches),
              "loss_first_quarter": per_token(paired[:quarter]), "loss_last_quarter": per_token(paired[-quarter:]),
              "setup_s_each": setups}
    return Outcome(metrics, len(batches) + 2, bad + (not falls) + (not aligned), detail)
