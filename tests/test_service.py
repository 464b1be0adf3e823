import contextlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from gner import cli
from gner import service as svc
from gner.corpus import Sentence, Token, write_germeval
from gner.datagen import make_embedding_store
from gner.embeddings import EmbeddingStore, load_store, write_fasttext_store, write_text_vectors
from gner.model import load_model, predict
from helpers import serve_in_thread

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def registry(fixture_world):
    return svc.ModelRegistry.load(fixture_world.registry_path)


def test_registry_startup_fails_on_missing_model(tmp_path):
    bad = tmp_path / "registry.json"
    bad.write_text('{"models": {"x": {"model": "missing.mner", "embeddings": "v.txt"}}}')
    with pytest.raises(svc.ServiceError, match="x"):
        svc.ModelRegistry.load(bad)


@pytest.mark.parametrize("text", ["[]", "null", '"models"', "3"])
def test_registry_startup_fails_on_a_config_that_is_not_an_object(tmp_path, text):
    bad = tmp_path / "registry.json"
    bad.write_text(text)
    with pytest.raises(svc.ServiceError, match="'models' map"):
        svc.ModelRegistry.load(bad)


def test_registry_startup_fails_on_store_dim_mismatch(tmp_path, fixture_world):
    # The fixture model reads 12-d word vectors; an 8-d store must stop
    # startup, not fail every request for that model.
    store = make_embedding_store(fixture_world.sentences, dim=8, seed=2)
    write_text_vectors(store, tmp_path / "v8.txt")
    bad = tmp_path / "registry.json"
    bad.write_text(json.dumps({"models": {"narrow": {
        "model": str(fixture_world.model_path), "embeddings": "v8.txt", "embedding_kind": "plain"}}}))
    with pytest.raises(svc.ServiceError, match=r"'narrow'.*dim 8 != model word_dim 12"):
        svc.ModelRegistry.load(bad)


def test_registry_shares_a_store_by_resolved_path_and_checks_a_declared_kind(tmp_path, fixture_world):
    write_text_vectors(fixture_world.store, tmp_path / "v.txt")
    (tmp_path / "sub").mkdir()
    reg = tmp_path / "registry.json"
    entries = {"a": {"model": str(fixture_world.model_path), "embeddings": "v.txt"},
               "b": {"model": str(fixture_world.model_path), "embeddings": "sub/../v.txt", "embedding_kind": "plain"}}
    reg.write_text(json.dumps({"models": entries}))
    registry = svc.ModelRegistry.load(reg)
    assert registry.get("a").store is registry.get("b").store
    entries["b"]["embedding_kind"] = "fasttext"
    reg.write_text(json.dumps({"models": entries}))
    with pytest.raises(svc.ServiceError, match=r"'b'.*declared kind 'fasttext', but the file is a 'plain' store"):
        svc.ModelRegistry.load(reg)


def test_handle_request_round_trips_offline_predict(registry, fixture_world):
    sentences = [["Aachen", "liegt", "im", "Westen"], ["Anna", "besucht", "Aachen", "."]]
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": sentences})
    assert status == 200
    assert body["model"] == "germeval-outer"
    assert body["labels"][0] == ["B-LOC", "O", "O", "O"]
    offline = [predict(fixture_world.model, fixture_world.store, s) for s in sentences]
    assert body["labels"] == offline
    assert body["timing_ms"] >= 0.0


def test_multi_sentence_request_is_one_batch_with_per_sentence_labels(registry, fixture_world, monkeypatch):
    # Sentences of different lengths and token widths share one batch; each
    # gets exactly the labels it gets alone.
    sentences = [s.texts() for s in fixture_world.sentences[::7]]
    assert len({len(s) for s in sentences}) > 3
    entry = registry.get("germeval-outer")
    alone = [predict(entry.model, entry.store, s) for s in sentences]
    calls = []
    batched = svc.predict_batch
    monkeypatch.setattr(svc, "predict_batch", lambda *a, **k: calls.append(a) or batched(*a, **k))
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": sentences})
    assert status == 200
    assert body["labels"] == alone
    assert len(calls) == 1


def test_handle_request_without_sentences_returns_no_labels(registry):
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": []})
    assert status == 200
    assert body["labels"] == []


def test_handle_request_schema_violations(registry):
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": ["raw string"]})
    assert status == 400 and "sentence 0" in body["error"]
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": [[]]})
    assert status == 400 and "empty" in body["error"]
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer"})
    assert status == 400
    status, body = svc.handle_ner_request(registry, [1, 2])
    assert status == 400


def _predict_batch_never_called(monkeypatch):
    calls = []
    monkeypatch.setattr(svc, "predict_batch", lambda *a, **k: calls.append(a))
    return calls


def test_requests_past_the_token_or_character_limit_get_a_413_before_the_model_runs(registry, monkeypatch):
    calls = _predict_batch_never_called(monkeypatch)
    over_tokens = [["Anna"] * 1000, ["x"] * 20, ["y"] * (svc.MAX_REQUEST_TOKENS - 1019)]
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": over_tokens})
    assert status == 413 and body["error"].startswith(f"sentence 2 token {svc.MAX_REQUEST_TOKENS - 1020} is past")
    long = "a" * (svc.MAX_TOKEN_CHARS + 1)
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": [["Anna"], ["b", long]]})
    assert status == 413 and body["error"].startswith(f"sentence 1 token 1 has {svc.MAX_TOKEN_CHARS + 1} characters")
    assert calls == []


def test_a_request_at_both_limits_is_served(registry):
    # Distinct tokens, so that every one is its own key and char row.
    tokens = [f"{n:0{svc.MAX_TOKEN_CHARS}d}" for n in range(svc.MAX_REQUEST_TOKENS)]
    sentences = [tokens[lo : lo + 64] for lo in range(0, len(tokens), 64)]
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": sentences})
    assert status == 200 and [len(labels) for labels in body["labels"]] == [64] * (svc.MAX_REQUEST_TOKENS // 64)


def test_handle_request_unknown_model_lists_available(registry):
    status, body = svc.handle_ner_request(registry, {"model": "nope", "sentences": [["a"]]})
    assert status == 404
    assert body["models"] == ["germeval-outer"]


def _registry_with_cache(fixture_world, monkeypatch, rows) -> svc.ModelRegistry:
    monkeypatch.setattr(svc, "ROW_CACHE_ROWS", rows)
    return svc.ModelRegistry.load(fixture_world.registry_path)


def test_handle_request_reports_the_oov_rate(registry, fixture_world):
    known = [w for w in fixture_world.store.word_vectors][:3]
    unknown = ["Qxzvolk", "Zzyrrh"]
    assert not set(unknown) & set(fixture_world.store.word_vectors)
    status, body = svc.handle_ner_request(registry, {"model": "germeval-outer",
                                                     "sentences": [known + unknown[:1], unknown[1:]]})
    assert status == 200 and body["oov_rate"] == 2 / 5
    assert svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": []})[1]["oov_rate"] == 0.0


def test_handle_request_reports_the_share_of_keys_served_from_the_cache(registry):
    def cached_share(sentences):
        status, body = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": sentences})
        assert status == 200
        return body["cached_share"]

    entry = registry.get("germeval-outer")
    assert entry.cache.max_rows == svc.ROW_CACHE_ROWS
    assert entry.cache.model is entry.model and entry.cache.store is entry.store
    assert cached_share([["Anna", "besucht", "Aachen", "."]]) == 0.0
    assert cached_share([["Anna", "besucht", "Aachen", "."]]) == 1.0
    # Three of the four distinct keys were served before.
    assert cached_share([["Aachen", "besucht", "Qxzvolk", "Aachen", "."]]) == 3 / 4


def test_threads_sharing_an_evicting_cache_get_the_cold_cache_labels(fixture_world, monkeypatch):
    # 4 threads share an 8-row cache that evicts on nearly every request;
    # each request's labels must be those of a cold cache.
    requests = [[s.texts() for s in fixture_world.sentences[i : i + 1 + i % 3]]
                for i in range(0, len(fixture_world.sentences), 2)]
    want = []
    for sentences in requests:
        cold = _registry_with_cache(fixture_world, monkeypatch, 8)
        want.append(svc.handle_ner_request(cold, {"model": "germeval-outer", "sentences": sentences})[1]["labels"])
    registry = _registry_with_cache(fixture_world, monkeypatch, 8)
    got = [None] * len(requests)
    errors = []
    start = threading.Barrier(4)

    def worker(k):
        try:
            start.wait()
            for _ in range(3):
                for i in range(k, len(requests), 4):
                    status, body = svc.handle_ner_request(registry,
                                                          {"model": "germeval-outer", "sentences": requests[i]})
                    assert status == 200
                    assert got[i] is None or got[i] == body["labels"]
                    got[i] = body["labels"]
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the cache's steps too
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    assert got == want
    # A lost update would leave a slot held by two keys, or by none.
    assert sorted(registry.get("germeval-outer").cache._slots.values()) == list(range(8))


def test_requests_run_the_model_one_at_a_time(registry, monkeypatch):
    # 4 threads send requests; a wrapped predict_batch records how many
    # calls run at once, and yields while it runs so that others could.
    running, most, calls = [0], [0], []
    guard = threading.Lock()

    def predict_batch(*args, _fn=svc.predict_batch, **kwargs):
        with guard:
            running[0] += 1
            most[0] = max(most[0], running[0])
        try:
            time.sleep(0.002)
            return _fn(*args, **kwargs)
        finally:
            with guard:
                running[0] -= 1
                calls.append(1)

    monkeypatch.setattr(svc, "predict_batch", predict_batch)
    errors = []
    start = threading.Barrier(4)

    def worker(k):
        try:
            start.wait()
            for i in range(5):
                sentences = [["Anna", "besucht", "Aachen", "."], ["Aachen", "liegt", "im", "Westen"][: 1 + (i + k) % 4]]
                status, _ = svc.handle_ner_request(registry, {"model": "germeval-outer", "sentences": sentences})
                assert status == 200
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    assert len(calls) == 20 and most[0] == 1


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


@pytest.fixture()
def live_server(registry):
    server, thread = serve_in_thread(registry, "127.0.0.1", 0)
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()


def test_health_and_models_endpoints(live_server):
    status, body = _get(live_server + "/health")
    assert status == 200 and body == {"status": "ok"}
    status, body = _get(live_server + "/models")
    assert status == 200 and body == {"models": ["germeval-outer"]}


def test_post_ner_and_error_codes(live_server):
    status, body = _post(live_server + "/ner", {"model": "germeval-outer", "sentences": [["Aachen"]]})
    assert status == 200 and body["labels"] == [["B-LOC"]]
    status, body = _post(live_server + "/ner", {"model": "nope", "sentences": [["a"]]})
    assert status == 404
    status, body = _post(live_server + "/ner", {"model": "germeval-outer", "sentences": ["x"]})
    assert status == 400


@pytest.mark.parametrize("length", ["-1", "abc", "1_0"])
def test_post_rejects_invalid_content_length_without_reading(live_server, length):
    # The body is never sent: a server that tried to read it would block
    # until the socket timeout instead of answering.
    port = int(live_server.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(f"POST /ner HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode("ascii"))
        reply = sock.makefile("rb").readline()
    assert reply.split()[1] == b"400"


def test_post_rejects_an_oversized_body_without_reading(live_server):
    # As above, the body is never sent, so only a 413 sent before reading
    # it can come back.
    port = int(live_server.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(f"POST /ner HTTP/1.1\r\nHost: x\r\nContent-Length: {svc.MAX_BODY_BYTES + 1}\r\n\r\n"
                     .encode("ascii"))
        reply = sock.makefile("rb")
        status = reply.readline()
        while reply.readline() not in (b"\r\n", b""):
            pass
        body = json.loads(reply.read().decode("utf-8"))
    assert status.split()[1] == b"413"
    assert str(svc.MAX_BODY_BYTES) in body["error"]


def test_a_body_nested_past_the_json_decoders_depth_gets_a_400(live_server):
    # Brackets nested past the decoder's recursion limit, far under the
    # body limit: the request gets the malformed-body 400, not a dropped
    # connection, and the next request is served.
    nested = b"[" * 100_000 + b"]" * 100_000
    req = urllib.request.Request(live_server + "/ner", data=nested, headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=30)
    assert err.value.code == 400
    assert json.loads(err.value.read().decode("utf-8"))["error"].startswith("malformed JSON body")
    status, body = _post(live_server + "/ner", {"model": "germeval-outer", "sentences": [["Aachen"]]})
    assert status == 200 and body["labels"] == [["B-LOC"]]


def test_http_requests_run_on_the_server_thread_alone(registry, monkeypatch):
    # 4 clients send 5 requests each; every forward must run on one thread,
    # and the server must start no thread per connection.
    idents, counts = [], []

    def predict_batch(*args, _fn=svc.predict_batch, **kwargs):
        idents.append(threading.get_ident())
        counts.append(threading.active_count())
        return _fn(*args, **kwargs)

    monkeypatch.setattr(svc, "predict_batch", predict_batch)
    server, _ = serve_in_thread(registry, "127.0.0.1", 0)
    url = f"http://127.0.0.1:{server.server_address[1]}/ner"
    start = threading.Barrier(5)
    results = []

    def client(k):
        start.wait()
        for i in range(5):
            sentences = [["Anna", "besucht", "Aachen", "."][: 1 + (i + k) % 4]]
            results.append(_post(url, {"model": "germeval-outer", "sentences": sentences})[0])

    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        baseline = threading.active_count()  # the clients, the server and this thread
        start.wait()
        for th in threads:
            th.join(timeout=60)
    finally:
        server.shutdown()
        server.server_close()
    assert results == [200] * 20
    assert len(idents) == 20 and len(set(idents)) == 1
    assert max(counts) <= baseline


@pytest.fixture()
def short_timeout_server(registry, monkeypatch):
    monkeypatch.setattr(svc, "HANDLER_TIMEOUT_S", 0.5)
    server, _ = serve_in_thread(registry, "127.0.0.1", 0)
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def test_an_idle_connection_holds_the_server_for_one_timeout_at_most(short_timeout_server):
    # The idle connection is accepted first; the server gives up on it after
    # HANDLER_TIMEOUT_S and then answers the POST queued behind it.
    port = short_timeout_server
    with socket.create_connection(("127.0.0.1", port), timeout=10):
        started = time.perf_counter()
        status, body = _post(f"http://127.0.0.1:{port}/ner",
                             {"model": "germeval-outer", "sentences": [["Aachen"]]})
        waited = time.perf_counter() - started
    assert status == 200 and body["labels"] == [["B-LOC"]]
    assert 0.4 <= waited < 3.0


def test_a_stalled_body_gets_a_408(short_timeout_server):
    with socket.create_connection(("127.0.0.1", short_timeout_server), timeout=10) as sock:
        sock.sendall(b"POST /ner HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{}")
        reply = sock.makefile("rb").readline()
    assert reply.split()[1] == b"408"


def test_no_per_request_model_loads(registry, monkeypatch):
    # The registry is loaded once at startup; request handling must never
    # touch the loaders again.
    def explode(*args, **kwargs):
        raise AssertionError("model loaded during request handling")

    monkeypatch.setattr("gner.model.load_model", explode)
    monkeypatch.setattr("gner.service.load_model", explode)
    monkeypatch.setattr("gner.service.load_store", explode)
    entry_before = registry.get("germeval-outer")
    for _ in range(50):
        status, _ = svc.handle_ner_request(
            registry, {"model": "germeval-outer", "sentences": [["Aachen"]]}
        )
        assert status == 200
    assert registry.get("germeval-outer") is entry_before


def test_sixteen_concurrent_requests_identical(live_server):
    payload = {"model": "germeval-outer", "sentences": [["Anna", "besucht", "Aachen", "."]]}

    def call(_):
        return _post(live_server + "/ner", payload)

    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(call, range(16)))
    assert all(status == 200 for status, _ in results)
    labels = [tuple(map(tuple, body["labels"])) for _, body in results]
    assert len(set(labels)) == 1


def test_cli_predict_stdin(fixture_world, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Aachen liegt im Westen\n\nAnna besucht Aachen .\n"))
    rc = cli.main([
        "predict",
        "--model", str(fixture_world.model_path),
        "--embeddings", str(fixture_world.store_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "B-LOC O O O"
    assert out[1] == ""
    assert out[2].split()[0] == "B-PER"


@pytest.fixture
def ftxt_store_path(fixture_world, tmp_path):
    """The fixture's word vectors as a fasttext store with random buckets."""
    plain = fixture_world.store
    buckets = np.random.default_rng(8).normal(size=(32, plain.dim))
    store = EmbeddingStore(kind="fasttext", dim=plain.dim, word_vectors=plain.word_vectors,
                           ngram_buckets=buckets, bucket_count=32)
    path = tmp_path / "store.ftxt"
    write_fasttext_store(store, path)
    return path


def test_cli_predict_reads_the_store_kind_from_the_file(fixture_world, ftxt_store_path, monkeypatch, capsys):
    lines = ["Aachen liegt im Westen", "Anna besucht Bücherei ."]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    rc = cli.main(["predict", "--model", str(fixture_world.model_path), "--embeddings", str(ftxt_store_path)])
    assert rc == 0
    model, store = load_model(fixture_world.model_path), load_store(ftxt_store_path)
    assert store.kind == "fasttext"
    assert capsys.readouterr().out.splitlines() == [" ".join(predict(model, store, ln.split())) for ln in lines]


def test_cli_split_oov_reads_the_store_kind_from_the_file(fixture_world, ftxt_store_path, tmp_path, capsys):
    data = tmp_path / "data.tsv"
    write_germeval(fixture_world.sentences[:20], data)
    outputs = []
    for store_path in (fixture_world.store_path, ftxt_store_path):
        prefix = tmp_path / store_path.suffix[1:]
        assert cli.main(["split-oov", "--data", str(data), "--embeddings", str(store_path),
                         "--out-prefix", str(prefix)]) == 0
        outputs.append([Path(f"{prefix}.{part}.tsv").read_text(encoding="utf-8") for part in ("iv", "oov")])
    # Both stores list the same words, so buckets change nothing.
    assert outputs[0] == outputs[1]


def test_cli_train_records_the_store_kind(fixture_world, ftxt_store_path, tmp_path, capsys):
    write_germeval(fixture_world.sentences[:8], tmp_path / "train.tsv")
    write_germeval(fixture_world.sentences[8:12], tmp_path / "dev.tsv")
    config = {"train_path": "train.tsv", "dev_path": "dev.tsv", "embeddings": {"path": str(ftxt_store_path)},
              "model": {"char_variant": "none", "token_lstm_cells": 4, "dropout": 0.0},
              "training": {"stage1_epochs": 1, "stage2_epochs": 1, "stage1_batch": 8, "stage2_batch": 8}}
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "m.mner"
    assert cli.main(["train", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 0
    assert load_model(out).config.embedding_kind == "fasttext"
    # A declared kind, in "embeddings" or "model", is only checked.
    for key in ("embeddings", "model"):
        declared = {**config, key: {**config[key], "kind" if key == "embeddings" else "embedding_kind": "plain"}}
        (tmp_path / "run.json").write_text(json.dumps(declared), encoding="utf-8")
        assert cli.main(["train", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 1
        assert "declared kind 'plain', but the file is a 'fasttext' store" in capsys.readouterr().err


def test_cli_evaluate_gold_equals_pred(fixture_world, tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    from gner.corpus import write_germeval

    write_germeval(fixture_world.sentences[:10], gold)
    rc = cli.main(["evaluate", "--gold", str(gold), "--pred", str(gold)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FB1: 100.00" in out


def test_cli_evaluate_out_failing_midway_leaves_the_old_report_whole(fixture_world, tmp_path, monkeypatch, capsys):
    gold, out = tmp_path / "gold.tsv", tmp_path / "report.json"
    write_germeval(fixture_world.sentences[:10], gold)
    argv = ["evaluate", "--gold", str(gold), "--pred", str(gold), "--out", str(out)]
    assert cli.main(argv) == 0
    old = out.read_bytes()
    assert json.loads(old)["overall"]["f1"] == 1.0

    def full(fd):
        raise OSError("No space left on device")

    monkeypatch.setattr(os, "fsync", full)
    with pytest.raises(OSError, match="No space left"):
        cli.main([*argv, "--level", "inner"])
    assert out.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.tsv", "report.json"]


def test_cli_evaluate_rejects_a_prediction_shorter_than_its_gold_sentence(tmp_path, capsys):
    gold = Sentence([Token(t) for t in ("Anna", "liebt", "Aachen")], ["B-PER", "O", "B-LOC"])
    write_germeval([gold], tmp_path / "gold.tsv")
    write_germeval([Sentence(gold.tokens[:1], ["B-PER"])], tmp_path / "pred.tsv")
    assert cli.main(["evaluate", "--gold", str(tmp_path / "gold.tsv"), "--pred", str(tmp_path / "pred.tsv")]) == 1
    assert "sentence 1 has 3 gold labels but 1 predicted" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_cli_missing_file_mentions_path(capsys):
    rc = cli.main(["evaluate", "--gold", "/no/such/gold.tsv", "--pred", "/no/such/gold.tsv"])
    assert rc == 1
    assert "gold.tsv" in capsys.readouterr().err


def test_cli_train_round_trip(fixture_world, tmp_path, capsys):
    from gner.corpus import write_germeval
    from gner.model import load_model

    train_file = tmp_path / "train.tsv"
    dev_file = tmp_path / "dev.tsv"
    write_germeval(fixture_world.sentences[:16], train_file)
    write_germeval(fixture_world.sentences[16:22], dev_file)
    config = {
        "format": "germeval",
        "train_path": "train.tsv",
        "dev_path": "dev.tsv",
        "embeddings": {"path": str(fixture_world.store_path), "kind": "plain"},
        "model": {"char_variant": "cnn", "char_emb_dim": 4, "char_cnn_filters": 3,
                  "token_lstm_cells": 6, "dropout": 0.2},
        "training": {"stage1_epochs": 1, "stage2_epochs": 1, "stage1_batch": 8,
                     "stage2_batch": 16, "seed": 1},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_path = tmp_path / "model.mner"
    report_path = tmp_path / "report.jsonl"
    rc = cli.main([
        "train", "--config", str(config_path), "--out", str(out_path), "--report", str(report_path),
    ])
    assert rc == 0
    assert "best dev F1" in capsys.readouterr().out
    loaded = load_model(out_path)
    assert loaded.config.char_variant == "cnn"
    assert report_path.exists()


def _run_config(store_path, drop=None, **extra) -> str:
    config = {"train_path": "train.tsv", "dev_path": "dev.tsv",
              "embeddings": {"path": str(store_path), "kind": "plain"}, **extra}
    config.pop(drop, None)
    return json.dumps(config)


@pytest.mark.parametrize("text, message", [
    (lambda store: _run_config(store)[:-1], "not a JSON run configuration"),
    (lambda store: _run_config(store, drop="train_path"), "lacks train_path"),
    (lambda store: _run_config(store, drop="dev_path"), "lacks dev_path"),
    (lambda store: _run_config(store, drop="embeddings"), "lacks embeddings"),
    (lambda store: _run_config(store, model={"char_variant": "cnn", "cnn_kernels": [3]}),
     "unexpected keyword argument 'cnn_kernels'"),
    (lambda store: _run_config(store, training={"reset_stage2_optimizer": False}),
     "unexpected keyword argument 'reset_stage2_optimizer'"),
    (lambda store: _run_config(store, model={"dropout": "x"}), "dropout must be a number in [0, 1), got 'x'"),
    (lambda store: _run_config(store, model={"token_lstm_cells": "4"}),
     "token_lstm_cells must be an integer >= 1, got '4'"),
    (lambda store: _run_config(store, training={"stage1_epochs": "1"}), "stage1_epochs must be an integer, got '1'"),
    (lambda store: _run_config(store, schema="foo"), "unknown schema 'foo'"),
    (lambda store: _run_config(store, embeddings=str(store)), 'embeddings must be an object with a "path" string'),
    (lambda store: _run_config(store, embeddings={"kind": "plain"}), 'embeddings must be an object with a "path" string'),
    (lambda store: _run_config(store, embeddings={"path": 5}), 'embeddings must be an object with a "path" string'),
    (lambda store: _run_config(store, train_path=5), 'train_path entries must be paths or objects with a "path" string'),
    (lambda store: _run_config(store, dev_path=["dev.tsv", None]),
     'dev_path entries must be paths or objects with a "path" string, got None'),
    (lambda store: _run_config(store, train_path={"format": "conll"}),
     'train_path entries must be paths or objects with a "path" string'),
    (lambda store: _run_config(store, model=[]), "model must be an object, got []"),
    (lambda store: _run_config(store, training="fast"), "training must be an object, got 'fast'"),
    (lambda store: "[]", "not a JSON run configuration: expected an object"),
    (lambda store: _run_config(store, label_level="inner"), "unknown key(s) label_level"),
], ids=["not-json", "no-train", "no-dev", "no-embeddings", "unknown-model-key", "unknown-training-key",
        "string-dropout", "string-size", "string-epochs", "unknown-schema", "string-embeddings", "embeddings-no-path",
        "number-embeddings-path", "number-train", "null-dev-entry", "train-entry-no-path",
        "list-model", "string-training", "list-config", "unknown-top-level-key"])
def test_cli_train_reports_a_bad_run_configuration(fixture_world, tmp_path, capsys, text, message):
    config_path = tmp_path / "run.json"
    config_path.write_text(text(fixture_world.store_path), encoding="utf-8")
    for name in ("train.tsv", "dev.tsv"):
        write_germeval(fixture_world.sentences[:4], tmp_path / name)
    assert cli.main(["train", "--config", str(config_path), "--out", str(tmp_path / "m.mner")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: ") and message in err


def test_cli_train_rejects_a_negative_clip_norm_before_reading_a_corpus(fixture_world, tmp_path, capsys,
                                                                       monkeypatch):
    config_path = tmp_path / "run.json"
    config_path.write_text(_run_config(fixture_world.store_path, training={"gradient_clip_norm": -1}),
                           encoding="utf-8")
    read = []
    monkeypatch.setattr(cli, "_parse_corpus", lambda *args: read.append(args))
    assert cli.main(["train", "--config", str(config_path), "--out", str(tmp_path / "m.mner")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: gradient_clip_norm must be None or a finite number > 0, got -1")
    assert not read and not (tmp_path / "m.mner").exists()


def test_cli_train_combined_model_mixes_corpus_formats(fixture_world, tmp_path):
    from gner.corpus import write_germeval
    from gner.datagen import make_corpus
    from helpers import make_conll_corpus, write_conll03
    from gner.model import load_model

    germeval_sents = make_corpus(12, seed=5)
    conll_sents = make_conll_corpus(12, seed=6)
    write_germeval(germeval_sents, tmp_path / "ge.tsv")
    write_conll03(conll_sents, tmp_path / "co.txt")
    write_germeval(make_corpus(6, seed=7, split="dev"), tmp_path / "dev.tsv")
    config = {
        "format": "germeval",
        "combined_mapping": True,
        "train_path": ["ge.tsv", {"path": "co.txt", "format": "conll"}],
        "dev_path": "dev.tsv",
        "embeddings": {"path": str(fixture_world.store_path), "kind": "plain"},
        "model": {"char_variant": "none", "token_lstm_cells": 6, "dropout": 0.0},
        "training": {"stage1_epochs": 1, "stage2_epochs": 1, "stage1_batch": 8,
                     "stage2_batch": 16, "seed": 3},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "combined.mner"
    rc = cli.main(["train", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    model = load_model(out)
    assert model.config.label_schema.entity_classes == ("LOC", "MISC", "ORG", "OTH", "PER")


def test_cli_train_checks_every_entry_against_the_schema_before_loading_the_store(tmp_path, capsys):
    from gner.datagen import make_corpus
    from helpers import make_conll_corpus, write_conll03

    write_germeval(make_corpus(12, seed=5), tmp_path / "ge.tsv")
    write_conll03(make_conll_corpus(12, seed=6), tmp_path / "co.txt")
    write_germeval(make_corpus(6, seed=7, split="dev"), tmp_path / "dev.tsv")
    # The store does not exist, so a run that got as far as loading it
    # would fail on the missing file instead.
    config = {"format": "germeval", "train_path": ["ge.tsv", {"path": "co.txt", "format": "conll"}],
              "dev_path": "dev.tsv", "embeddings": {"path": "no-such-store.txt", "kind": "plain"}}
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["train", "--config", str(config_path), "--out", str(tmp_path / "m.mner")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'co.txt'}: sentence ") and "-MISC'" in err
    assert "which the run's schema over LOC, LOCderiv" in err and "no-such-store" not in err
    # Mapped onto the combined schema, the same entries pass the check.
    config_path.write_text(json.dumps({**config, "combined_mapping": True}), encoding="utf-8")
    assert cli.main(argv) == 1
    assert "no-such-store.txt" in capsys.readouterr().err


def test_serve_bind_resolution(monkeypatch):
    monkeypatch.delenv(cli.ENV_BIND, raising=False)
    monkeypatch.delenv(cli.ENV_PORT, raising=False)
    assert cli.resolve_bind(None, None) == ("127.0.0.1", 8080)
    monkeypatch.setenv(cli.ENV_BIND, "0.0.0.0")
    monkeypatch.setenv(cli.ENV_PORT, "9000")
    assert cli.resolve_bind(None, None) == ("0.0.0.0", 9000)
    # flags take precedence over the environment
    assert cli.resolve_bind("10.0.0.1", 7777) == ("10.0.0.1", 7777)


def test_serve_rejects_a_port_out_of_range_or_not_a_number(monkeypatch, fixture_world, capsys):
    registry = str(fixture_world.registry_path)
    monkeypatch.delenv(cli.ENV_PORT, raising=False)
    assert cli.main(["serve", "--registry", registry, "--port", "70000"]) == 1
    assert capsys.readouterr().err == "error: port 70000 is outside 0-65535\n"
    monkeypatch.setenv(cli.ENV_PORT, "80a")
    assert cli.main(["serve", "--registry", registry]) == 1
    assert capsys.readouterr().err == f"error: ${cli.ENV_PORT} is not a port number: '80a'\n"


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_serve_stops_cleanly_on_signal_even_when_started_with_sigint_ignored(fixture_world, signum):
    # A job started in the background by a non-interactive shell inherits
    # SIGINT ignored; the server must still stop on it, and on SIGTERM.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gner.cli", "serve", "--registry", str(fixture_world.registry_path), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        assert proc.stdout.readline().startswith("serving ['germeval-outer'] on http://127.0.0.1:")
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert err == ""


# The server forks on Linux only, where /proc lists the processes.
LINUX = hasattr(os, "sched_getaffinity")
CPUS = len(os.sched_getaffinity(0)) if LINUX else 1
needs_workers = pytest.mark.skipif(CPUS < 2, reason="the server forks no workers on one CPU or off Linux")


def _stat(path: Path) -> list[str]:
    """The fields of a /proc/<pid>/stat after "pid (comm)": state, ppid, ..."""
    return path.read_text().rsplit(")", 1)[1].split()


def _children(pid: int) -> set[int]:
    """Pids of the processes whose parent is ``pid``."""
    kids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(_stat(stat)[1]) == pid:
                kids.add(int(stat.parent.name))
        except OSError:  # the process ended meanwhile
            pass
    return kids


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        return _stat(Path(f"/proc/{pid}/stat"))[0] != "Z"
    except OSError:
        return False


@contextlib.contextmanager
def _server_process(registry_path, **popen):
    """``gner serve`` on a free port in a subprocess; yields (process, port,
    worker pids read once the serving line is out), and kills whatever of
    them is left when the block ends."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gner.cli", "serve", "--registry", str(registry_path), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, **popen,
    )
    workers = set()
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving ['germeval-outer'] on http://127.0.0.1:"), line
        workers = _children(proc.pid)
        yield proc, int(line.rsplit(":", 1)[1]), workers
    finally:
        # Workers first: one left running holds the pipes open.
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.communicate(timeout=30)


@needs_workers
def test_serve_forks_a_worker_per_further_cpu_and_all_answer_like_predict(fixture_world):
    model, store = load_model(fixture_world.model_path), load_store(fixture_world.store_path)
    sentences = [s.texts() for s in fixture_world.sentences[:40]]
    with _server_process(fixture_world.registry_path) as (proc, port, workers):
        assert len(workers) == CPUS - 1
        url = f"http://127.0.0.1:{port}/ner"
        with ThreadPoolExecutor(max_workers=2 * CPUS) as pool:
            replies = list(pool.map(lambda sent: _post(url, {"model": "germeval-outer", "sentences": [sent]}),
                                    sentences))
        assert all(_running(pid) for pid in workers)
    assert [status for status, _ in replies] == [200] * len(sentences)
    assert [body["labels"] for _, body in replies] == [[predict(model, store, sent)] for sent in sentences]


@needs_workers
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_stop_signal_to_the_server_stops_and_reaps_every_worker(fixture_world, signum):
    with _server_process(fixture_world.registry_path) as (proc, port, workers):
        assert len(workers) == CPUS - 1
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert err == ""
        assert not any(Path(f"/proc/{pid}").exists() for pid in workers)


@needs_workers
def test_workers_leave_within_two_seconds_of_their_parents_death(fixture_world):
    with _server_process(fixture_world.registry_path) as (proc, port, workers):
        assert len(workers) == CPUS - 1
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 2.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))


@pytest.mark.skipif(not LINUX, reason="needs sched_setaffinity and /proc")
def test_serve_on_one_cpu_forks_nothing(fixture_world):
    one_cpu = {min(os.sched_getaffinity(0))}
    pinned = _server_process(fixture_world.registry_path, preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
    with pinned as (proc, port, workers):
        assert workers == set()
        assert _get(f"http://127.0.0.1:{port}/health") == (200, {"status": "ok"})
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
    assert proc.returncode == 0


def test_cli_split_oov(fixture_world, tmp_path, capsys):
    gold = tmp_path / "data.tsv"
    from gner.corpus import write_germeval

    write_germeval(fixture_world.sentences[:20], gold)
    rc = cli.main([
        "split-oov",
        "--data", str(gold),
        "--embeddings", str(fixture_world.store_path),
        "--out-prefix", str(tmp_path / "split"),
    ])
    assert rc == 0
    assert "iv:" in capsys.readouterr().out
    assert (tmp_path / "split.iv.tsv").exists()
    assert (tmp_path / "split.oov.tsv").exists()
