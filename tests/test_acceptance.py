"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria that require licensed corpora or the multi-gigabyte public
embedding model accept environment overrides:

  GNER_GERMEVAL_DIR   directory with NER-de-train.tsv / NER-de-dev.tsv
  GNER_CONLL_DE       path to the German CoNLL'03 training file (IOB)
  GNER_FASTTEXT_STORE path to a fasttext store (binary, or FTXT1 text)

Without them, data-independent criteria run on synthetic fixtures in the
same file formats; the reduced-scale ablation (criterion 5), whose meaning
is tied to the official dev set, is skipped with a pointer to
scripts/run_ablation.py, and a synthetic directional check runs instead.
The full-scale reproduction (criterion 9) lives in
scripts/full_benchmark.py and is excluded here by design.
"""

import json
import os
import time
import urllib.request
from collections import Counter

import numpy as np
import pytest

from gner import crf
from gner import layers
from gner.corpus import (
    LabelSchema,
    Sentence,
    Token,
    batch_from_sentences,
    build_char_vocab,
    germeval_schema,
    iob_to_bio,
    parse_conll03,
    parse_germeval,
    write_germeval,
)
from gner.crf import crf_negative_log_likelihood
from gner.datagen import make_ambiguous_corpus, make_corpus, make_embedding_store
from gner.embeddings import EmbeddingStore, load_store, lookup_word
from gner.evaluation import evaluate_bio, extract_chunks, germeval_combined
from gner.model import CHAR_VARIANTS, ModelConfig, backward, build_model, forward_emissions, predict
from gner.service import ModelRegistry
from gner.training import NadamState, TrainConfig, batch_loss, evaluate_chunk_f1, train_epoch
from helpers import (
    bilstm_backward_padded,
    bilstm_padded,
    bio_to_iob1,
    char_table,
    conv_params,
    crf_params,
    lstm_params,
    make_conll_corpus,
    serve_in_thread,
    widened,
    write_conll03,
)
from oracles import brute_force_best_path, brute_force_log_z, check_gradient, path_score


def _report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# -------------------------------------------------------------------------
# 1. CRF oracle equivalence


def test_criterion_1_crf_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    for _ in range(200):
        T = int(rng.integers(1, 7))
        L = int(rng.integers(2, 6))
        params = crf_params(L)
        params.transitions[:] = rng.uniform(-2, 2, (L, L))
        params.start_scores[:] = rng.uniform(-2, 2, L)
        params.end_scores[:] = rng.uniform(-2, 2, L)
        emissions = rng.uniform(-2, 2, (T, L))

        # Each instance is a batch of one sentence.
        gold = [0] * T
        loss, _ = crf_negative_log_likelihood(params, emissions[None], [gold], [T])
        forward_log_z = loss + path_score(params, emissions, gold)
        assert abs(forward_log_z - brute_force_log_z(params, emissions)) <= 1e-9

        (path,), _ = crf.viterbi_decode(params, emissions[None], [T])
        brute_path, _ = brute_force_best_path(params, emissions)
        assert path == brute_path
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"200 instances, logZ within 1e-9, paths identical, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. Gradient suite at toy dims: word 8, casing 7, char 4, cells 4, L=5, T=6


_TOY_SCHEMA = LabelSchema(("LOC", "PER"))  # 5 labels


def _toy_model(variant, seed=7, token_lstm_cells=4):
    sents = _toy_sentences()
    vocab = build_char_vocab(sents)
    config = ModelConfig(
        label_schema=_TOY_SCHEMA,
        char_variant=variant,
        word_dim=8,
        char_emb_dim=4,
        char_cnn_filters=4,
        char_lstm_cells=4,
        token_lstm_cells=token_lstm_cells,
        dropout=0.5,
    )
    model = widened(build_model(config, vocab if variant != "none" else None, seed=seed))
    return model, vocab, config, sents


def _toy_sentences():
    return [
        Sentence(
            [Token(t) for t in ("Anna", "besucht", "Adlerburg", "und", "Belheim", ".")],
            ["B-PER", "O", "B-LOC", "O", "B-LOC", "O"],
        )
    ]


def _grad_check(loss_fn, params, grads, samples=50, return_stats=False):
    total = sum(p.size for p in params)
    assert total >= 50, f"check has only {total} scalar parameters"
    return check_gradient(
        loss_fn, params, grads, eps=1e-5, samples=samples, rng=np.random.default_rng(3), return_stats=return_stats
    )


def _emission_probe(model, store, weights):
    """A linear loss over train-mode emissions, with dropout from a fresh
    fixed-seed rng at every evaluation, and every parameter's gradient from
    the model's reverse sweep."""
    batch = batch_from_sentences(_toy_sentences(), model.char_vocab, model.config.required_char_mode)

    def run():
        em, cache = forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(5))
        return float((em * weights).sum()), cache

    _, cache = run()
    L = model.config.num_labels
    grads = backward(model, cache, (weights, np.zeros((L, L)), np.zeros(L), np.zeros(L)))
    return (lambda: run()[0]), grads


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(42)
    failures = []

    # embedding table
    table = char_table(15, 4, rng)
    idx = [1, 3, 3, 7, 12, 1]
    w = rng.uniform(-1, 1, (6, 4))
    err = _grad_check(lambda: float((layers.embed_lookup(table, idx) * w).sum()), [table],
                      [layers.embed_backward(table, idx, w)])
    failures += [("embed_lookup", err)] if err > 1e-4 else []

    # lstm cell: two steps, so the recurrent weights see a non-zero state;
    # one parameter set runs both directions, so its gradient is their sum
    p = lstm_params(8, 4, rng)
    x = rng.uniform(-1, 1, (1, 2, 8))
    wv = rng.uniform(-1, 1, (1, 2, 8))
    _, cache = bilstm_padded(p, p, x, [2], mode="train")
    _, (gf, gb) = bilstm_backward_padded(cache, wv, input_from=None)
    err = _grad_check(
        lambda: float((bilstm_padded(p, p, x, [2])[0] * wv).sum()),
        [p.w_input, p.w_recurrent, p.bias],
        [a + b for a, b in zip(gf, gb)],
    )
    failures += [("lstm_cell", err)] if err > 1e-4 else []

    # bilstm over a sequence of 4 steps padded to 6
    fwd, bwd = lstm_params(4, 4, rng), lstm_params(4, 4, rng)
    xs = rng.uniform(-1, 1, (1, 6, 4))
    wm = rng.uniform(-1, 1, (1, 6, 8))
    _, cache = bilstm_padded(fwd, bwd, xs, [4], mode="train")
    _, (gf, gb) = bilstm_backward_padded(cache, wm, input_from=None)
    err = _grad_check(
        lambda: float((bilstm_padded(fwd, bwd, xs, [4])[0] * wm).sum()),
        [fwd.w_input, fwd.w_recurrent, fwd.bias, bwd.w_input, bwd.w_recurrent, bwd.bias],
        [*gf, *gb],
    )
    failures += [("bilstm_sequence", err)] if err > 1e-4 else []

    # conv + global max pooling
    conv = conv_params(3, 4, 4, rng)
    cxs = rng.uniform(-1, 1, (1, 7, 4))
    wc = rng.uniform(-1, 1, (1, 4))
    _, cache = layers.conv1d_globalmaxpool(conv, cxs, [5], mode="train")
    _, d_kernels, d_bias = layers.conv1d_backward(cache, wc)
    err = _grad_check(
        lambda: float((layers.conv1d_globalmaxpool(conv, cxs, [5])[0] * wc).sum()),
        [conv.kernels, conv.bias],
        [d_kernels, d_bias],
    )
    failures += [("conv1d_globalmaxpool", err)] if err > 1e-4 else []

    # dense, as the model inlines it: hidden @ w + b over all positions,
    # (12, 5) weights behind a 6-cell token BiLSTM
    model, _, _, sents = _toy_model("none", token_lstm_cells=6)
    store = make_embedding_store(sents, dim=8, seed=1)
    loss_fn, grads = _emission_probe(model, store, rng.uniform(-1, 1, (1, 6, 5)))
    err = _grad_check(loss_fn, [model.dense_w, model.dense_b], [grads["dense.w"], grads["dense.b"]])
    failures += [("dense", err)] if err > 1e-4 else []

    # input dropout: the char embeddings reach the loss only through the
    # input-dropout mask, drawn the same at every evaluation
    model, _, _, sents = _toy_model("bilstm")
    store = make_embedding_store(sents, dim=8, seed=1)
    loss_fn, grads = _emission_probe(model, store, rng.uniform(-1, 1, (1, 6, 5)))
    err = _grad_check(loss_fn, [model.char_table], [grads["char_table.rows"]])
    failures += [("dropout", err)] if err > 1e-4 else []

    # crf loss wrt emissions and all parameters
    cp = crf_params(5)
    cp.transitions[:] = rng.uniform(-1, 1, (5, 5))
    cp.start_scores[:] = rng.uniform(-1, 1, 5)
    cp.end_scores[:] = rng.uniform(-1, 1, 5)
    em = rng.uniform(-1, 1, (1, 6, 5))
    gold = [[0, 1, 2, 3, 4, 0]]
    _, crf_grads = crf_negative_log_likelihood(cp, em, gold, [6])
    err = _grad_check(
        lambda: crf_negative_log_likelihood(cp, em, gold, [6])[0],
        [em, cp.transitions, cp.start_scores, cp.end_scores],
        crf_grads,
    )
    failures += [("crf_nll", err)] if err > 1e-4 else []

    # end-to-end train-mode loss for every variant, dropout from a fresh
    # fixed-seed rng at every evaluation
    for variant in CHAR_VARIANTS:
        model, vocab, config, sents = _toy_model(variant)
        store = make_embedding_store(sents, dim=8, seed=1)
        batch = batch_from_sentences(sents, vocab, config.required_char_mode)

        def loss():
            return batch_loss(model, batch, store, "outer", np.random.default_rng(5))

        _, grads = loss()
        err, stats = _grad_check(lambda: loss()[0], [p for _, p in model.parameters()], list(grads.values()),
                                 return_stats=True)
        failures += [(f"end-to-end/{variant}", err, stats)] if err > 1e-4 or stats["checked"] != 50 else []

    assert not failures, f"gradient checks failed: {failures}"
    _report(2, "all layers and end-to-end losses within 1e-4 (eps 1e-5, 50+ samples)")


# -------------------------------------------------------------------------
# 3. Evaluator fidelity on a hand-counted 20-sentence fixture


def test_criterion_3_evaluator_fidelity():
    pairs = [
        (["B-PER", "I-PER", "O"], ["B-PER", "I-PER", "O"]),        # TP PER
        (["B-LOC", "O"], ["B-LOC", "O"]),                          # TP LOC
        (["B-ORG", "I-ORG", "O"], ["B-ORG", "O", "O"]),            # span error: FP+FN ORG
        (["B-PER", "O"], ["B-LOC", "O"]),                          # class error: FN PER, FP LOC
        (["O", "O", "O"], ["O", "B-ORG", "O"]),                    # FP ORG
        (["B-LOC", "O"], ["O", "O"]),                              # FN LOC
        (["I-PER", "O"], ["B-PER", "O"]),                          # stray-I gold: TP PER
        (["B-LOC", "B-LOC"], ["B-LOC", "I-LOC"]),                  # FN LOC x2, FP LOC
        (["O"], ["O"]),
        (["B-ORG", "I-ORG", "I-ORG"], ["B-ORG", "I-ORG", "I-ORG"]),  # TP ORG
        (["B-PER", "O", "B-LOC"], ["B-PER", "O", "B-LOC"]),        # TP PER + TP LOC
        (["O", "B-PER"], ["O", "I-PER"]),                          # stray-I pred: TP PER
        (["B-LOC", "I-LOC"], ["B-LOC", "I-ORG"]),                  # FN LOC, FP LOC, FP ORG
        (["B-PER"], ["B-PER"]),                                    # TP PER
        (["B-ORG", "O", "B-ORG"], ["B-ORG", "O", "O"]),            # TP ORG, FN ORG
        (["O", "O"], ["B-PER", "I-PER"]),                          # FP PER
        (["B-LOC", "O", "B-PER", "I-PER"], ["B-LOC", "O", "B-PER", "I-PER"]),  # TP LOC + TP PER
        (["B-ORG", "I-ORG", "O", "B-LOC"], ["O", "B-ORG", "O", "B-LOC"]),      # TP LOC; FN+FP ORG
        (["I-LOC", "I-LOC", "O"], ["I-LOC", "I-LOC", "O"]),        # stray-I both: TP LOC
        (["B-PER", "I-PER", "B-PER"], ["B-PER", "B-PER", "B-PER"]),  # TP 1, FN 1, FP 2 (PER)
    ]
    assert len(pairs) == 20
    report = evaluate_bio([g for g, _ in pairs], [p for _, p in pairs])

    # Hand-computed tallies over the fixture above.
    assert (report.per_class["PER"].tp, report.per_class["PER"].fp, report.per_class["PER"].fn) == (7, 3, 2)
    assert (report.per_class["LOC"].tp, report.per_class["LOC"].fp, report.per_class["LOC"].fn) == (5, 3, 4)
    assert (report.per_class["ORG"].tp, report.per_class["ORG"].fp, report.per_class["ORG"].fn) == (2, 4, 3)
    assert (report.overall.tp, report.overall.fp, report.overall.fn) == (14, 10, 9)
    assert report.precision == 14 / 24
    assert report.recall == 14 / 23
    assert abs(report.f1 - 28 / 47) < 1e-15

    # Zero-division convention.
    empty = evaluate_bio([g for g, _ in pairs], [["O"] * len(g) for g, _ in pairs])
    assert empty.precision == 0.0 and empty.recall == 0.0 and empty.f1 == 0.0

    # Two-level combination, hand-pooled: TP=3, FP=2, FN=1.
    gold_outer = [["B-PER", "I-PER", "O"], ["B-ORG", "I-ORG", "O"], ["B-LOC", "O", "O"]]
    gold_inner = [["O", "O", "O"], ["O", "B-LOC", "O"], ["O", "O", "O"]]
    pred_outer = [["B-PER", "I-PER", "O"], ["B-ORG", "O", "O"], ["B-LOC", "O", "O"]]
    pred_inner = [["O", "O", "O"], ["O", "B-LOC", "O"], ["O", "B-OTH", "O"]]
    combined = germeval_combined(gold_outer, gold_inner, pred_outer, pred_inner)
    assert (combined.overall.tp, combined.overall.fp, combined.overall.fn) == (3, 2, 1)
    assert combined.precision == 3 / 5
    assert combined.recall == 3 / 4
    assert abs(combined.f1 - 2 / 3) < 1e-15
    _report(3, "hand-computed P/R/F1 and two-level pooling reproduced exactly")


# -------------------------------------------------------------------------
# 4. Overfit sanity: 50 sentences, char-variant bilstm, F1 >= 0.95 in 150 epochs


def test_criterion_4_overfit_sanity(tmp_path):
    started = time.perf_counter()
    src = os.environ.get("GNER_GERMEVAL_DIR")
    if src:
        sentences = parse_germeval(os.path.join(src, "NER-de-train.tsv"))[:50]
    else:
        path = tmp_path / "train.tsv"
        write_germeval(make_corpus(50, seed=11), path)
        sentences = parse_germeval(path)
    assert len(sentences) == 50

    store = make_embedding_store(sentences, dim=300, seed=11)
    vocab = build_char_vocab(sentences)
    config = ModelConfig(label_schema=germeval_schema(), char_variant="bilstm")
    model = build_model(config, vocab, seed=11)
    train_cfg = TrainConfig(seed=11)
    state = NadamState()

    reached = None
    for epoch in range(1, 151):
        train_epoch(model, sentences, store, train_cfg, stage=1, state=state, epoch_seed=4000 + epoch)
        f1 = evaluate_chunk_f1(model, sentences, store)
        if f1 >= 0.95:
            reached = (epoch, f1)
            break
    elapsed = time.perf_counter() - started
    assert reached is not None, "training F1 never reached 0.95 within 150 epochs"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _report(4, f"train F1 {reached[1]:.3f} at epoch {reached[0]}, {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 5. Reduced-scale ablation on the official dev set (env-gated) plus a
#    synthetic directional stand-in that always runs.


def _ablation_run(variant, train, dev, store, seed, config_kw, train_kw):
    vocab = build_char_vocab(train)
    config = ModelConfig(char_variant=variant, **config_kw)
    model = build_model(config, vocab if variant != "none" else None, seed=seed)
    tc = TrainConfig(seed=seed, **train_kw)
    state = NadamState()
    for epoch in range(1, tc.stage1_epochs + 1):
        train_epoch(model, train, store, tc, stage=1, state=state, epoch_seed=seed * 1000 + epoch)
    return evaluate_chunk_f1(model, dev, store)


def test_criterion_5_reduced_scale_ablation():
    src = os.environ.get("GNER_GERMEVAL_DIR")
    if not src:
        pytest.skip(
            "official GermEval'14 data not available (set GNER_GERMEVAL_DIR); "
            "run scripts/run_ablation.py against the official files; "
            "the synthetic directional check below still runs"
        )
    from gner.training import train_two_stage

    train = parse_germeval(os.path.join(src, "NER-de-train.tsv"))[:2000]
    dev = parse_germeval(os.path.join(src, "NER-de-dev.tsv"))
    store_path = os.environ.get("GNER_FASTTEXT_STORE")
    if store_path:
        store = load_store(store_path, "fasttext")
    else:
        store = make_embedding_store(train + dev, dim=300, seed=5, coverage="context")
    results = {}
    for variant in CHAR_VARIANTS:
        scores = []
        for seed in (1, 2, 3):
            vocab = build_char_vocab(train)
            model = build_model(
                ModelConfig(label_schema=germeval_schema(), char_variant=variant, word_dim=store.dim),
                vocab if variant != "none" else None,
                seed=seed,
            )
            best, _ = train_two_stage(model, train, dev, store, TrainConfig(seed=seed))
            scores.append(evaluate_chunk_f1(best, dev, store))
        results[variant] = float(np.mean(scores))
    baseline = results["none"]
    for variant in ("cnn", "cnn3", "bilstm", "bilstm2"):
        assert results[variant] >= baseline + 0.01, f"{variant}: {results[variant]} vs none {baseline}"
    _report(5, f"official-data ablation: {results}")


def test_char_ablation_direction_synthetic_stand_in():
    # Not criterion 5: synthetic corpora engineered so context alone cannot
    # resolve the entity class; verifies the machinery shows the paper-shaped
    # ordering (none < cnn < bilstm) with a gap of at least 1 F1 point.
    train = make_ambiguous_corpus(400, seed=21, split="train")
    dev = make_ambiguous_corpus(120, seed=22, split="dev")
    store = make_embedding_store(train + dev, dim=16, seed=21, coverage="context")
    schema = LabelSchema(("LOC", "ORG", "OTH", "PER"))
    config_kw = dict(
        label_schema=schema,
        word_dim=16,
        char_emb_dim=8,
        char_lstm_cells=12,
        char_cnn_filters=8,
        token_lstm_cells=24,
        dropout=0.3,
    )
    train_kw = dict(stage1_epochs=10, learning_rate=0.005)
    scores = {
        variant: _ablation_run(variant, train, dev, store, 31, config_kw, train_kw)
        for variant in ("none", "cnn", "bilstm")
    }
    assert scores["cnn"] >= scores["none"] + 0.01, scores
    assert scores["bilstm"] >= scores["none"] + 0.01, scores
    print(f"synthetic ablation stand-in: {scores}")


# -------------------------------------------------------------------------
# 6. fastText OOV inference against an independent oracle


def _oracle_infer(store, word):
    marked = "<" + word + ">"
    total = np.zeros(store.dim)
    count = 0
    for i in range(len(marked)):
        for n in range(store.min_n, store.max_n + 1):
            if i + n > len(marked):
                break
            h = 0x811C9DC5
            for byte in marked[i : i + n].encode("utf-8"):
                signed = byte - 256 if byte > 127 else byte
                h = (h ^ (signed % 2**32)) * 0x01000193 % 2**32
            total += store.ngram_buckets[h % store.bucket_count]
            count += 1
    assert count > 0
    return total / count


_PREFIXES = ("Straßen", "Früh", "Über", "Glücks", "Müll", "Schloß", "Bären", "Käse", "Vogel", "Grün")
_SUFFIXES = ("verein", "straße", "häuschen", "übung", "größe", "wörterbuch", "prüfung", "gefühl",
             "müdigkeit", "schönheit")


def test_criterion_6_fasttext_oov_inference():
    store_path = os.environ.get("GNER_FASTTEXT_STORE")
    if store_path:
        store = load_store(store_path, "fasttext")
    else:
        # Stand-in for a converted public model: same format, same addressing.
        rng = np.random.default_rng(66)
        vocab_words = ("der die das und oder in auf mit für von zu einer eines gehen haben "
                       "sein werden Stadt Land Haus Jahr Zeit Mensch Tag Hand Arbeit").split()
        store = EmbeddingStore(
            kind="fasttext",
            dim=300,
            word_vectors={w: rng.normal(size=300) for w in vocab_words},
            ngram_buckets=rng.normal(size=(2000, 300)),
            bucket_count=2000,
        )
    words = [p + s for p in _PREFIXES for s in _SUFFIXES]
    words = [w for w in words if w not in store.word_vectors][:100]
    assert len(words) == 100
    for word in words:
        vec, oov = lookup_word(store, word)
        assert oov
        oracle = _oracle_infer(store, word)
        cos = float(vec @ oracle / (np.linalg.norm(vec) * np.linalg.norm(oracle)))
        assert cos >= 0.999, f"{word}: cosine {cos}"
    _report(6, "100 OOV words match the independent n-gram/hashing oracle (cosine >= 0.999)")


# -------------------------------------------------------------------------
# 7. Schema conversion on a German CoNLL-format training file


def test_criterion_7_iob_conversion_preserves_chunks(tmp_path):
    src = os.environ.get("GNER_CONLL_DE")
    if src:
        sentences = parse_conll03(src)
    else:
        # Synthetic file in the distributed format: IOB tags, token first.
        bio = make_conll_corpus(300, seed=17)
        iob = [Sentence(s.tokens, bio_to_iob1(s.outer_labels), None, s.source_id) for s in bio]
        path = tmp_path / "conll_de_train.txt"
        write_conll03(iob, path)
        sentences = parse_conll03(path)
    assert len(sentences) >= 100

    converted_chunks = Counter()
    original_chunks = Counter()
    for i, s in enumerate(sentences):
        once = iob_to_bio(s.outer_labels)
        assert iob_to_bio(once) == once  # idempotent
        for c in extract_chunks(s.outer_labels):  # lenient reader understands IOB starts
            original_chunks[(i, c.cls, c.start, c.end)] += 1
        for c in extract_chunks(once):
            converted_chunks[(i, c.cls, c.start, c.end)] += 1
    assert converted_chunks == original_chunks
    _report(7, f"{len(sentences)} sentences: conversion idempotent, chunk multiset preserved")


# -------------------------------------------------------------------------
# 8. Service round-trip, latency, concurrency


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def test_criterion_8_service_round_trip(fixture_world):
    registry = ModelRegistry.load(fixture_world.registry_path)
    server, _ = serve_in_thread(registry, "127.0.0.1", 0)
    url = f"http://127.0.0.1:{server.server_address[1]}/ner"
    try:
        sentences = [
            ["Aachen", "liegt", "im", "Westen"],
            ["Anna", "besucht", "Aachen", "."],
            ["die", "Ulmwerke", "GmbH", "liegt", "im", "Osten", "."],
        ]
        status, body = _post(url, {"model": "germeval-outer", "sentences": sentences})
        assert status == 200
        offline = [predict(fixture_world.model, fixture_world.store, s) for s in sentences]
        assert body["labels"] == offline

        long_batch = [["Aachen", "liegt", "im", "Westen", "."] * 20]  # 100 tokens
        started = time.perf_counter()
        status, body = _post(url, {"model": "germeval-outer", "sentences": long_batch})
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert status == 200 and len(body["labels"][0]) == 100
        assert elapsed_ms < 500.0, f"latency {elapsed_ms:.0f}ms"

        from concurrent.futures import ThreadPoolExecutor

        payload = {"model": "germeval-outer", "sentences": sentences}
        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(lambda _: _post(url, payload), range(16)))
        assert all(s == 200 for s, _ in results)
        distinct = {tuple(map(tuple, b["labels"])) for _, b in results}
        assert len(distinct) == 1
    finally:
        server.shutdown()
    _report(8, f"3-sentence round trip identical, 100-token latency {elapsed_ms:.0f}ms, 16 concurrent identical")


# -------------------------------------------------------------------------
# 9. Full-scale reproduction: long-running benchmark, excluded by design


def test_criterion_9_full_scale_benchmark_documented():
    pytest.skip(
        "full-scale reproduction (outer F1 82.19 +/- 1.5, combined 80.83 +/- 1.5, "
        "CoNLL 85.19 +/- 1.5) is a long-running benchmark: see scripts/full_benchmark.py "
        "and README; excluded from the default suite by design"
    )
