import dataclasses
import io
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gner import cli
from gner import model as M
from gner.corpus import (
    PAD_INDEX,
    CorpusError,
    Sentence,
    Token,
    batch_from_sentences,
    build_char_vocab,
    conll_schema,
    germeval_schema,
)
from gner.datagen import make_corpus, make_embedding_store
from gner.embeddings import write_text_vectors
from gner.training import NadamState, TrainConfig, batch_loss, train_epoch
from helpers import bilstm_padded, fixture_training_sentences, widened
from oracles import check_gradient

# Largest |float32 - float64| emission difference allowed for one model run
# in both dtypes (measured at most 2e-5 at paper size).
PARITY_ATOL = 1e-4


def _toy_config(variant, schema=None, **overrides):
    defaults = dict(
        char_variant=variant,
        word_dim=8,
        char_emb_dim=4,
        char_cnn_filters=3,
        char_lstm_cells=4,
        token_lstm_cells=4,
        dropout=0.5,
    )
    defaults.update(overrides)
    return M.ModelConfig(label_schema=schema or conll_schema(), **defaults)


def _toy_setup(variant, n_sentences=3, seed=0):
    sents = make_corpus(n_sentences, seed=seed, with_subclasses=False)
    sents = [Sentence(s.tokens, [l.replace("OTH", "MISC") for l in s.outer_labels], None, s.source_id)
             for s in sents]
    vocab = build_char_vocab(sents)
    config = _toy_config(variant)
    model = M.build_model(config, vocab, seed=seed)
    store = make_embedding_store(sents, dim=8, seed=seed)
    batch = batch_from_sentences(sents, vocab, config.required_char_mode)
    return model, store, batch, sents


def _randomize_biases(model, seed):
    # Fresh biases are zero (forget gates one), which makes an all-pad
    # window or pad step yield exact zeros; trained biases do not.
    rng = np.random.default_rng(seed)
    for name, p in model.parameters():
        if name.endswith("bias"):
            p[:] = rng.uniform(-0.5, 0.5, p.shape)


def test_input_width_per_variant():
    schema = germeval_schema()
    assert M.ModelConfig(schema, char_variant="none").input_width == 307
    assert M.ModelConfig(schema, char_variant="cnn3").input_width == 403
    assert M.ModelConfig(schema, char_variant="bilstm").input_width == 407
    assert M.ModelConfig(schema, char_variant="cnn").input_width == 339
    assert M.ModelConfig(schema, char_variant="bilstm2").input_width == 407


def test_unknown_variant_rejected():
    with pytest.raises(M.ModelError, match="variant"):
        M.ModelConfig(conll_schema(), char_variant="transformer")


def test_eval_forward_is_deterministic():
    model, store, batch, _ = _toy_setup("bilstm")
    a = M.forward_emissions(model, batch, store, mode="eval")
    b = M.forward_emissions(model, batch, store, mode="eval")
    assert a.tobytes() == b.tobytes()


def test_emissions_shape_contract():
    model, store, batch, sents = _toy_setup("cnn")
    em = M.forward_emissions(model, batch, store, mode="eval")
    assert em.shape == (len(sents), batch.max_len, len(model.config.label_schema))


@pytest.mark.parametrize("variant", ["cnn3", "bilstm2"])
def test_eval_forward_returns_plain_emissions_and_keeps_no_cache(variant, monkeypatch):
    model, store, batch, sents = _toy_setup(variant)
    caches = []
    for name in ("bilstm_sequence", "conv1d_globalmaxpool"):
        def recorded(*args, _fn=getattr(M, name), **kwargs):
            *out, cache = _fn(*args, **kwargs)
            caches.append(cache)
            return *out, cache

        monkeypatch.setattr(M, name, recorded)
    em = M.forward_emissions(model, batch, store, mode="eval")
    assert type(em) is np.ndarray and em.shape == (len(sents), batch.max_len, model.config.num_labels)
    assert len(caches) >= 2 and all(c is None for c in caches)
    caches.clear()
    train_em, cache = M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(0))
    assert train_em.shape == em.shape and cache is not None
    assert len(caches) >= 2 and all(c is not None for c in caches)


@pytest.mark.parametrize("variant", ["none", "cnn", "bilstm"])
def test_token_bilstm_reads_a_row_table_and_never_a_padded_input(variant, monkeypatch):
    # In eval mode the token BiLSTM reads the key table itself, each key's
    # gate inputs; in train mode the keys' input rows, which it gathers into
    # one masked row per real position in its packed order and keeps, with
    # a mask per sentence, without dropout too.
    model, store, batch, _ = _toy_setup(variant)
    seen = []

    def recorded(fwd, bwd, x, index, lengths, _fn=M.bilstm_sequence, **kwargs):
        result = _fn(fwd, bwd, x, index, lengths, **kwargs)
        if fwd is model.token_fwd:
            seen.append((x, index, result))
        return result

    monkeypatch.setattr(M, "bilstm_sequence", recorded)
    width, real = model.config.input_width, batch.mask
    no_dropout = dataclasses.replace(model, config=dataclasses.replace(model.config, dropout=0.0))
    M.forward_emissions(model, batch, store, mode="eval")
    ((x, index, _),) = seen
    assert x.shape == (len(batch.keys), 8 * model.config.token_lstm_cells) and index is batch.token_keys
    seen.clear()
    M.forward_emissions(no_dropout, batch, store, mode="train")
    M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(0))
    assert len(seen) == 2
    for (x, index, (_, place, cache)), dropout in zip(seen, (False, True)):
        assert x.shape == (len(batch.keys), width) and index is batch.token_keys
        _, _, cached_place, _, _, _, rows, mask, _ = cache
        assert cached_place is place and rows.shape == (int(real.sum()), width)
        if dropout:
            assert mask.shape == (len(batch.sentences), width)
            np.testing.assert_array_equal(rows, x[index[place]] * mask[place[0]])
        else:
            assert mask is None
            np.testing.assert_array_equal(rows, x[index[place]])


@pytest.mark.parametrize("variant", ["none", "cnn", "bilstm"])
def test_word_vectors_looked_up_once_per_text(variant, monkeypatch):
    model, store, _, sents = _toy_setup(variant, n_sentences=6)
    sents = sents + [Sentence([Token(t) for t in ("Ulm", "mag", "Ulm")], ["O"] * 3)]
    batch = batch_from_sentences(sents, model.char_vocab, model.config.required_char_mode)
    looked_up = []

    def counted(store, text, _fn=M.lookup_word):
        looked_up.append(text)
        return _fn(store, text)

    monkeypatch.setattr(M, "lookup_word", counted)
    em = M.forward_emissions(model, batch, store, mode="eval")
    assert looked_up == list(dict.fromkeys(text for text, _, _ in batch.keys))
    assert len(looked_up) < int(batch.mask.sum())
    # "Ulm" opens and closes the last sentence: one key without the cnn
    # sentence marks, two with them, and one lookup either way.
    assert [text for text, _, _ in batch.keys].count("Ulm") == (2 if variant == "cnn" else 1)
    assert looked_up.count("Ulm") == 1
    monkeypatch.undo()
    np.testing.assert_array_equal(em, M.forward_emissions(model, batch, store, mode="eval"))


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_row_cache_gives_the_uncached_labels_cold_warm_and_evicting(variant):
    sents = make_corpus(48, seed=15, with_subclasses=False)
    sents = [Sentence(s.tokens, [l.replace("OTH", "MISC") for l in s.outer_labels], None, s.source_id)
             for s in sents]
    vocab = build_char_vocab(sents[:20])
    model = M.build_model(_toy_config(variant), vocab if variant != "none" else None, seed=15)
    _randomize_biases(model, 15)
    store = make_embedding_store(sents[:30], dim=8, seed=15)
    want = M.predict_batch(model, store, sents, batch_size=4)
    for cap in (10_000, 7):  # 7 rows evict within a batch of four sentences
        cache = M.RowCache(model, store, cap)
        cold = M.predict_batch(model, store, sents, batch_size=4, cache=cache)
        assert len(cache._slots) == min(cap, len({key for s in sents for key in _keys(model, [s])}))
        warm = M.predict_batch(model, store, sents, batch_size=4, cache=cache)
        assert cold == warm == want
    assert cache.hits and cache.lookups > cache.hits


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_eval_forward_without_a_cache_is_a_new_caches_bit_for_bit(variant):
    # Without a cache every key misses, as in a new cache, and both run the
    # one eval path: the same projection of the same rows.
    model, store, _, sents = _toy_setup(variant, n_sentences=8)
    _randomize_biases(model, 8)
    batch = batch_from_sentences(sents, model.char_vocab, model.config.required_char_mode)
    cache = M.RowCache(model, store, len(batch.keys))
    np.testing.assert_array_equal(M.forward_emissions(model, batch, store, cache=cache),
                                  M.forward_emissions(model, batch, store))
    assert cache.hits == 0 and len(cache._slots) == len(batch.keys)


def test_predict_batch_rejects_a_batch_size_below_one():
    model, store, _, sents = _toy_setup("cnn")
    for bad in (0, -1, 2.5, True):
        with pytest.raises(M.ModelError, match="batch_size"):
            M.predict_batch(model, store, sents, batch_size=bad)


def _keys(model, sents):
    return batch_from_sentences(sents, model.char_vocab, model.config.required_char_mode).keys


def test_row_cache_never_holds_more_than_its_cap():
    model, store, _, sents = _toy_setup("cnn", n_sentences=12)
    cache = M.RowCache(model, store, 5)
    for lo in range(0, len(sents), 3):
        M.predict_batch(model, store, sents[lo : lo + 3], cache=cache)
        assert len(cache._slots) == 5
    # The last batch's keys were used most recently, and they are the ones kept.
    last = _keys(model, sents[-3:])
    assert len(last) > 5 and set(cache._slots) <= set(last)


def test_row_cache_shared_by_threads_gives_each_key_its_own_row():
    # 4 threads take and put random keys through a 16-row cache; row i is
    # filled with i, so a race between a lookup and an eviction would copy
    # another key's row.
    model, store, _, _ = _toy_setup("none")
    cache = M.RowCache(model, store, 16)
    width = 8 * model.config.token_lstm_cells  # both directions' gate inputs
    errors = []
    start = threading.Barrier(4)

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            start.wait()
            for _ in range(400):
                ids = rng.choice(48, 6, replace=False)
                keys = [(f"w{i}", False, False) for i in ids]
                table = np.full((6, width), -1, dtype=model.dtype)
                miss = cache.take(keys, table)
                held = [u for u in range(6) if u not in miss]
                assert (table[held] == ids[held, None]).all()
                cache.put([keys[u] for u in miss], np.repeat(ids[miss, None], width, axis=1).astype(model.dtype))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    assert sorted(cache._slots.values()) == list(range(16))


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_row_cache_holds_each_keys_input_row_times_both_input_weights(variant):
    model, store, _, sents = _toy_setup(variant, n_sentences=6)
    _randomize_biases(model, 3)
    cache = M.RowCache(model, store, 1000)
    M.predict_batch(model, store, sents, batch_size=4, cache=cache)
    batch = batch_from_sentences(sents, model.char_vocab, model.config.required_char_mode)
    assert set(cache._slots) == set(batch.keys)
    for u, (text, first, last) in enumerate(batch.keys):
        parts = [M.lookup_word(store, text)[0], M.casing_features([text])[0]]
        if batch.char_mode is not None:
            parts.append(M._char_features(model, batch.chars_of([u]), "eval")[0][0])
        row = np.concatenate(parts).astype(model.dtype)
        want = np.concatenate([row @ model.token_fwd.w_input, row @ model.token_bwd.w_input])
        np.testing.assert_allclose(cache._rows[cache._slots[text, first, last]], want, rtol=0, atol=PARITY_ATOL)


def test_row_cache_keeps_float32_emissions_within_the_bound_at_paper_size():
    # A cached char feature was computed in a batch of other rows; at paper
    # size the emissions then differ from the uncached ones in the last
    # float32 bits (measured 1.5e-7 here, at most 5.7e-6 on the benchmark's
    # serve-oov dev pools), and the labels do not.
    sents = fixture_training_sentences() + make_corpus(60, seed=16)
    vocab = build_char_vocab(sents[:40])
    config = M.ModelConfig(label_schema=germeval_schema(), char_variant="bilstm")
    model = M.build_model(config, vocab, seed=16)
    _randomize_biases(model, 16)
    store = make_embedding_store(sents[:40], dim=config.word_dim, seed=16)
    batches = [batch_from_sentences(sents[lo : lo + 4], vocab, "rnn") for lo in range(0, len(sents), 4)]
    want = [M.forward_emissions(model, b, store) for b in batches]
    for cap in (100_000, 40):
        cache = M.RowCache(model, store, cap)
        for _ in ("cold", "warm"):
            for batch, em in zip(batches, want):
                np.testing.assert_allclose(M.forward_emissions(model, batch, store, cache=cache), em,
                                           rtol=0, atol=PARITY_ATOL)
        assert cache.hits
    labels = M.predict_batch(model, store, sents, batch_size=4)
    assert M.predict_batch(model, store, sents, batch_size=4, cache=cache) == labels


def test_row_cache_serves_only_the_eval_mode_of_its_own_model_and_store():
    model, store, batch, sents = _toy_setup("bilstm")
    other_model = M.build_model(model.config, model.char_vocab, seed=1)
    other_store = make_embedding_store(sents, dim=8, seed=1)
    for cache in (M.RowCache(other_model, store, 8), M.RowCache(model, other_store, 8)):
        with pytest.raises(M.ModelError, match="row cache"):
            M.predict_batch(model, store, sents, cache=cache)
    with pytest.raises(M.ModelError, match="row cache"):
        M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(0),
                            cache=M.RowCache(model, store, 8))
    for bad in (0, -1, 2.5, True):
        with pytest.raises(M.ModelError, match="max_rows"):
            M.RowCache(model, store, bad)


def test_char_mode_mismatch_rejected():
    model, store, _, sents = _toy_setup("bilstm")
    wrong = batch_from_sentences(sents, model.char_vocab, "cnn")
    with pytest.raises(M.ModelError, match="char-mode"):
        M.forward_emissions(model, wrong, store, mode="eval")


def test_masked_positions_carry_zero_gradient_into_token_lstm():
    model, store, batch, sents = _toy_setup("bilstm")
    longest = max(len(s) for s in sents)
    assert any(len(s) < longest for s in sents), "need ragged lengths"

    em, cache = M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(0))
    # A loss over the masked positions alone; its gradient path into the
    # token BiLSTM must vanish.
    d_em = np.where(batch.mask[..., None], 0.0, 1.0) * np.ones(em.shape)
    L = model.config.num_labels
    grads = M.backward(model, cache, (d_em, np.zeros((L, L)), np.zeros(L), np.zeros(L)))
    # Emissions past a length are exact zeros that no parameter feeds, the
    # dense bias included.
    for name, g in grads.items():
        assert not np.any(g), name


@pytest.mark.parametrize("variant", ["bilstm", "cnn"])
def test_an_eval_forward_holds_no_padded_activation(variant):
    # One 200-token sentence beside 63 one-token ones pads 12 600 token
    # positions to 263 real ones: a padded (64, 200, 400) float32 BiLSTM
    # output alone would take 20.5 MB.
    words = [t.text for s in make_corpus(200, seed=3) for t in s.tokens]
    sents = [Sentence([Token(w) for w in (words * 2)[:200]], ["O"] * 200)]
    sents += [Sentence([Token(w)], ["O"]) for w in words[200:263]]
    vocab = build_char_vocab(sents)
    config = M.ModelConfig(label_schema=germeval_schema(), char_variant=variant)
    model = M.build_model(config, vocab, seed=3)
    store = make_embedding_store(sents, dim=config.word_dim, seed=3)
    batch = batch_from_sentences(sents, vocab, config.required_char_mode)
    assert batch.mask.shape == (64, 200) and batch.mask.sum() == 263
    want = M.forward_emissions(model, batch, store)
    tracemalloc.start()
    try:
        em = M.forward_emissions(model, batch, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert em.tobytes() == want.tobytes()
    assert peak < 8e6, peak  # measured 2.6-2.8 MB


def test_a_char_bilstm_step_holds_no_padded_char_activation():
    # 600 two-letter keys and one key of 20 letters: at char_lstm_cells 50 a
    # (keys, 20, 100) float32 activation or gradient takes 4.8 MB.  The
    # training step's peak grows with the long key's real characters only,
    # not with the padding it forces on every other key.
    config = _toy_config("bilstm", germeval_schema(), word_dim=8, char_emb_dim=32, char_lstm_cells=50,
                         token_lstm_cells=8)
    texts = [a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghijklmnopqrstuvwxyz"][:600]

    def peak(first: str):
        sents = [Sentence([Token(t) for t in texts[i : i + 20]], ["O"] * 20) for i in range(0, 600, 20)]
        sents[0].tokens[0] = Token(first)
        vocab = build_char_vocab(sents)
        model = M.build_model(config, vocab, seed=1)
        store = make_embedding_store(sents, dim=8, seed=1)
        batch = batch_from_sentences(sents, vocab, "rnn")
        tracemalloc.start()
        try:
            batch_loss(model, batch, store, "outer", np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1], batch.chars_of(range(len(batch.keys))).shape
        finally:
            tracemalloc.stop()

    (wide, (keys, chars)), (narrow, shape) = peak("z" * 20), peak("zz")
    assert (keys, chars) == (600, 20) and shape == (600, 2)
    padded = keys * chars * 2 * config.char_lstm_cells * 4
    assert wide - narrow < padded / 4, (wide - narrow, padded)  # measured 0.28 of 4.8 MB


def test_a_paper_size_training_step_keeps_six_cells_per_position_and_direction():
    # BPTT keeps, per position and direction, the gates, the recurrent input
    # and the previous cell (6 * cells values), writes each step's gate
    # gradient over its gates, and the token BiLSTM gathers one masked row
    # per real position: a paper-size bilstm step over 1 066 tokens peaks at
    # 24.7 MiB (37.7 MiB when it also kept tanh(cell), built a fresh gate
    # gradient and held the masked rows twice).
    base = make_corpus(160, seed=27)
    sents = [Sentence([t for s in base[i : i + 5] for t in s.tokens],
                      [lab for s in base[i : i + 5] for lab in s.outer_labels]) for i in range(0, 160, 5)]
    vocab = build_char_vocab(sents)
    config = M.ModelConfig(label_schema=germeval_schema(), char_variant="bilstm")
    model = M.build_model(config, vocab, seed=27)
    store = make_embedding_store(sents, dim=config.word_dim, seed=27)
    batch = batch_from_sentences(sents, vocab, "rnn")
    tokens, cells = int(batch.mask.sum()), config.token_lstm_cells
    assert tokens == 1066
    _, (_, _, token, _) = M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(27))
    for kept in token[-1]:
        assert [a.shape for a in kept] == [(tokens, 4 * cells), (tokens, cells), (tokens, cells)]
    tracemalloc.start()
    try:
        batch_loss(model, batch, store, "outer", np.random.default_rng(27))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def test_emissions_invariant_to_padding_length():
    # A longer batch partner pads the sentence with more token positions and
    # every character row with more pad steps.
    model, store, _, sents = _toy_setup("bilstm")
    s = sents[0]
    longer = Sentence(s.tokens + [Token("Donaudampfschifffahrt")] * 5, s.outer_labels + ["O"] * 5)
    cfg = model.config
    plain = batch_from_sentences([s], model.char_vocab, cfg.required_char_mode)
    padded = batch_from_sentences([s, longer], model.char_vocab, cfg.required_char_mode)
    assert padded.max_len == len(s) + 5 and padded.char_indices.shape[2] > plain.char_indices.shape[2]
    em_plain = M.forward_emissions(model, plain, store, mode="eval")[0, : len(s)]
    em_padded = M.forward_emissions(model, padded, store, mode="eval")[0, : len(s)]
    np.testing.assert_allclose(em_plain, em_padded, atol=1e-12)


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_batched_forward_matches_single_sentence(variant):
    # Token lengths differ across the sentences, so each batching pads the
    # characters to a different width; character features read only real
    # characters, so batched and per-sentence emissions must still agree.
    sents = [
        Sentence([Token(t) for t in ("Anna", "mag", "Ulm", ".")], ["B-PER", "O", "B-LOC", "O"]),
        Sentence([Token(t) for t in ("Omar", "telefoniert", "Oberammergau", ".")], ["B-PER", "O", "B-LOC", "O"]),
        Sentence([Token(t) for t in ("hier", "ist", "es")], ["O", "O", "O"]),
        Sentence([Token("x")], ["O"]),
    ]
    vocab = build_char_vocab(sents)
    config = _toy_config(variant)
    model = M.build_model(config, vocab if variant != "none" else None, seed=4)
    _randomize_biases(model, 4)
    store = make_embedding_store(sents, dim=8, seed=4)
    big = batch_from_sentences(sents, vocab, config.required_char_mode)
    em_big = M.forward_emissions(model, big, store, mode="eval")
    for i, s in enumerate(sents):
        single = batch_from_sentences([s], vocab, config.required_char_mode)
        if variant != "none":
            assert single.char_indices.shape[2] < big.char_indices.shape[2] or i == 1
        em_one = M.forward_emissions(model, single, store, mode="eval")
        np.testing.assert_allclose(em_big[i, : len(s)], em_one[0, : len(s)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["bilstm", "bilstm2"])
def test_char_bilstm_reads_each_direction_where_it_ends(variant):
    # The forward half after the last character, the backward half after the
    # first (Lample et al., 2016), as when each token runs alone, unpadded.
    sents = [Sentence([Token("Ulm"), Token("Oberammergau")], ["B-LOC", "B-LOC"])]
    vocab = build_char_vocab(sents)
    model = M.build_model(_toy_config(variant), vocab, seed=8)
    _randomize_biases(model, 8)
    batch = batch_from_sentences(sents, vocab, "rnn")
    feat, _ = M._char_features(model, batch.chars_of(range(len(batch.keys))), "eval")
    c = model.config.char_lstm_cells
    for t, tok in enumerate(sents[0].tokens):
        idx = [vocab.lookup(ch) for ch in tok.text]
        out = model.char_table[idx][None]
        for fwd, bwd in model.char_lstms:
            out, _ = bilstm_padded(fwd, bwd, out, [len(idx)])
        want = np.concatenate([out[0, -1, :c], out[0, 0, c:]])
        np.testing.assert_allclose(feat[batch.token_keys[0, t]], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["cnn", "bilstm2"])
def test_train_char_submodel_runs_its_rows_sorted_whatever_the_key_order(variant):
    # The char submodel's weight gradients sum over its rows in the order
    # it runs them, so in train mode it sorts them: reversing the sentences
    # reverses the keys' first-occurrence order, not the rows'.
    model, store, _, sents = _toy_setup(variant, n_sentences=6)
    runs = []
    for group in (sents, sents[::-1]):
        batch = batch_from_sentences(group, model.char_vocab, model.config.required_char_mode)
        _, cache = M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(0))
        rows, *_, order = cache[-1]
        unpadded = [row[row != PAD_INDEX].tolist() for row in rows]
        assert unpadded == sorted(unpadded)
        np.testing.assert_array_equal(rows, batch.chars_of(order))
        runs.append((batch.keys, rows))
    (keys, rows), (other_keys, other_rows) = runs
    assert keys != other_keys and sorted(keys) == sorted(other_keys)
    np.testing.assert_array_equal(rows, other_rows)


@pytest.mark.parametrize("variant", ["cnn", "cnn3"])
def test_cnn_features_ignore_windows_past_the_token(variant):
    # Every window holding a real character scores below the bias and an
    # all-pad window scores the bias exactly, so pooling all-pad windows,
    # which only the longer partner's padding creates, would change "Ulm".
    short = Sentence([Token("Ulm")], ["B-LOC"])
    long = Sentence([Token("Donaudampfschifffahrt")], ["O"])
    vocab = build_char_vocab([short, long])
    config = _toy_config(variant)
    model = M.build_model(config, vocab, seed=5)
    model.char_table[1:] = np.abs(model.char_table[1:]) + 0.1
    for conv in model.char_convs:
        conv.kernels[:] = -np.abs(conv.kernels) - 0.1
        conv.bias[:] = 1.0
    store = make_embedding_store([short, long], dim=8, seed=5)

    def emissions(sents):
        batch = batch_from_sentences(sents, vocab, config.required_char_mode)
        return M.forward_emissions(model, batch, store)[0, :1]

    np.testing.assert_allclose(emissions([short, long]), emissions([short]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_predict_batch_independent_of_batch_size(variant):
    # The labels and emissions of a sentence do not depend on which other
    # sentences share its batch, nor on how wide they pad it.
    sents = make_corpus(64, seed=9, with_subclasses=False)
    sents = [Sentence(s.tokens, [l.replace("OTH", "MISC") for l in s.outer_labels], None, s.source_id)
             for s in sents]
    vocab = build_char_vocab(sents[:20])  # later sentences bring unknown characters
    config = _toy_config(variant)
    model = M.build_model(config, vocab if variant != "none" else None, seed=9)
    _randomize_biases(model, 9)
    store = make_embedding_store(sents, dim=8, seed=9)
    labels = {size: M.predict_batch(model, store, sents, batch_size=size) for size in (1, 7, 64)}
    assert labels[1] == labels[7] == labels[64]

    def emissions(size):
        out = []
        for lo in range(0, len(sents), size):
            group = sents[lo : lo + size]
            batch = batch_from_sentences(group, model.char_vocab, config.required_char_mode)
            em = M.forward_emissions(model, batch, store)
            out += [em[i, : len(s)] for i, s in enumerate(group)]
        return out

    alone = emissions(1)
    for size in (7, 64):
        for got, want in zip(emissions(size), alone):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def _germeval_shaped(n, seed):
    """``n`` sentences joined from generated ones up to log-normal target
    lengths (median 13.5, a tail past 40), as GermEval's are distributed."""
    rng = np.random.default_rng(seed)
    targets = np.clip(np.rint(13.5 * np.exp(0.55 * rng.standard_normal(n))), 1, 80).astype(int)
    base = iter(make_corpus(int(targets.sum()) // 3 + 16, seed=seed))
    out = []
    for target in targets:
        tokens, labels = [], []
        while len(tokens) < target:
            part = next(base)
            tokens += part.tokens
            labels += [lab.replace("OTH", "MISC") for lab in part.outer_labels]
        out.append(Sentence(tokens, labels))
    return out


@pytest.mark.parametrize("variant", ["bilstm", "cnn"])
def test_paper_size_float32_labels_do_not_depend_on_the_batch(variant):
    # Alone and in batches of 2, 4 and 64: the same labels, and emissions at
    # real positions within the float32 parity bound (a sentence's rows run
    # in matmuls of other sizes, so the last bits may differ; measured at
    # most 4.5e-7 here).
    sents = _germeval_shaped(64, seed=25)
    vocab = build_char_vocab(sents[:40])  # later sentences bring unknown characters
    config = M.ModelConfig(label_schema=germeval_schema(), char_variant=variant)
    model = M.build_model(config, vocab, seed=25)
    _randomize_biases(model, 25)
    store = make_embedding_store(sents[:40], dim=config.word_dim, seed=25)
    assert max(len(s) for s in sents) > 40 > 2 * np.median([len(s) for s in sents])

    def emissions(size):
        out = []
        for lo in range(0, len(sents), size):
            group = sents[lo : lo + size]
            batch = batch_from_sentences(group, vocab, config.required_char_mode)
            em = M.forward_emissions(model, batch, store)
            out += [em[i, : len(s)] for i, s in enumerate(group)]
        return out

    labels = {size: M.predict_batch(model, store, sents, batch_size=size) for size in (1, 2, 4, 64)}
    assert labels[1] == labels[2] == labels[4] == labels[64]
    assert len({lab for row in labels[1] for lab in row}) > 3
    alone = emissions(1)
    for size in (2, 4, 64):
        for got, want in zip(emissions(size), alone, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=PARITY_ATOL)


def test_none_variant_emissions_and_labels_independent_of_batch_partners():
    # Without character features nothing but the token mask depends on the
    # batch, so a sentence padded next to a much longer one must score as it
    # does alone, and predict must agree with predict_batch.
    sents = make_corpus(8, seed=6, with_subclasses=False)
    sents = [Sentence(s.tokens, [l.replace("OTH", "MISC") for l in s.outer_labels], None, s.source_id)
             for s in sents]
    long = Sentence([t for s in sents for t in s.tokens], [l for s in sents for l in s.outer_labels])
    model = M.build_model(_toy_config("none"), None, seed=6)
    store = make_embedding_store(sents, dim=8, seed=6)
    assert len(long) > 4 * max(len(s) for s in sents)
    for s in sents:
        alone = M.forward_emissions(model, batch_from_sentences([s]), store)[0]
        mixed = M.forward_emissions(model, batch_from_sentences([long, s]), store)[1, : len(s)]
        np.testing.assert_allclose(mixed, alone, rtol=0, atol=1e-12)
    batched = M.predict_batch(model, store, [long] + sents)
    assert batched == [M.predict(model, store, s.texts()) for s in [long] + sents]


def test_variant_none_ignores_char_inputs():
    sents = make_corpus(3, seed=1, with_subclasses=False)
    sents = [Sentence(s.tokens, [l.replace("OTH", "MISC") for l in s.outer_labels], None, s.source_id)
             for s in sents]
    vocab = build_char_vocab(sents)
    config = _toy_config("none")
    model = M.build_model(config, None, seed=0)
    store = make_embedding_store(sents, dim=8)
    bare = batch_from_sentences(sents)
    with_chars = batch_from_sentences(sents, vocab, "rnn")
    a = M.forward_emissions(model, bare, store, mode="eval")
    b = M.forward_emissions(model, with_chars, store, mode="eval")
    np.testing.assert_array_equal(a, b)


def test_predict_single_token_and_schema_labels():
    model, store, _, _ = _toy_setup("cnn3")
    labels = M.predict(model, store, ["Adlerburg"])
    assert len(labels) == 1
    schema_labels = set(model.config.label_schema.labels)
    assert all(lab in schema_labels for lab in labels)
    with pytest.raises(M.ModelError, match="empty"):
        M.predict(model, store, [])


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_end_to_end_gradient_check_all_variants(variant):
    # Toy dims: word 8, casing 7, char 4, cells 4, L = 9 (conll schema), T <= 6.
    sents = [
        Sentence([Token(t) for t in ("Anna", "besucht", "Adlerburg", ".")],
                 ["B-PER", "O", "B-LOC", "O"]),
        Sentence([Token(t) for t in ("die", "Ulmwerke", "GmbH", "gewinnt", "heute", ".")],
                 ["O", "B-ORG", "I-ORG", "O", "O", "O"]),
    ]
    vocab = build_char_vocab(sents)
    config = _toy_config(variant)
    model = widened(M.build_model(config, vocab if variant != "none" else None, seed=3))
    store = make_embedding_store(sents, dim=8, seed=3)
    batch = batch_from_sentences(sents, vocab, config.required_char_mode)

    def loss():
        # Train mode, with the dropout masks drawn the same at every evaluation.
        return batch_loss(model, batch, store, "outer", np.random.default_rng(1))

    _, grads = loss()
    # The char table's padding row is frozen: its gradient is zero, which
    # is checked here, and the finite differences cover the other rows.
    if variant != "none":
        np.testing.assert_array_equal(grads["char_table.rows"][PAD_INDEX], 0.0)
    params = [p[PAD_INDEX + 1 :] if name == "char_table.rows" else p for name, p in model.parameters()]
    analytic = [g[PAD_INDEX + 1 :] if name == "char_table.rows" else g for name, g in grads.items()]
    err, stats = check_gradient(lambda: loss()[0], params, analytic, eps=1e-5, samples=60,
                                rng=np.random.default_rng(0), return_stats=True)
    assert stats["checked"] == 60, f"{variant}: {stats}"
    assert err <= 1e-4, f"{variant}: max rel error {err}"


def test_save_load_round_trip_predictions(tmp_path):
    model, store, _, sents = _toy_setup("bilstm", n_sentences=5)
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    loaded = M.load_model(path)
    for s in sents:
        assert M.predict(model, store, s.texts()) == M.predict(loaded, store, s.texts())
    # Loaded parameters are float32, bit-equal to the float32 rounding of the
    # originals, and a second save/load cycle is bit-stable.
    originals = dict(model.parameters())
    for name, p in loaded.parameters():
        assert p.dtype == np.float32, name
        assert p.tobytes() == originals[name].astype(np.float32).tobytes(), name
    path2 = tmp_path / "model2.mner"
    M.save_model(loaded, path2)
    again = dict(M.load_model(path2).parameters())
    for name, p in loaded.parameters():
        assert again[name].dtype == np.float32 and again[name].tobytes() == p.tobytes(), name


def test_a_model_write_failing_midway_leaves_the_old_file_whole(tmp_path):
    model, _, _, _ = _toy_setup("bilstm")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    old = path.read_bytes()

    class Unwritable:  # a parameter block whose bytes cannot be had
        shape = (2,)

        def __array__(self, *args, **kwargs):
            raise OSError("No space left on device")

    named = model.named_parameters
    broken = dataclasses.replace(model, named_parameters=[*named[:3], ("dense.w", Unwritable()), *named[3:]])
    with pytest.raises(OSError, match="No space left"):
        M.save_model(broken, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.mner"]


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_loaded_float32_model_matches_its_float64_widening(tmp_path, variant):
    # The same paper-size parameters run in both dtypes: the loaded float32
    # model, and its exact widening to float64.  Random biases keep pad
    # faults visible.
    sents = fixture_training_sentences() + make_corpus(40, seed=12)
    vocab = build_char_vocab(sents[:30])  # later sentences bring unknown characters
    config = M.ModelConfig(label_schema=germeval_schema(), char_variant=variant)
    model = M.build_model(config, vocab if variant != "none" else None, seed=12)
    _randomize_biases(model, 12)
    M.save_model(model, tmp_path / "model.mner")
    narrow = M.load_model(tmp_path / "model.mner")
    wide = widened(narrow)
    assert (narrow.dtype, wide.dtype) == (np.float32, np.float64)
    store = make_embedding_store(sents, dim=config.word_dim, seed=12)
    labels = M.predict_batch(narrow, store, sents)
    assert labels == M.predict_batch(wide, store, sents)
    assert len({lab for row in labels for lab in row}) > 3
    for lo in range(0, len(sents), 16):
        batch = batch_from_sentences(sents[lo : lo + 16], vocab, config.required_char_mode)
        em32, em64 = (M.forward_emissions(m, batch, store) for m in (narrow, wide))
        assert (em32.dtype, em64.dtype) == (np.float32, np.float64)
        np.testing.assert_allclose(em32, em64, rtol=0, atol=PARITY_ATOL)


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_built_model_trains_in_float32(variant):
    # Parameters, gradients and Nadam moments all stay float32: nothing on
    # the training path upcasts.
    model, store, batch, sents = _toy_setup(variant)
    _, grads = batch_loss(model, batch, store, "outer", np.random.default_rng(0))
    assert list(grads) == [name for name, _ in model.parameters()]
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
    state = NadamState()
    train_epoch(model, sents, store, TrainConfig(stage1_batch=2), stage=1, state=state)
    assert state.step == 2 and list(state.m) == list(grads)
    for name, p in model.parameters():
        assert p.dtype == state.m[name].dtype == state.v[name].dtype == np.float32, name


@pytest.mark.parametrize("variant", M.CHAR_VARIANTS)
def test_float32_batch_loss_matches_its_float64_widening(variant):
    # One paper-size training batch run in both dtypes on the same
    # parameters, dropout from the same fixed rng.  Measured worst cases:
    # loss 7.5e-9 relative (cnn3), gradients 1.4e-6 of their parameter's
    # largest float64 gradient entry (bilstm2).
    sents = make_corpus(32, seed=13)
    vocab = build_char_vocab(sents)
    config = M.ModelConfig(label_schema=germeval_schema(), char_variant=variant)
    narrow = M.build_model(config, vocab if variant != "none" else None, seed=13)
    wide = widened(narrow)
    store = make_embedding_store(sents, dim=config.word_dim, seed=13)
    batch = batch_from_sentences(sents, vocab, config.required_char_mode)
    (loss32, grads32), (loss64, grads64) = (batch_loss(m, batch, store, "outer", np.random.default_rng(13))
                                            for m in (narrow, wide))
    assert abs(loss32 - loss64) <= 1e-8 * abs(loss64)
    for name, g in grads64.items():
        assert (grads32[name].dtype, g.dtype) == (np.float32, np.float64), name
        assert np.abs(grads32[name] - g).max() <= 1e-5 * np.abs(g).max(), name


def test_float32_trained_model_round_trips_bit_equal_and_trains_on(tmp_path):
    model, store, _, sents = _toy_setup("cnn")
    train_epoch(model, sents, store, TrainConfig(stage1_batch=2), stage=1, epoch_seed=1)
    M.save_model(model, tmp_path / "model.mner")
    loaded = M.load_model(tmp_path / "model.mner")
    trained = model.snapshot()
    for name, p in loaded.parameters():
        assert p.dtype == np.float32 and p.tobytes() == trained[name].tobytes(), name
    # The loaded model trains on exactly as the one that was saved.
    for m in (model, loaded):
        train_epoch(m, sents, store, TrainConfig(stage1_batch=2), stage=1, epoch_seed=2)
    again = model.snapshot()
    for name, p in loaded.parameters():
        assert p.dtype == np.float32 and p.tobytes() == again[name].tobytes(), name
    assert any(not np.array_equal(again[name], trained[name]) for name in trained)


def test_a_model_whose_parameters_mix_dtypes_runs_in_neither_mode():
    model, store, batch, _ = _toy_setup("cnn")
    arrays = dict(model.parameters())
    mixed = M._assemble(model.config, model.char_vocab,
                        lambda name, shape: arrays[name].astype(np.float64) if name == "dense.b" else arrays[name])
    for mode in ("eval", "train"):
        with pytest.raises(M.ModelError, match="mix dtypes"):
            M.forward_emissions(mixed, batch, store, mode=mode, rng=np.random.default_rng(0))


def test_load_rejects_bad_magic(tmp_path):
    model, _, _, _ = _toy_setup("cnn")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[0:5] = b"XXXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(M.ModelFormatError, match="magic"):
        M.load_model(path)


def test_load_rejects_version_1_and_asks_for_retraining(tmp_path):
    # Version 1 models were trained on character features that read the
    # padding; their weights do not fit the padding-free features.
    model, _, _, _ = _toy_setup("bilstm")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    raw = path.read_bytes()
    old = raw.replace(b'"version": 2', b'"version": 1', 1)
    assert old != raw
    path.write_bytes(old)
    with pytest.raises(M.ModelFormatError, match="retrained"):
        M.load_model(path)


def _with_header(raw: bytes, header: bytes, length: bytes | None = None) -> bytes:
    """Replace the JSON header of a saved model, keeping the magic and the
    parameter blocks."""
    magic, old_len, rest = raw.split(b"\n", 2)
    body = rest[int(old_len) :]
    return b"\n".join([magic, length if length is not None else str(len(header)).encode(), header + body])


@pytest.mark.parametrize("header, length", [
    (b'\xff\xfe{"version": 2}', None),
    (b'{"version": 2', None),
    (b'{"version": 2}', None),
    (b'[2]', None),
    (b'{"version": 2, "config": {"char_variant": "cnn"}, "char_vocab": null, "params": []}', None),
    (b'{"version": 2}', b"-5"),
    *[(b'{"version": 2, "config": {"entity_classes": ["LOC"], %s}, "char_vocab": ["x"], "params": []}' % field, None)
      for field in (b'"word_dim": "8"', b'"char_lstm_cells": true', b'"dropout": "x"', b'"dropout": 1.0',
                    b'"char_variant": "lstm"')],
], ids=["not-utf8", "bad-json", "missing-fields", "not-an-object", "config-without-classes", "negative-length",
        "string-size", "bool-size", "string-dropout", "dropout-of-one", "unknown-variant"])
def test_load_reports_corrupt_header_as_format_error(tmp_path, header, length):
    model, _, _, _ = _toy_setup("cnn")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    path.write_bytes(_with_header(path.read_bytes(), header, length))
    with pytest.raises(M.ModelFormatError, match="header"):
        M.load_model(path)


@pytest.mark.parametrize("variant", ["cnn", "cnn3", "bilstm"])
def test_load_checks_the_derived_config_keys_of_older_headers(tmp_path, variant):
    # Version-2 files written while the char CNN kernels and the casing width
    # were settable carry both; they load when they hold the derived values.
    model, store, _, sents = _toy_setup(variant)
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    raw = path.read_bytes()
    _, length, rest = raw.split(b"\n", 2)
    header = json.loads(rest[: int(length)])
    kernels = list(model.config.char_cnn_kernels)
    for extra in ({"char_cnn_kernels": None, "casing_dim": 7}, {"char_cnn_kernels": kernels, "casing_dim": 7}):
        header["config"].update(extra)
        path.write_bytes(_with_header(raw, json.dumps(header).encode()))
        loaded = M.load_model(path)
        assert loaded.config.char_cnn_kernels == model.config.char_cnn_kernels
        assert M.predict_batch(loaded, store, sents) == M.predict_batch(model, store, sents)
    for extra in ({"casing_dim": 8}, {"casing_dim": 7, "char_cnn_kernels": kernels + [6]}):
        header["config"].update(extra)
        path.write_bytes(_with_header(raw, json.dumps(header).encode()))
        with pytest.raises(M.ModelFormatError, match="char_cnn_kernels .* and casing_dim"):
            M.load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["params"].reverse(), "do not match the configured architecture"),
    (lambda h: h["params"].pop(), "do not match the configured architecture"),
    (lambda h: h["params"].append({"name": "extra", "shape": [1]}), "do not match the configured architecture"),
    (lambda h: h["params"][-1].update(shape=[3]), r"crf.end has shape \(3,\), expected \(9,\)"),
    (lambda h: h.update(char_vocab=None), "needs a character vocabulary"),
], ids=["reordered", "missing", "extra", "wrong-shape", "no-char-vocab"])
def test_load_checks_declared_parameters_against_the_architecture(tmp_path, edit, message):
    model, _, _, _ = _toy_setup("cnn")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    raw = path.read_bytes()
    _, length, rest = raw.split(b"\n", 2)
    header = json.loads(rest[: int(length)])
    edit(header)
    path.write_bytes(_with_header(raw, json.dumps(header).encode()))
    with pytest.raises(M.ModelFormatError, match=message):
        M.load_model(path)


def test_load_rejects_trailing_bytes(tmp_path):
    model, _, _, _ = _toy_setup("cnn")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(M.ModelFormatError, match="trailing bytes"):
        M.load_model(path)


def test_cli_predict_reports_corrupt_model_without_traceback(tmp_path, capsys):
    model, _, _, _ = _toy_setup("cnn")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    path.write_bytes(_with_header(path.read_bytes(), b'{"version": 2}'))
    rc = cli.main(["predict", "--model", str(path), "--embeddings", str(tmp_path / "unused.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed header")


def test_cli_predict_reports_a_directory_model_without_traceback(tmp_path, capsys):
    rc = cli.main(["predict", "--model", str(tmp_path), "--embeddings", str(tmp_path / "unused.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_predict_reports_store_dimension_mismatch(tmp_path, capsys, monkeypatch):
    model, _, _, sents = _toy_setup("none")  # word_dim 8
    M.save_model(model, tmp_path / "model.mner")
    write_text_vectors(make_embedding_store(sents, dim=5, seed=0), tmp_path / "v5.txt")
    monkeypatch.setattr("sys.stdin", io.StringIO("Anna besucht Adlerburg\n"))
    rc = cli.main(["predict", "--model", str(tmp_path / "model.mner"), "--embeddings", str(tmp_path / "v5.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: embedding store has dimension 5, the model's word_dim is 8")


def test_load_rejects_truncated_file(tmp_path):
    model, _, _, _ = _toy_setup("cnn")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 20])
    with pytest.raises(M.ModelFormatError, match="truncated"):
        M.load_model(path)


def test_load_checks_declared_sizes_against_the_file(tmp_path):
    # A header length or parameter block larger than the rest of the file is
    # a truncated file, found before anything is allocated for it.
    model, _, _, _ = _toy_setup("none")
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    raw = path.read_bytes()
    _, length, rest = raw.split(b"\n", 2)
    path.write_bytes(_with_header(raw, rest[: int(length)], b"99999999999"))
    with pytest.raises(M.ModelFormatError, match="truncated model file: expected 99999999999 bytes for header"):
        M.load_model(path)

    config = dataclasses.replace(model.config, token_lstm_cells=10**8)
    shapes = []
    M._assemble(config, None, lambda name, shape: shapes.append((name, shape)) or np.broadcast_to(np.float32(0), shape))
    header = json.loads(rest[: int(length)])
    header.update(config=config.to_dict(), params=[{"name": n, "shape": list(s)} for n, s in shapes])
    path.write_bytes(_with_header(raw, json.dumps(header).encode()))
    with pytest.raises(M.ModelFormatError, match=r"expected \d{11,} bytes for token_lstm.fwd.w_input"):
        M.load_model(path)


def test_schema_guard_on_foreign_labels(tmp_path):
    model, _, _, _ = _toy_setup("bilstm")  # conll schema
    path = tmp_path / "model.mner"
    M.save_model(model, path)
    loaded = M.load_model(path)
    with pytest.raises(CorpusError, match="LOCderiv"):
        loaded.config.label_schema.index_of("B-LOCderiv")
