import json
import math
import os

import numpy as np
import pytest

from gner import training as tr
from gner.corpus import Sentence, batch_from_sentences, build_char_vocab, conll_schema
from gner.datagen import make_corpus, make_embedding_store
from gner.crf import crf_negative_log_likelihood
from gner.model import ModelConfig, ModelError, build_model
from helpers import widened


def _leaf_param(value):
    return np.array(value, dtype=np.float64)


def _cfg(**kw):
    return tr.TrainConfig(**kw)


def test_nadam_zero_gradient_leaves_parameters_unchanged():
    p = _leaf_param([1.0, -2.0])
    state = tr.NadamState()
    tr.nadam_step([("p", p)], {"p": np.zeros(2)}, state, _cfg())
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_nadam_descends_on_square():
    p = _leaf_param([1.0])
    state = tr.NadamState()
    tr.nadam_step([("p", p)], {"p": np.array([2.0])}, state, _cfg())  # grad of x^2 at 1
    assert abs(float(p[0])) < 1.0


def test_nadam_three_step_scalar_trajectory_matches_reference():
    # Independent plain-float reference of the update formula.
    lr, b1, b2, eps = 0.002, 0.9, 0.999, 1e-8
    theta = 0.7
    m = v = 0.0
    expected = []
    for t in (1, 2, 3):
        g = 2.0 * theta  # d(x^2)/dx
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        m_bar = b1 * m_hat + (1 - b1) * g / (1 - b1**t)
        theta = theta - lr * m_bar / (math.sqrt(v_hat) + eps)
        expected.append(theta)

    p = _leaf_param([0.7])
    state = tr.NadamState()
    got = []
    for _ in range(3):
        tr.nadam_step([("p", p)], {"p": 2.0 * p.copy()}, state, _cfg())
        got.append(float(p[0]))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_nadam_rejects_non_finite_gradient():
    p = _leaf_param([1.0])
    with pytest.raises(tr.TrainingError, match="non-finite"):
        tr.nadam_step([("p", p)], {"p": np.array([np.nan])}, tr.NadamState(), _cfg())


@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", -0.002, "learning_rate must be a finite number > 0"),
    ("learning_rate", 0.0, "learning_rate must be a finite number > 0"),
    ("learning_rate", math.nan, "learning_rate must be a finite number > 0"),
    ("learning_rate", math.inf, "learning_rate must be a finite number > 0"),
    ("learning_rate", "0.002", "learning_rate must be a finite number > 0"),
    ("gradient_clip_norm", -1.0, "gradient_clip_norm must be None or a finite number > 0"),
    ("gradient_clip_norm", 0.0, "gradient_clip_norm must be None or a finite number > 0"),
    ("gradient_clip_norm", math.nan, "gradient_clip_norm must be None or a finite number > 0"),
    ("gradient_clip_norm", math.inf, "gradient_clip_norm must be None or a finite number > 0"),
    ("stage1_batch", 0, "batch sizes must be >= 1, got 0 and 512"),
    ("stage2_batch", -4, "batch sizes must be >= 1, got 16 and -4"),
    ("label_level", "middle", "label_level must be 'outer' or 'inner'"),
])
def test_train_config_rejects_settings_that_break_training(field, value, message):
    with pytest.raises(tr.TrainingError, match=message):
        _cfg(**{field: value})


def test_train_config_accepts_the_edges_of_its_ranges():
    for kw in ({"gradient_clip_norm": None}, {"gradient_clip_norm": 1e-6}, {"learning_rate": 1},
               {"stage1_batch": 1, "stage2_batch": 1}, {"label_level": "inner"}):
        _cfg(**kw)


def test_clip_global_norm():
    grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
    pre = math.sqrt(sum((g**2).sum() for g in grads.values()))
    tr.clip_gradients(grads, 5.0)
    post = math.sqrt(sum((g**2).sum() for g in grads.values()))
    assert pre > 5.0
    assert post == pytest.approx(5.0, abs=1e-9)
    # Below the threshold nothing changes.
    grads = {"a": np.array([0.3])}
    tr.clip_gradients(grads, 5.0)
    np.testing.assert_array_equal(grads["a"], [0.3])


def _tiny_world(n=10, variant="bilstm", seed=0):
    sents = make_corpus(n, seed=seed, with_subclasses=False)
    sents = [Sentence(s.tokens, [l.replace("OTH", "MISC") for l in s.outer_labels], None, s.source_id)
             for s in sents]
    vocab = build_char_vocab(sents)
    config = ModelConfig(
        label_schema=conll_schema(),
        char_variant=variant,
        word_dim=8,
        char_emb_dim=4,
        char_lstm_cells=4,
        char_cnn_filters=3,
        token_lstm_cells=6,
        dropout=0.25,
    )
    model = build_model(config, vocab, seed=seed)
    store = make_embedding_store(sents, dim=8, seed=seed)
    return model, store, sents


def test_word_embeddings_never_updated():
    model, store, sents = _tiny_world()
    before = {w: v.copy() for w, v in store.word_vectors.items()}
    tr.train_epoch(model, sents, store, _cfg(stage1_batch=4), stage=1, epoch_seed=1)
    for w, v in store.word_vectors.items():
        assert v.tobytes() == before[w].tobytes()


def test_char_padding_row_never_updated():
    model, store, sents = _tiny_world(seed=3)
    pad_row_before = model.char_table[0].copy()
    other_rows_before = model.char_table[1:].copy()
    tr.train_epoch(model, sents, store, _cfg(stage1_batch=4, seed=3), stage=1, epoch_seed=9)
    np.testing.assert_array_equal(model.char_table[0], pad_row_before)
    assert np.any(model.char_table[1:] != other_rows_before)


def test_train_epoch_rejects_store_of_wrong_dimension():
    model, _, sents = _tiny_world()  # word_dim 8
    with pytest.raises(ModelError, match="dimension 5, the model's word_dim is 8"):
        tr.train_epoch(model, sents, make_embedding_store(sents, dim=5, seed=0), _cfg(stage1_batch=4), stage=1)


def test_batch_loss_is_one_crf_node_over_the_batch(monkeypatch):
    model, store, sents = _tiny_world(n=5, seed=6)
    model = widened(model)  # the per-sentence sums are compared to 1e-12
    assert len({len(s) for s in sents}) > 1, "need ragged lengths"
    cfg = model.config
    cfg.dropout = 0.0  # so that a sentence's loss does not depend on its batch's masks
    calls = []

    def counted(params, emissions, gold, lengths):
        calls.append(emissions.shape)
        return crf_negative_log_likelihood(params, emissions, gold, lengths)

    monkeypatch.setattr(tr, "crf_negative_log_likelihood", counted)
    batch = batch_from_sentences(sents, model.char_vocab, cfg.required_char_mode)
    loss, grads = tr.batch_loss(model, batch, store, "outer", None)
    assert calls == [(len(sents), batch.max_len, cfg.num_labels)]
    alone = [tr.batch_loss(model, batch_from_sentences([s], model.char_vocab, cfg.required_char_mode),
                           store, "outer", None) for s in sents]
    assert loss == pytest.approx(np.mean([a for a, _ in alone]), rel=1e-12)
    # The batch mean's gradient is the mean of the sentences' gradients.
    assert list(grads) == [name for name, _ in model.parameters()]
    for name, g in grads.items():
        np.testing.assert_allclose(g, np.mean([a[name] for _, a in alone], axis=0), rtol=1e-10, atol=1e-13)


def test_train_epoch_reports_gradient_norms_clipping_and_throughput(monkeypatch):
    model, store, sents = _tiny_world(n=10, seed=2)
    cfg = _cfg(stage1_batch=4, gradient_clip_norm=8.0, seed=2)  # fires on some steps, not all
    norms = []
    real_clip = tr.clip_gradients

    def recorded(grads, max_norm):
        norms.append(real_clip(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(tr, "clip_gradients", recorded)
    row = tr.train_epoch(model, sents, store, cfg, stage=1, epoch_seed=3)
    monkeypatch.undo()
    assert row["batches"] == len(norms) == 3
    assert row["grad_norm"] == norms[-1]
    assert row["grad_norm_mean"] == pytest.approx(np.mean(norms), rel=1e-12)
    assert row["clip_share"] == pytest.approx(np.mean([n > 8.0 for n in norms]))
    assert 0.0 < row["clip_share"] < 1.0
    assert row["wall_s"] > 0.0
    assert row["tokens_per_s"] == pytest.approx(sum(len(s) for s in sents) / row["wall_s"], rel=1e-12)

    unclipped = tr.train_epoch(model, sents, store, _cfg(stage1_batch=4, gradient_clip_norm=None), stage=1)
    assert unclipped["clip_share"] == 0.0

    best, report = tr.train_two_stage(model, sents[:8], sents[8:], store,
                                      _cfg(stage1_epochs=1, stage2_epochs=1, stage1_batch=4, stage2_batch=8))
    records = [json.loads(line) for line in report.to_jsonl().splitlines()[:-1]]
    assert len(records) == 2
    for record, r in zip(records, report.rows):
        assert record["grad_norm_mean"] == r.grad_norm_mean > 0.0
        assert 0.0 <= record["clip_share"] == r.clip_share <= 1.0
        assert record["wall_s"] == r.wall_s > 0.0
        assert record["tokens_per_s"] == r.tokens_per_s > 0.0


def test_empty_dataset_rejected():
    model, store, _ = _tiny_world()
    with pytest.raises(tr.TrainingError, match="empty"):
        tr.train_epoch(model, [], store, _cfg(), stage=1)


@pytest.mark.parametrize("epochs", [{"stage1_epochs": 0}, {"stage2_epochs": 0}, {"stage2_epochs": -1}])
def test_two_stage_rejects_a_stage_without_epochs(epochs):
    model, store, sents = _tiny_world()
    with pytest.raises(tr.TrainingError, match="at least one epoch"):
        tr.train_two_stage(model, sents[:8], sents[8:], store, _cfg(stage1_batch=4, **epochs))


def test_loss_decreases_over_first_epochs():
    model, store, sents = _tiny_world(n=10, seed=4)
    state = tr.NadamState()
    cfg = _cfg(stage1_batch=4, seed=4)
    losses = []
    for epoch in range(5):
        row = tr.train_epoch(model, sents, store, cfg, stage=1, state=state, epoch_seed=100 + epoch)
        losses.append(row["mean_loss"])
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_post_clip_norm_within_tolerance():
    model, store, sents = _tiny_world(n=6, seed=5)
    cfg = _cfg(stage1_batch=6, gradient_clip_norm=0.01, seed=5)
    row = tr.train_epoch(model, sents, store, cfg, stage=1, epoch_seed=7)
    assert row["grad_norm"] >= 0.0  # pre-clip norm reported


def test_two_stage_returns_argmax_of_stage_two():
    model, store, sents = _tiny_world(n=12, seed=6)
    train, dev = sents[:9], sents[9:]
    cfg = _cfg(stage1_epochs=2, stage2_epochs=2, stage1_batch=4, stage2_batch=8, seed=6)
    best, report = tr.train_two_stage(model, train, dev, store, cfg)
    stage2 = [r for r in report.rows if r.stage == 2]
    top = max(r.dev_f1 for r in stage2)
    winner = next(r for r in stage2 if r.dev_f1 == top)  # earliest epoch wins ties
    assert report.selected[2] == winner.checkpoint_id
    got = tr.evaluate_chunk_f1(best, dev, store)
    assert got == pytest.approx(top, abs=1e-12)


def test_two_stage_is_deterministic():
    def run():
        model, store, sents = _tiny_world(n=10, seed=7)
        cfg = _cfg(stage1_epochs=2, stage2_epochs=1, stage1_batch=4, stage2_batch=8, seed=7)
        _, report = tr.train_two_stage(model, sents[:8], sents[8:], store, cfg)
        return [(r.stage, r.epoch, r.mean_loss, r.dev_f1) for r in report.rows]

    assert run() == run()


def test_checkpoints_written_in_model_format(tmp_path):
    from gner.model import load_model

    model, store, sents = _tiny_world(n=8, seed=8)
    cfg = _cfg(stage1_epochs=1, stage2_epochs=1, stage1_batch=4, stage2_batch=8, seed=8)
    _, report = tr.train_two_stage(model, sents[:6], sents[6:], store, cfg, checkpoint_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.glob("*.mner"))
    assert files == ["stage1_epoch1.mner", "stage2_epoch1.mner"]
    load_model(tmp_path / files[0])  # loadable


def test_report_serialization_round_trip(tmp_path):
    report = tr.TrainReport(
        rows=[tr.EpochRecord(1, 1, 2.5, 0.5, "stage1_epoch1")],
        selected={1: "stage1_epoch1"},
        wall_clock_s=1.25,
    )
    path = tmp_path / "report.jsonl"
    report.save(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["dev_f1"] == 0.5


def test_a_report_write_failing_midway_leaves_the_old_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "report.jsonl"
    tr.TrainReport(selected={1: "stage1_epoch1"}).save(path)
    old = path.read_bytes()

    def full(fd):
        raise OSError("No space left on device")

    monkeypatch.setattr(os, "fsync", full)
    with pytest.raises(OSError, match="No space left"):
        tr.TrainReport(rows=[tr.EpochRecord(1, 1, 2.5, 0.5, "stage1_epoch1")]).save(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["report.jsonl"]
