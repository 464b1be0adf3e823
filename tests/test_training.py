import math

import numpy as np
import pytest

from gner import autodiff as ad
from gner import training as tr
from gner.corpus import Sentence, batch_from_sentences, build_char_vocab, conll_schema
from gner.datagen import make_corpus, make_embedding_store
from gner.model import ModelConfig, ModelError, build_model


def _leaf_param(value):
    return ad.leaf(np.array(value, dtype=np.float64), requires_grad=True)


def _cfg(**kw):
    return tr.TrainConfig(**kw)


def test_nadam_zero_gradient_leaves_parameters_unchanged():
    p = _leaf_param([1.0, -2.0])
    state = tr.NadamState()
    tr.nadam_step([("p", p)], {"p": np.zeros(2)}, state, _cfg())
    np.testing.assert_array_equal(p.value, [1.0, -2.0])


def test_nadam_descends_on_square():
    p = _leaf_param([1.0])
    state = tr.NadamState()
    tr.nadam_step([("p", p)], {"p": np.array([2.0])}, state, _cfg())  # grad of x^2 at 1
    assert abs(float(p.value[0])) < 1.0


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
        tr.nadam_step([("p", p)], {"p": 2.0 * p.value.copy()}, state, _cfg())
        got.append(float(p.value[0]))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_nadam_rejects_non_finite_gradient():
    p = _leaf_param([1.0])
    with pytest.raises(tr.TrainingError, match="non-finite"):
        tr.nadam_step([("p", p)], {"p": np.array([np.nan])}, tr.NadamState(), _cfg())


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
    pad_row_before = model.char_table.rows.value[0].copy()
    other_rows_before = model.char_table.rows.value[1:].copy()
    tr.train_epoch(model, sents, store, _cfg(stage1_batch=4, seed=3), stage=1, epoch_seed=9)
    np.testing.assert_array_equal(model.char_table.rows.value[0], pad_row_before)
    assert np.any(model.char_table.rows.value[1:] != other_rows_before)


def test_train_epoch_rejects_store_of_wrong_dimension():
    model, _, sents = _tiny_world()  # word_dim 8
    with pytest.raises(ModelError, match="dimension 5, the model's word_dim is 8"):
        tr.train_epoch(model, sents, make_embedding_store(sents, dim=5, seed=0), _cfg(stage1_batch=4), stage=1)


def test_batch_loss_is_one_crf_node_over_the_batch():
    model, store, sents = _tiny_world(n=5, seed=6)
    assert len({len(s) for s in sents}) > 1, "need ragged lengths"
    cfg = model.config
    batch = batch_from_sentences(sents, model.char_vocab, cfg.required_char_mode)
    loss = tr.batch_loss(model, batch, store, "outer", "eval", None)
    ops, work, seen = [], [loss], set()
    while work:
        node = work.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node.op)
            work.extend(node.parents)
    assert ops.count("crf_nll") == 1 and "slice" not in ops
    alone = [tr.batch_loss(model, batch_from_sentences([s], model.char_vocab, cfg.required_char_mode),
                           store, "outer", "eval", None) for s in sents]
    assert float(loss.value) == pytest.approx(np.mean([float(a.value) for a in alone]), rel=1e-12)


def test_empty_dataset_rejected():
    model, store, _ = _tiny_world()
    with pytest.raises(tr.TrainingError, match="empty"):
        tr.train_epoch(model, [], store, _cfg(), stage=1)


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
    import json

    assert json.loads(lines[0])["dev_f1"] == 0.5
