"""Session fixtures: a small trained model plus serialized artifacts.

The fixture model is trained once per session on synthetic sentences (the
corpus generator anchors a few fixed surface forms such as "Aachen" being a
location) and is reused by the service, CLI and acceptance tests.
"""

from dataclasses import dataclass
from pathlib import Path

import pytest

from gner.corpus import build_char_vocab, germeval_schema, write_germeval
from gner.datagen import make_corpus, make_embedding_store
from gner.embeddings import write_text_vectors
from gner.model import ModelConfig, build_model, save_model
from gner.training import NadamState, TrainConfig, train_epoch
from helpers import fixture_training_sentences


@dataclass
class FixtureWorld:
    model: object
    store: object
    sentences: list
    model_path: Path
    store_path: Path
    registry_path: Path


@pytest.fixture(scope="session")
def fixture_world(tmp_path_factory) -> FixtureWorld:
    root = tmp_path_factory.mktemp("fixture_model")
    sentences = fixture_training_sentences() * 3 + make_corpus(40, seed=2)
    store = make_embedding_store(sentences, dim=12, seed=2)
    vocab = build_char_vocab(sentences)
    config = ModelConfig(
        label_schema=germeval_schema(),
        char_variant="bilstm",
        word_dim=12,
        char_emb_dim=8,
        char_lstm_cells=6,
        token_lstm_cells=16,
        dropout=0.2,
    )
    model = build_model(config, vocab, seed=2)
    train_cfg = TrainConfig(stage1_batch=8, learning_rate=0.01, seed=2)
    state = NadamState()
    for epoch in range(30):
        train_epoch(model, sentences, store, train_cfg, stage=1, state=state, epoch_seed=1000 + epoch)

    model_path = root / "germeval-outer.mner"
    save_model(model, model_path)
    store_path = root / "vectors.txt"
    write_text_vectors(store, store_path)
    registry_path = root / "registry.json"
    registry_path.write_text(
        '{"models": {"germeval-outer": {"model": "germeval-outer.mner", '
        '"embeddings": "vectors.txt", "embedding_kind": "plain"}}}\n',
        encoding="utf-8",
    )
    corpus_path = root / "train.tsv"
    write_germeval(sentences, corpus_path)
    return FixtureWorld(
        model=model,
        store=store,
        sentences=sentences,
        model_path=model_path,
        store_path=store_path,
        registry_path=registry_path,
    )
