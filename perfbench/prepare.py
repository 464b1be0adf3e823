"""Build one workload's artifacts in a child process, outside the timed region.

    python3 perfbench/prepare.py --workload W --out DIR

Writes the embedding store and, for ``serve-oov`` and ``tag-b64``, a model
trained briefly by this checkout's own code, so that ``f1`` means something.
The artifacts come from one fixed seed, not the run's: they are the system
under test, and briefly trained models from different seeds differ in dev
F1 by more than any bound worth keeping.  The run's seed picks the inputs.
Running this in its own process keeps the training graph out of the
benchmark process's peak memory.  ``DIR/prepare.json`` records the mean
training loss.
"""

import argparse
import json
import sys
from pathlib import Path

import data
from gner.corpus import build_char_vocab, germeval_schema
from gner.embeddings import write_fasttext_store, write_text_vectors
from gner.model import ModelConfig, build_model, save_model
from gner.training import NadamState, TrainConfig, train_epoch

ARTIFACT_SEED = 0
# Brief training of the served models: a few epochs of short train-split
# sentences at a raised learning rate reach a dev F1 near 0.85.
BRIEF_EPOCHS = 4
BRIEF_SENTENCES = 240
BRIEF_LR = 0.02
VARIANT = {"serve-oov": ("bilstm", "fasttext"), "tag-b64": ("cnn", "plain"), "train-b16": (None, "fasttext")}


def brief_train(variant: str, store, seed: int):
    """Train ``variant`` at paper size; returns (model, mean loss over all
    epochs, which unlike the final epoch's is far from zero)."""
    sentences = data.short_sentences(BRIEF_EPOCHS * BRIEF_SENTENCES, seed)
    config = ModelConfig(label_schema=germeval_schema(), char_variant=variant,
                         word_dim=store.dim, embedding_kind=store.kind)
    model = build_model(config, build_char_vocab(sentences), seed=seed)
    train_cfg = TrainConfig(stage1_batch=16, learning_rate=BRIEF_LR, seed=seed)
    state = NadamState()
    losses = []
    for epoch in range(BRIEF_EPOCHS):
        part = sentences[epoch * BRIEF_SENTENCES : (epoch + 1) * BRIEF_SENTENCES]
        losses.append(train_epoch(model, part, store, train_cfg, 1, state, epoch_seed=seed * 100 + epoch)["mean_loss"])
    return model, sum(losses) / len(losses)


def prepare(workload: str, out: Path) -> dict:
    variant, kind = VARIANT[workload]
    seed = ARTIFACT_SEED
    words = data.train_vocabulary(seed)
    if kind == "fasttext":
        store = data.fasttext_store(words, seed)
        write_fasttext_store(store, out / "store.ftxt")
        store_file = "store.ftxt"
    else:
        store = data.plain_store(words, seed)
        write_text_vectors(store, out / "store.txt")
        store_file = "store.txt"
    info = {"store": store_file, "kind": kind}
    if variant is not None:
        model, loss = brief_train(variant, store, seed)
        save_model(model, out / "model.mner")
        info.update(model="model.mner", brief_train_loss=loss)
        registry = {"models": {variant: {"model": "model.mner", "embeddings": store_file, "embedding_kind": kind}}}
        (out / "registry.json").write_text(json.dumps(registry), encoding="utf-8")
    (out / "prepare.json").write_text(json.dumps(info), encoding="utf-8")
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(VARIANT))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    prepare(args.workload, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
