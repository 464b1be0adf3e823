#!/usr/bin/env python3
"""Print one sha256 per char variant over everything a refactor must keep
bit for bit, so two trees can be compared by their digests:

    python scripts/parity_digest.py src
    python scripts/parity_digest.py /path/to/other/checkout/src

The argument is the ``src`` directory whose ``gner`` package is imported.
For each variant, at dropout 0.5 and 0, the script builds a paper-size
float32 model from a fixed seed over generated sentences and a 300-d plain
store, then hashes, in this order: one training batch's loss and every
gradient, one stage-1 epoch's mean loss, the trained model's eval
emissions, its labels without and with a row cache, and its saved bytes.
BLAS runs on one thread, so the digests depend on the code alone.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEED = 26


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src", help="directory holding the gner package to import")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))

    import numpy as np

    from gner.corpus import batch_from_sentences, build_char_vocab, germeval_schema
    from gner.datagen import make_corpus, make_embedding_store
    from gner.model import (CHAR_VARIANTS, ModelConfig, RowCache, build_model, forward_emissions, predict_batch,
                            save_model)
    from gner.training import TrainConfig, batch_loss, train_epoch

    train = make_corpus(48, seed=SEED)
    dev = make_corpus(24, seed=SEED, split="dev")  # unknown words and characters too
    vocab = build_char_vocab(train)
    store = make_embedding_store(train, dim=300, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        for variant in CHAR_VARIANTS:
            digest = hashlib.sha256()

            def add(array):
                array = np.asarray(array)
                digest.update(f"{array.dtype}{array.shape}".encode("ascii"))
                digest.update(np.ascontiguousarray(array).tobytes())

            for dropout in (0.5, 0.0):
                config = ModelConfig(label_schema=germeval_schema(), char_variant=variant, dropout=dropout)
                model = build_model(config, vocab if config.required_char_mode else None, seed=SEED)
                mode = config.required_char_mode
                batch = batch_from_sentences(train[:16], model.char_vocab, mode)
                loss, grads = batch_loss(model, batch, store, "outer", np.random.default_rng(SEED))
                add(np.float64(loss))
                for name, grad in grads.items():
                    digest.update(name.encode("ascii"))
                    add(grad)
                add(np.float64(train_epoch(model, train, store, TrainConfig(), 1, epoch_seed=SEED)["mean_loss"]))
                add(forward_emissions(model, batch_from_sentences(dev, model.char_vocab, mode), store))
                labels = predict_batch(model, store, dev, batch_size=8)
                cached = predict_batch(model, store, dev, batch_size=8, cache=RowCache(model, store, 64))
                digest.update(repr((labels, cached)).encode("utf-8"))
                path = Path(tmp) / f"{variant}-{dropout}.mner"
                save_model(model, path)
                digest.update(path.read_bytes())
            print(f"{variant:8} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
