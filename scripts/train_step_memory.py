#!/usr/bin/env python3
"""Print the memory one stage-2-shaped training step takes, so two trees
can be compared by their figures:

    python scripts/train_step_memory.py src
    python scripts/train_step_memory.py /path/to/other/checkout/src

The argument is the ``src`` directory whose ``gner`` package is imported.
The script draws 3 000 GermEval-shaped train sentences with
``perfbench/data.py``, takes the 512 longest (the paper's stage-2 batch
size), and builds a paper-size float32 ``bilstm`` model at dropout 0.5 and a
300-d plain store over them.  It then runs one ``batch_loss`` (train-mode
forward, CRF loss and backward; no optimizer step) under ``tracemalloc``
and prints the step's traced peak and the process's max RSS, which also
counts the setup.  BLAS runs on one thread.  Alternate runs of two trees
to compare them: the RSS reads a few MB apart between runs of one tree.
"""

import argparse
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEED = 27
SENTENCES = 3000
BATCH = 512


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src", help="directory holding the gner package to import")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "perfbench"))

    import numpy as np
    from data import germeval_sentences

    from gner.corpus import batch_from_sentences, build_char_vocab, germeval_schema
    from gner.datagen import make_embedding_store
    from gner.model import ModelConfig, build_model
    from gner.training import batch_loss

    pool = germeval_sentences(SENTENCES, seed=SEED, split="train")
    longest = sorted(pool, key=len, reverse=True)[:BATCH]
    vocab = build_char_vocab(pool)
    store = make_embedding_store(pool, dim=300, seed=SEED)
    config = ModelConfig(label_schema=germeval_schema(), char_variant="bilstm", dropout=0.5)
    model = build_model(config, vocab, seed=SEED)
    batch = batch_from_sentences(longest, model.char_vocab, config.required_char_mode)

    tracemalloc.start()
    start = time.perf_counter()
    loss, _ = batch_loss(model, batch, store, "outer", np.random.default_rng(SEED))
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"tokens {int(batch.mask.sum())} keys {len(batch.keys)} loss {loss:.6f} step_s {seconds:.2f}")
    print(f"tracemalloc_peak_mib {peak / 2**20:.1f}")
    print(f"max_rss_mb {max_rss_kb / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
