#!/usr/bin/env python3
"""Character-embedding ablation: train each variant, compare dev chunk F1.

Intended run (matches the reduced-scale acceptance protocol):

    python scripts/run_ablation.py --germeval-dir /data/germeval \\
        --embeddings /data/fasttext_de.store \\
        --train-size 2000 --seeds 1 2 3

Without the official corpus, ``--synthetic`` uses the bundled generator of
context-ambiguous sentences, which isolates the character path and shows the
same ordering at desk scale in a few minutes.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from gner.corpus import LabelSchema, build_char_vocab, germeval_schema, parse_germeval
from gner.datagen import make_ambiguous_corpus, make_embedding_store
from gner.embeddings import load_store
from gner.model import CHAR_VARIANTS, ModelConfig, build_model
from gner.training import TrainConfig, evaluate_chunk_f1, train_two_stage


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--germeval-dir", help="directory with NER-de-train.tsv and NER-de-dev.tsv")
    ap.add_argument("--embeddings", help="word vector file")
    ap.add_argument("--synthetic", action="store_true", help="use the bundled synthetic generator")
    ap.add_argument("--reduced", action="store_true", help="reduced dims for quick desk runs")
    ap.add_argument("--train-size", type=int, default=2000)
    ap.add_argument("--dev-size", type=int, default=500)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--variants", nargs="+", default=list(CHAR_VARIANTS))
    ap.add_argument("--out", help="write results as JSON")
    args = ap.parse_args()

    if args.germeval_dir:
        train = parse_germeval(Path(args.germeval_dir) / "NER-de-train.tsv")[: args.train_size]
        dev = parse_germeval(Path(args.germeval_dir) / "NER-de-dev.tsv")
        schema = germeval_schema()
        if not args.embeddings:
            ap.error("--embeddings is required with --germeval-dir")
        store = load_store(args.embeddings)
    elif args.synthetic:
        train = make_ambiguous_corpus(args.train_size, seed=21, split="train")
        dev = make_ambiguous_corpus(args.dev_size, seed=22, split="dev")
        schema = LabelSchema(("LOC", "ORG", "OTH", "PER"))
        store = make_embedding_store(train + dev, dim=16, seed=21, coverage="context")
    else:
        ap.error("either --germeval-dir or --synthetic is required")
        return 2

    if args.reduced or args.synthetic:
        dims = dict(word_dim=store.dim, char_emb_dim=8, char_lstm_cells=12,
                    char_cnn_filters=8, token_lstm_cells=24, dropout=0.3)
        tc_kw = dict(stage1_epochs=8, stage2_epochs=2, stage2_batch=64, learning_rate=0.005)
    else:
        dims = dict(word_dim=store.dim)
        tc_kw = {}

    results: dict[str, list[float]] = {}
    for variant in args.variants:
        scores = []
        for seed in args.seeds:
            started = time.time()
            vocab = build_char_vocab(train)
            model = build_model(
                ModelConfig(label_schema=schema, char_variant=variant, **dims),
                vocab if variant != "none" else None,
                seed=seed,
            )
            best, _ = train_two_stage(model, train, dev, store, TrainConfig(seed=seed, **tc_kw))
            f1 = evaluate_chunk_f1(best, dev, store)
            scores.append(f1)
            print(f"{variant} seed {seed}: dev F1 {f1:.4f} ({time.time() - started:.0f}s)", flush=True)
        results[variant] = scores

    print("\nvariant      mean F1   vs none")
    baseline = float(np.mean(results.get("none", [0.0])))
    summary = {}
    for variant, scores in results.items():
        mean = float(np.mean(scores))
        summary[variant] = {"scores": scores, "mean": mean, "delta_vs_none": mean - baseline}
        print(f"{variant:10s}  {100 * mean:7.2f}  {100 * (mean - baseline):+7.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
