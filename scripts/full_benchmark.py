#!/usr/bin/env python3
"""Full-scale benchmark: train on the complete corpora and score the test sets.

Reference targets for this architecture (char-BiLSTM variant with fastText
word vectors, averages over repeated runs):

  * GermEval outer chunk F1        82.19 +/- 1.5
  * GermEval official combined F1  80.83 +/- 1.5 (outer model + inner model)
  * CoNLL'03 German F1             85.19 +/- 1.5

This is a long-running benchmark (hours per run on a desktop CPU) and is
deliberately not part of the test suite.  Expected data layout:

  --germeval-dir  NER-de-{train,dev,test}.tsv      (tab-separated, 4 columns)
  --conll-dir     deu.{train,testa,testb}          (IOB tags, token first)
  --embeddings    binary store from scripts/convert_fasttext.py, or an FTXT1
                  or plain text store; format and kind are read from the file

With fastText vectors, the out-of-vocabulary split of the GermEval test set
(reported alongside the scores) separates sentences whose every word is in
the embedding vocabulary from those with at least one OOV word.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from gner.corpus import build_char_vocab, conll_schema, germeval_schema, read_corpus
from gner.embeddings import load_store
from gner.evaluation import evaluate_bio, germeval_combined, split_oov_iv
from gner.model import ModelConfig, build_model, predict_batch
from gner.training import TrainConfig, train_two_stage


def _train_and_score(schema, variant, train, dev, test, store, seed, level="outer"):
    vocab = build_char_vocab(train)
    model = build_model(
        ModelConfig(label_schema=schema, char_variant=variant, word_dim=store.dim),
        vocab,
        seed=seed,
    )
    best, report = train_two_stage(
        model, train, dev, store, TrainConfig(seed=seed, label_level=level)
    )
    pred = predict_batch(best, store, test)
    gold = [s.labels(level) for s in test]
    return best, pred, evaluate_bio(gold, pred), report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--germeval-dir")
    ap.add_argument("--conll-dir")
    ap.add_argument("--embeddings", required=True)
    ap.add_argument("--variant", default="bilstm")
    ap.add_argument("--runs", type=int, default=1, help="seeds 1..runs, scores averaged")
    ap.add_argument("--out", help="write results as JSON")
    args = ap.parse_args()
    if not args.germeval_dir and not args.conll_dir:
        ap.error("need --germeval-dir and/or --conll-dir")

    store = load_store(args.embeddings)
    results: dict[str, object] = {}

    if args.germeval_dir:
        root = Path(args.germeval_dir)
        train, dev, test = (read_corpus(root / f"NER-de-{split}.tsv", "germeval") for split in ("train", "dev", "test"))
        schema = germeval_schema()

        outer_scores, combined_scores = [], []
        for seed in range(1, args.runs + 1):
            started = time.time()
            outer_model, outer_pred, outer_report, _ = _train_and_score(
                schema, args.variant, train, dev, test, store, seed, "outer"
            )
            _, inner_pred, _, _ = _train_and_score(
                schema, args.variant, train, dev, test, store, seed, "inner"
            )
            combined = germeval_combined(
                [s.labels("outer") for s in test],
                [s.labels("inner") for s in test],
                outer_pred,
                inner_pred,
            )
            outer_scores.append(outer_report.f1)
            combined_scores.append(combined.f1)
            print(
                f"germeval seed {seed}: outer F1 {outer_report.f1:.4f} "
                f"(P {outer_report.precision:.4f} R {outer_report.recall:.4f}), "
                f"combined F1 {combined.f1:.4f} ({time.time() - started:.0f}s)",
                flush=True,
            )
        iv, oov = split_oov_iv(test, store)
        print(f"test split by embedding vocabulary: iv {len(iv)} sentences, oov {len(oov)} sentences")
        results["germeval"] = {
            "outer_f1_mean": float(np.mean(outer_scores)),
            "combined_f1_mean": float(np.mean(combined_scores)),
            "outer_runs": outer_scores,
            "combined_runs": combined_scores,
            "iv_sentences": len(iv),
            "oov_sentences": len(oov),
            "targets": {"outer": 0.8219, "combined": 0.8083, "tolerance": 0.015},
        }

    if args.conll_dir:
        root = Path(args.conll_dir)
        train, dev, test = (read_corpus(root / name, "conll") for name in ("deu.train", "deu.testa", "deu.testb"))
        scores = []
        for seed in range(1, args.runs + 1):
            started = time.time()
            _, _, report, _ = _train_and_score(conll_schema(), args.variant, train, dev, test, store, seed)
            scores.append(report.f1)
            print(f"conll seed {seed}: F1 {report.f1:.4f} ({time.time() - started:.0f}s)", flush=True)
        results["conll"] = {
            "f1_mean": float(np.mean(scores)),
            "runs": scores,
            "targets": {"f1": 0.8519, "tolerance": 0.015},
        }

    print(json.dumps(results, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
