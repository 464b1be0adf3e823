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
A last line, ``stores``, hashes what ``load_store`` returns for generated
text stores (headerless and ``count dim`` plain ones and an ``FTXT1`` one):
kind, dim, n-gram fields, duplicate count, every word vector and every
bucket row.  Their lines end in LF, CRLF or a trailing space, some hold
doubled spaces, and blank lines, a ``1_0`` value and a duplicate word are
mixed in.  A seventh line, ``corpora``, hashes each sentence's source id,
tokens and label levels that ``parse_germeval`` and ``parse_conll03`` give
for generated files, and ``iob_to_bio`` of each CoNLL sentence's tags.  The
files mix ``#`` lines, ``-DOCSTART-`` blocks and tokens, runs of blank and
whitespace-only lines and CRLF endings, and end in a sentence with no
closing blank line.  BLAS runs on one thread, so the digests depend on the
code alone.
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
        print(f"{'stores':8} {_stores_digest(Path(tmp))}")
        print(f"{'corpora':8} {_corpora_digest(Path(tmp))}")
    return 0


def _text_lines(rng, count: int, dim: int, words: bool) -> list[str]:
    """``count`` store lines of ``dim`` values, line 150's first value
    ``1_0``, and lines 60 and 180 repeating the words of lines 40 and 100.
    Every 64 lines the layout changes: LF, a trailing space, CRLF, doubled
    spaces.  Blank lines are mixed in."""
    lines = []
    for i in range(count):
        values = [repr(v) for v in (rng.standard_normal(dim) * 10.0 ** rng.integers(-4, 4, size=dim)).tolist()]
        if i == 150:
            values[0] = "1_0"
        layout = (i // 64) % 4
        sep = "  " if layout == 3 and i % 3 == 0 else " "
        text = sep.join(values) + (" " if layout == 1 else "")
        if words:
            k = {60: 40, 180: 100}.get(i, i)
            text = f"w{k}{'äß€'[k % 3]} {text}"
        lines.append(text + ("\r\n" if layout == 2 else "\n"))
        if i % 37 == 5:
            lines.append(" \n" if i % 2 else "\n")
    return lines


def _stores_digest(tmp: Path) -> str:
    import numpy as np

    from gner.embeddings import load_store

    rng = np.random.default_rng(SEED)
    dim, word_count, bucket_count = 300, 240, 200
    words = _text_lines(rng, word_count, dim, words=True)
    buckets = _text_lines(rng, bucket_count, dim, words=False)
    stores = {
        "headerless": words,
        "counted": [f"{word_count} {dim}\n", *words],
        "ftxt1": [f"FTXT1 {dim} 3 6 {bucket_count} {word_count}\n", *words, *buckets],
    }
    digest = hashlib.sha256()

    def add(array):
        digest.update(f"{array.dtype}{array.shape}".encode("ascii"))
        digest.update(np.ascontiguousarray(array).tobytes())

    for name, lines in stores.items():
        path = tmp / f"{name}.txt"
        path.write_bytes("".join(lines).encode("utf-8"))
        store = load_store(path)
        fields = (store.kind, store.dim, store.min_n, store.max_n, store.bucket_count, store.duplicates_skipped)
        digest.update(repr(fields).encode("utf-8"))
        for word, vec in store.word_vectors.items():
            digest.update(word.encode("utf-8"))
            add(vec)
        if store.ngram_buckets is not None:
            add(store.ngram_buckets)
    return digest.hexdigest()


def _corpus_text(rng, sentences, line_of, conll: bool) -> str:
    """The sentences' lines in one file, each ending in LF or CRLF at
    random, with sentence breaks of one to three blank or whitespace-only
    lines, ``#`` lines before sentences and inside them, ``-DOCSTART-``
    blocks, and no break after the last sentence."""
    lines = []
    for k, s in enumerate(sentences):
        if k % 5 == 0:
            lines += ["-DOCSTART- -X- O" if conll else "1\t-DOCSTART-\tO\tO", ""]
        if k % 4 == 1:
            lines.append("# O" if conll else f"# sentence {k}")
        rows = [line_of(n, tok.text, outer, inner)
                for n, (tok, outer, inner) in enumerate(zip(s.tokens, s.outer_labels, s.inner_labels), start=1)]
        if k % 6 == 3:
            rows.insert(len(rows) // 2, "-DOCSTART- -X- O" if conll else "# inside a sentence")
        lines += rows
        if k < len(sentences) - 1:
            lines += [["", " ", "\t", " \t "][int(rng.integers(4))] for _ in range(int(rng.integers(1, 4)))]
    return "".join(line + ("\r\n" if rng.integers(2) else "\n") for line in lines).rstrip("\r\n")


def _corpora_digest(tmp: Path) -> str:
    import numpy as np

    from gner.corpus import iob_to_bio, parse_conll03, parse_germeval
    from gner.datagen import make_corpus

    rng = np.random.default_rng(SEED)
    germeval = tmp / "corpus.tsv"
    germeval.write_bytes(_corpus_text(rng, make_corpus(40, seed=SEED), lambda n, text, outer, inner:
                                      f"{n}\t{text}\t{outer}\t{inner}", conll=False).encode("utf-8"))

    def conll_line(n, text, outer, inner):
        # IOB-like: some chunks open with I-, which iob_to_bio repairs.
        tag = outer.replace("OTH", "MISC")
        return f"{text} POS{n % 3} {'I-' + tag[2:] if tag.startswith('B-') and rng.integers(2) else tag}"

    conll = tmp / "corpus.conll"
    conll.write_bytes(_corpus_text(rng, make_corpus(40, seed=SEED + 1, with_subclasses=False), conll_line,
                                   conll=True).encode("utf-8"))
    digest = hashlib.sha256()
    for sentences in (parse_germeval(germeval), parse_conll03(conll)):
        for s in sentences:
            labels = (s.outer_labels, s.inner_labels, iob_to_bio(s.outer_labels) if s.inner_labels is None else None)
            digest.update(repr((s.source_id, s.texts(), labels)).encode("utf-8"))
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
