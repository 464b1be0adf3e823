#!/usr/bin/env python3
"""Convert a published binary subword embedding model to a binary store.

    python scripts/convert_fasttext.py wiki.de.bin wiki.de.store [--max-words N]

The output is the binary float32 store the engine maps at start-up (see
"File formats" in README.md): the word vectors, composed as the model's
text export composes them, and the model's bucket rows.  An input that
does not start with the published model's magic is read as a store (a
text ``FTXT1`` or plain store, or a binary one), so existing text stores
can be migrated.  --max-words keeps the first N words (bucket rows are
always kept so OOV inference is unaffected).
"""

import argparse
import dataclasses
import itertools
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gner.embeddings import (BIN_MAGIC, convert_fasttext_bin, load_store, write_fasttext_store,
                             write_text_vectors)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("bin_path")
    ap.add_argument("out_path")
    ap.add_argument("--max-words", type=int, help="keep only the N most frequent words")
    args = ap.parse_args()
    with open(args.bin_path, "rb") as fh:
        published = fh.read(4) == struct.pack("<i", BIN_MAGIC)
    if published:
        store = convert_fasttext_bin(args.bin_path, max_words=args.max_words)
    else:
        store = load_store(args.bin_path)
        if args.max_words is not None:
            kept = dict(itertools.islice(store.word_vectors.items(), args.max_words))
            store = dataclasses.replace(store, word_vectors=kept)
    (write_fasttext_store if store.kind == "fasttext" else write_text_vectors)(store, args.out_path)
    print(f"wrote {args.out_path}: {store.kind} store, {len(store.word_vectors)} words, "
          f"{store.bucket_count} buckets, dim {store.dim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
