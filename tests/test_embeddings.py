import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import embeddings as emb
from gner.corpus import batch_from_sentences, build_char_vocab, germeval_schema
from gner.datagen import make_corpus
from gner.model import ModelConfig, build_model, forward_emissions, predict_batch
from helpers import write_text_store
from oracles import reference_load_store


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _toy_fasttext_store(rng, words=("gehen", "Haus"), dim=4, buckets=64):
    vectors = {w: rng.normal(size=dim) for w in words}
    return emb.EmbeddingStore(
        kind="fasttext",
        dim=dim,
        word_vectors=vectors,
        ngram_buckets=rng.normal(size=(buckets, dim)),
        bucket_count=buckets,
    )


def _rounded(store):
    """``store`` with every vector rounded to float32, as a store file holds it."""
    buckets = None if store.ngram_buckets is None else store.ngram_buckets.astype(np.float32)
    return emb.EmbeddingStore(kind=store.kind, dim=store.dim, ngram_buckets=buckets, min_n=store.min_n,
                              max_n=store.max_n, bucket_count=store.bucket_count,
                              word_vectors={w: v.astype(np.float32) for w, v in store.word_vectors.items()})


def test_load_two_word_fixture(tmp_path):
    store = emb.load_store(_write(tmp_path, "v.txt", "a 1 0\nb 0 1\n"))
    assert store.dim == 2
    assert set(store.word_vectors) == {"a", "b"}
    np.testing.assert_array_equal(store.word_vectors["a"], [1.0, 0.0])


def test_header_line_is_tolerated(tmp_path):
    plain = emb.load_store(_write(tmp_path, "p.txt", "a 1 0\nb 0 1\n"))
    headed = emb.load_store(_write(tmp_path, "h.txt", "2 2\na 1 0\nb 0 1\n"))
    assert plain.dim == headed.dim
    for w in plain.word_vectors:
        np.testing.assert_array_equal(plain.word_vectors[w], headed.word_vectors[w])


def test_a_header_with_a_non_ascii_digit_is_a_word_line(tmp_path):
    # "²" passes str.isdigit() but not int(): the line is read as the word
    # "2" with one value, which float() refuses.
    with pytest.raises(emb.EmbeddingError, match="line 1: bad float value"):
        emb.load_store(_write(tmp_path, "v.txt", "2 \u00b2\na 1 0\n"))


def test_dimension_inconsistency_names_line(tmp_path):
    with pytest.raises(emb.EmbeddingError, match="line 2"):
        emb.load_store(_write(tmp_path, "bad.txt", "a 1 0 3\nb 0 1\n"))


def test_only_newline_ends_a_line(tmp_path):
    # fastText splits words on ASCII whitespace only, so published vocabularies
    # hold words with other line-breaking characters in them.
    store = emb.load_store(_write(tmp_path, "v.txt", "a\x85b 1 0\nc\u2028d 0 1\r\ne\x0cf 1 1\n"))
    assert list(store.word_vectors) == ["a\x85b", "c\u2028d", "e\x0cf"]


def test_unreadable_file_errors():
    with pytest.raises(emb.EmbeddingError, match="missing.txt"):
        emb.load_store("/nonexistent/missing.txt")


def test_duplicates_keep_first_and_count(tmp_path):
    store = emb.load_store(_write(tmp_path, "d.txt", "a 1 0\na 9 9\nb 0 1\n"))
    assert store.duplicates_skipped == 1
    np.testing.assert_array_equal(store.word_vectors["a"], [1.0, 0.0])
    # In a fastText store a duplicate still counts as one of the header's word lines.
    store = emb.load_store(_write(tmp_path, "d.ftxt", "FTXT1 2 3 6 1 3\na 1 0\na 9 9\nb 0 1\n5 6\n"))
    assert store.duplicates_skipped == 1 and list(store.word_vectors) == ["a", "b"]
    np.testing.assert_array_equal(store.word_vectors["a"], [1.0, 0.0])
    np.testing.assert_array_equal(store.ngram_buckets, [[5.0, 6.0]])


def test_ngrams_auf():
    assert emb.extract_char_ngrams("auf") == ["<au", "auf", "uf>", "<auf", "auf>", "<auf>"]


def test_ngrams_ab():
    assert emb.extract_char_ngrams("ab") == ["<ab", "ab>", "<ab>"]


def test_ngrams_long_word_count():
    grams = emb.extract_char_ngrams("Donaudampfschiff")
    assert len(grams) == 16 + 15 + 14 + 13


@given(st.text(alphabet="abcdefghäöüß", min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_ngram_count_formula(word):
    m = len(word) + 2
    expect = sum(m - n + 1 for n in range(3, 7) if n <= m)
    assert len(emb.extract_char_ngrams(word)) == expect


def test_fnv1a_published_vectors():
    assert emb.fnv1a_32(b"") == 0x811C9DC5
    assert emb.fnv1a_32(b"a") == 0xE40C292C
    assert emb.fnv1a_32(b"foobar") == 0xBF9CF968


def test_fnv1a_sign_extends_high_bytes():
    # Frozen from two independent formulations of the signed-char widening.
    assert emb.fnv1a_32("ä".encode("utf-8")) == 0x37FA60E2
    assert emb.fnv1a_32("Straße".encode("utf-8")) == 0x925A0838


def test_lookup_in_vocabulary_returns_stored_vector():
    rng = np.random.default_rng(0)
    store = _toy_fasttext_store(rng)
    vec, oov = emb.lookup_word(store, "gehen")
    assert not oov
    np.testing.assert_array_equal(vec, store.word_vectors["gehen"])


def test_plain_oov_returns_zero_vector():
    store = emb.EmbeddingStore(kind="plain", dim=3, word_vectors={"a": np.ones(3)})
    vec, oov = emb.lookup_word(store, "unbekannt")
    assert oov
    np.testing.assert_array_equal(vec, np.zeros(3))


def _oracle_infer(store, word):
    # Independent route: position-first enumeration and an arithmetic
    # (two's-complement) variant of the hash.
    marked = "<" + word + ">"
    total = np.zeros(store.dim)
    count = 0
    for i in range(len(marked)):
        for n in range(store.min_n, store.max_n + 1):
            if i + n > len(marked):
                break
            h = 0x811C9DC5
            for byte in marked[i : i + n].encode("utf-8"):
                signed = byte - 256 if byte > 127 else byte
                h = (h ^ (signed % 2**32)) * 0x01000193 % 2**32
            total += store.ngram_buckets[h % store.bucket_count]
            count += 1
    return total / count


def test_fasttext_oov_matches_independent_oracle():
    rng = np.random.default_rng(1)
    store = _toy_fasttext_store(rng)
    for word in ("Bücherei", "laufen", "Donaudampfschifffahrt", "xyz"):
        vec, oov = emb.lookup_word(store, word)
        assert oov
        oracle = _oracle_infer(store, word)
        cos = float(vec @ oracle / (np.linalg.norm(vec) * np.linalg.norm(oracle)))
        assert cos >= 0.999
        np.testing.assert_allclose(vec, oracle, atol=1e-12)


def test_lookup_is_pure():
    rng = np.random.default_rng(3)
    store = _toy_fasttext_store(rng)
    a, _ = emb.lookup_word(store, "Biergarten")
    b, _ = emb.lookup_word(store, "Biergarten")
    np.testing.assert_array_equal(a, b)


def test_bucket_permutation_consistency():
    # Permuting bucket rows together with the hash addressing leaves
    # inferred vectors unchanged.
    rng = np.random.default_rng(4)
    store = _toy_fasttext_store(rng)
    perm = rng.permutation(store.bucket_count)
    permuted = store.ngram_buckets[np.argsort(perm)]

    word = "Flußufer"
    grams = emb.extract_char_ngrams(word, store.min_n, store.max_n)
    via_permuted = np.mean(
        [permuted[perm[emb.ngram_bucket(g, store.bucket_count)]] for g in grams], axis=0
    )
    direct, _ = emb.lookup_word(store, word)
    np.testing.assert_allclose(via_permuted, direct, atol=1e-12)


def test_fasttext_store_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    store = _toy_fasttext_store(rng)
    path = tmp_path / "store.ftxt"
    emb.write_fasttext_store(store, path)
    loaded = emb.load_store(path)
    assert loaded.dim == store.dim and loaded.bucket_count == store.bucket_count
    rounded = _rounded(store)
    for w in store.word_vectors:
        assert loaded.word_vectors[w].tobytes() == rounded.word_vectors[w].tobytes()
    assert loaded.ngram_buckets.tobytes() == rounded.ngram_buckets.tobytes()
    vec_a, _ = emb.lookup_word(rounded, "Zugspitze")
    vec_b, _ = emb.lookup_word(loaded, "Zugspitze")
    assert vec_a.tobytes() == vec_b.tobytes()


def test_fasttext_bad_header(tmp_path):
    bad = _write(tmp_path, "bad.ftxt", "NOPE 3 3 6 2 1\nwort 1 2 3\n")
    with pytest.raises(emb.EmbeddingError, match="FTXT1"):
        emb.load_store(bad, "fasttext")


@pytest.mark.parametrize("head", ["FTXT1 3 3 6 x 1", "FTXT1 3 3 6 2.5 1", "FTXT1 -3 3 6 2 1", "FTXT1 3 3 6 2"])
def test_fasttext_malformed_header_fields_are_format_errors(tmp_path, head):
    bad = _write(tmp_path, "bad.ftxt", head + "\nwort 1 2 3\n1 2 3\n4 5 6\n")
    with pytest.raises(emb.EmbeddingError, match="header"):
        emb.load_store(bad)


@pytest.mark.parametrize("data", [b"a 1 0\n\xff\xfe 0 1\n", b"FTXT1 2 3 6 1 1\n\xff\xfe 0 1\n1 2\n"],
                         ids=["plain", "fasttext"])
def test_non_utf8_store_is_a_format_error(tmp_path, data):
    # The bad byte sits after the header, so streaming must still name its line.
    p = tmp_path / "v.txt"
    p.write_bytes(data)
    with pytest.raises(emb.EmbeddingError, match="line 2: not UTF-8"):
        emb.load_store(p)


def test_non_utf8_header_is_a_format_error(tmp_path):
    p = tmp_path / "v.txt"
    p.write_bytes(b"FTXT1 2 3 6 1 1\xff\nwort 0 1\n1 2\n")
    with pytest.raises(emb.EmbeddingError, match="line 1: not UTF-8"):
        emb.load_store(p)


def test_load_store_dispatch(tmp_path):
    p = _write(tmp_path, "v.txt", "a 1 0\n")
    assert emb.load_store(p, "plain").kind == "plain"
    with pytest.raises(emb.EmbeddingError, match="kind"):
        emb.load_store(p, "word2vec")


def _plain(store):
    return emb.EmbeddingStore(kind="plain", dim=store.dim, word_vectors=store.word_vectors)


def test_both_formats_load_with_no_kind_given(tmp_path):
    rng = np.random.default_rng(6)
    store = _toy_fasttext_store(rng)
    emb.write_fasttext_store(store, tmp_path / "s.ftxt")
    emb.write_text_vectors(store, tmp_path / "s.txt")
    write_text_store(store, tmp_path / "text.ftxt")
    write_text_store(_plain(store), tmp_path / "text.txt")
    for fasttext_name, plain_name in (("s.ftxt", "s.txt"), ("text.ftxt", "text.txt")):
        fasttext = emb.load_store(tmp_path / fasttext_name)
        plain = emb.load_store(tmp_path / plain_name)
        assert (fasttext.kind, fasttext.bucket_count, fasttext.min_n, fasttext.max_n) == ("fasttext", 64, 3, 6)
        # A plain store is a store with zero buckets and the default n-gram fields.
        assert (plain.kind, plain.bucket_count, plain.ngram_buckets, plain.min_n, plain.max_n) == ("plain", 0, None, 3, 6)
        for loaded in (fasttext, plain):
            assert loaded.dim == 4 and list(loaded.word_vectors) == list(store.word_vectors)
            for w, vec in store.word_vectors.items():
                assert loaded.word_vectors[w].tobytes() == vec.astype(np.float32).tobytes()


@pytest.mark.parametrize("kind, other", [("plain", "fasttext"), ("fasttext", "plain")])
def test_declared_kind_is_checked_against_the_file(tmp_path, kind, other):
    rng = np.random.default_rng(7)
    store = _toy_fasttext_store(rng)
    if kind == "plain":
        store = _plain(store)
    path = tmp_path / "store"
    for write in (emb.write_text_vectors if kind == "plain" else emb.write_fasttext_store, write_text_store):
        write(store, path)
        assert emb.load_store(path, kind).kind == kind
        with pytest.raises(emb.EmbeddingError, match=f"declared kind '{other}', but the file is a '{kind}' store"):
            emb.load_store(path, other)


@pytest.mark.parametrize("text, message", [
    ("a 1 0\nb 0 x\n", "line 2: bad float value: could not convert string to float: 'x'"),
    ("2 2\na 1 0\n\nb 0\n", "line 4: expected 2 values, got 1"),
    ("FTXT1 2 3 6 2 1\nwort 1 0\n1 2\n3 x\n", "line 4: bad float value"),
    ("FTXT1 2 3 6 2 1\nwort 1 0 5\n1 2\n3 4\n", "line 2: expected 2 values, got 3"),
    ("FTXT1 2 3 6 2 1\nwort 1 0\n\n1 2\n3\n", "line 5: expected 2 values, got 1"),
    ("FTXT1 2 3 6 2 1\nwort 1 0\n1 2\n\n", "line 4: file ends after 2 of the header's 1 word + 2 bucket lines"),
    ("FTXT1 2 3 6 2 1\nwort 1 0\n1 2\n3 4\n\n5 6\n", "line 6: more than the header's 1 word + 2 bucket lines"),
    ("FTXT1 2 3 6 2 1\n", "line 1: file ends after 0 of the header's 1 word + 2 bucket lines"),
], ids=["plain-float", "plain-count", "bucket-float", "word-count", "bucket-count", "too-few", "too-many", "no-body"])
def test_format_errors_name_their_line(tmp_path, text, message):
    with pytest.raises(emb.EmbeddingError, match=re.escape(message)):
        emb.load_store(_write(tmp_path, "s.txt", text))


def test_values_parse_as_float_does(tmp_path):
    fields = ["1e-5", "-0.0", "1_0", "nan", "+.5", "-inf", "4.9e-324", "0.1000000000000000055511151231257827",
              "1.000000059604644775390625000001"]
    dim = len(fields)
    text = f"FTXT1 {dim} 3 6 1 1\nwort {' '.join(fields)}\n{' '.join(reversed(fields))}\n"
    store = emb.load_store(_write(tmp_path, "s.ftxt", text))
    # Each value is its float64 value rounded to float32, as a binary copy of
    # the same float64 vectors holds it.  The last field lies just above a
    # float32 halfway point, which its float64 value sits on: rounded once
    # from the decimal it would go up, from the float64 value it goes down.
    expect = np.array([float(f) for f in fields]).astype(np.float32)
    for got, want in ((store.word_vectors["wort"], expect), (store.ngram_buckets[0], expect[::-1])):
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()  # bit-equal, so -0.0 keeps its sign


def _outcome(load, path):
    """Everything a load yields, arrays as bytes, or its error message."""
    try:
        store = load(path)
    except emb.EmbeddingError as exc:
        return str(exc)
    buckets = store.ngram_buckets
    return (store.kind, store.dim, store.min_n, store.max_n, store.bucket_count, store.duplicates_skipped,
            [(word, vec.dtype, vec.shape, vec.tobytes()) for word, vec in store.word_vectors.items()],
            None if buckets is None else (buckets.dtype, buckets.shape, buckets.tobytes()))


# Mostly values the C reader takes; then forms only float() takes (digit
# separators, non-ASCII digits, whitespace around a value; an empty field
# is a double or trailing space) and values nothing takes.
_FIELDS = st.one_of(
    st.floats().map(repr),
    st.floats(-10, 10).map(repr),
    st.floats(width=32).map(repr),
    st.sampled_from(["-0.0", "nan", "-nan", "-inf", "1e-5", "+.5", "4.9e-324", "1_0", "\uff11", "\u0663",
                     "\t1", "1\t", "\x0b2\x85", "", "1\t2", "x", "#1", "1#", "0x1", "1\x002"]),
)
_WORDS = st.text(st.sampled_from("aäß€\t\x0c\x85\u2028#1"), max_size=3)
_BLANKS = st.sampled_from(["", " ", "\t", "\x0c \u2028"])


@st.composite
def _store_files(draw):
    """A plain (headerless or ``count dim``) or FTXT1 store, as bytes, whose
    lines are mostly well-formed; the header's counts may be off by one."""
    kind = draw(st.sampled_from(["plain", "counted", "fasttext"]))
    dim = draw(st.integers(1, 3))

    def values():
        count = draw(st.sampled_from([dim] * 30 + [dim - 1, dim + 1]))
        sep = draw(st.sampled_from([" "] * 7 + ["  "]))
        return sep.join(draw(st.lists(_FIELDS, min_size=count, max_size=count))) + draw(st.sampled_from([""] * 7 + [" "]))

    words = [f"{draw(_WORDS)} {values()}" for _ in range(draw(st.integers(0, 12)))]
    rows = [values() for _ in range(draw(st.integers(0, 12)))] if kind == "fasttext" else []
    off = draw(st.sampled_from([0] * 6 + [-1, 1]))
    head = {
        "plain": [],
        "counted": [f"{len(words)} {dim + off}"],
        "fasttext": [f"FTXT1 {dim} 3 6 {len(rows) + off * draw(st.booleans())} {max(len(words) - off, 0)}"],
    }[kind]
    lines = [line.encode("utf-8") for line in head + words + rows]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(_BLANKS).encode("utf-8") if draw(st.integers(0, 9)) else b"\xff 1"
        lines.insert(draw(st.integers(len(head), len(lines))), extra)
    return b"".join(line + draw(st.sampled_from([b"\n", b"\r\n"])) for line in lines)


@given(data=_store_files())
@settings(max_examples=300, deadline=None)
def test_text_reader_matches_the_line_at_a_time_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store"
        path.write_bytes(data)
        got = _outcome(emb.load_store, path)
        head = data.split(b"\n", 1)[0].split()
        if head[:1] == [b"FTXT1"] and 2 * int(head[4]) * int(head[1]) > len(data):
            assert got.endswith("more than the file's %d bytes can hold" % len(data))
        else:
            assert got == _outcome(reference_load_store, path)


@pytest.mark.parametrize("bad", [0, 63, 64, 127])
@pytest.mark.parametrize("value", ["x", "1_0"])
def test_a_value_only_float_takes_or_none_takes_on_a_block_edge(tmp_path, bad, value):
    lines = [f"w{i} {i} {-i}.5" for i in range(131)]
    lines[bad] = f"w{bad} {value} 1"
    path = _write(tmp_path, "s.txt", "\n".join(lines) + "\n")
    got = _outcome(emb.load_store, path)
    assert got == _outcome(reference_load_store, path)
    if value == "x":
        assert got == f"line {bad + 1}: bad float value: could not convert string to float: 'x'"
    else:
        assert got[6][bad][3] == np.array([10.0, 1.0], dtype=np.float32).tobytes()


def test_a_bad_line_comes_before_a_later_non_utf8_line_of_its_block(tmp_path):
    p = tmp_path / "s.txt"
    p.write_bytes(b"a 1 0\nb 0 x\n\xff 1 1\n")
    with pytest.raises(emb.EmbeddingError, match="line 2: bad float value"):
        emb.load_store(p)


def test_fasttext_header_is_bounded_by_the_file_size(tmp_path):
    path = _write(tmp_path, "s.ftxt", "FTXT1 300 3 6 100000000 0\n1 2\n")
    with pytest.raises(emb.EmbeddingError, match=r"line 1: header declares 100000000 buckets of 300 values"):
        emb.load_store(path)


def test_text_and_binary_stores_give_bit_equal_lookups_and_predictions(tmp_path):
    sentences = make_corpus(24, seed=11)
    texts = sorted({t.text for s in sentences for t in s.tokens})
    rng = np.random.default_rng(12)
    # Every other token text is in the vocabulary; the rest are OOV.
    store = emb.EmbeddingStore(kind="fasttext", dim=300, word_vectors={w: rng.normal(size=300) for w in texts[::2]},
                               ngram_buckets=rng.normal(size=(500, 300)), bucket_count=500)
    write_text_store(store, tmp_path / "s.ftxt")
    emb.write_fasttext_store(store, tmp_path / "s.bin")
    text, binary = emb.load_store(tmp_path / "s.ftxt"), emb.load_store(tmp_path / "s.bin")
    for word in texts + ["Zugspitze", "Straßenbahnhaltestelle"]:
        (a, a_oov), (b, b_oov) = emb.lookup_word(text, word), emb.lookup_word(binary, word)
        assert a_oov == b_oov == (word not in store.word_vectors)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    model = build_model(ModelConfig(germeval_schema(), char_variant="bilstm"), build_char_vocab(sentences), seed=3)
    assert model.dtype == np.float32
    batch = batch_from_sentences(sentences, model.char_vocab, model.config.required_char_mode)
    assert forward_emissions(model, batch, text).tobytes() == forward_emissions(model, batch, binary).tobytes()
    assert predict_batch(model, text, sentences) == predict_batch(model, binary, sentences)


def test_binary_store_maps_plain_read_only_rows(tmp_path):
    rng = np.random.default_rng(13)
    emb.write_fasttext_store(_toy_fasttext_store(rng), tmp_path / "s.bin")
    store = emb.load_store(tmp_path / "s.bin")
    arrays = [*store.word_vectors.values(), store.ngram_buckets]
    assert all(type(a) is np.ndarray and a.dtype == np.float32 and not a.flags.writeable for a in arrays)


def test_rewriting_a_mapped_store_replaces_the_file(tmp_path):
    # Rewriting the file in place would change (or, shortened, fault) the
    # pages a loaded store still reads.
    path = tmp_path / "s.bin"
    first, second = (_toy_fasttext_store(np.random.default_rng(seed)) for seed in (14, 15))
    emb.write_fasttext_store(first, path)
    loaded, inode = emb.load_store(path), os.stat(path).st_ino
    emb.write_fasttext_store(second, path)
    assert os.stat(path).st_ino != inode and os.listdir(tmp_path) == ["s.bin"]
    assert loaded.ngram_buckets.tobytes() == first.ngram_buckets.astype(np.float32).tobytes()
    assert emb.load_store(path).ngram_buckets.tobytes() == second.ngram_buckets.astype(np.float32).tobytes()


def test_a_store_write_failing_midway_leaves_the_old_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "s.bin"
    emb.write_fasttext_store(_toy_fasttext_store(np.random.default_rng(14)), path)
    old = path.read_bytes()
    blocks = []

    def word_rows_then_full_disk(rows, dim, _fn=emb._float32_rows):
        if blocks:  # the bucket rows, after the word rows were written
            raise OSError("No space left on device")
        blocks.append(_fn(rows, dim))
        return blocks[-1]

    monkeypatch.setattr(emb, "_float32_rows", word_rows_then_full_disk)
    with pytest.raises(OSError, match="No space left"):
        emb.write_fasttext_store(_toy_fasttext_store(np.random.default_rng(15)), path)
    assert blocks and path.read_bytes() == old
    assert os.listdir(tmp_path) == ["s.bin"]


@pytest.mark.parametrize("vectors, message", [
    ({"a\nb": np.zeros(2)}, "holds a newline"),
    ({"\ud800": np.zeros(2)}, "UTF-8"),
    ({"a": np.zeros(2), "b": np.zeros(3)}, "store's 2 values"),
], ids=["newline", "surrogate", "dim"])
def test_a_store_the_format_cannot_hold_is_refused(tmp_path, vectors, message):
    path = tmp_path / "s.bin"
    path.write_bytes(b"old")
    with pytest.raises(emb.EmbeddingError, match=message):
        emb.write_text_vectors(emb.EmbeddingStore(kind="plain", dim=2, word_vectors=vectors), path)
    assert os.listdir(tmp_path) == ["s.bin"] and path.read_bytes() == b"old"


_HEADER_AT = len(emb.BINARY_MAGIC)
_FIELDS_AT = {name: _HEADER_AT + 8 + 8 * i
              for i, name in enumerate(["dim", "min_n", "max_n", "bucket_count", "word_count", "words_bytes"])}


def _binary_fixture(kind: str) -> bytes:
    rng = np.random.default_rng(16)
    store = _toy_fasttext_store(rng, words=("ab", "ac", "für", "Straße"), dim=3, buckets=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.bin"
        (emb.write_fasttext_store if kind == "fasttext" else emb.write_text_vectors)(store, path)
        return path.read_bytes()


_BINARY_FIXTURES = {kind: _binary_fixture(kind) for kind in emb.STORE_KINDS}


def _with_field(data: bytes, name: str, value: int) -> bytes:
    at = _FIELDS_AT[name]
    return data[:at] + struct.pack("<Q", value) + data[at + 8 :]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.replace(b"ac\n", b"ab\n"), "lists the word 'ab' twice"),
    (lambda d: d.replace(b"ac\n", b"\xff\xfe\n"), "word list is not UTF-8"),
    (lambda d: d.replace("Straße\n".encode(), "Straßex".encode()), "word list does not end with a newline"),
    (lambda d: d.replace(b"ac\n", b"a\n\n"), "word list holds 5 words, header declares 4"),
    (lambda d: d.replace(b"fasttext", b"plain\0\0\0"), "plain store with 5 buckets"),
    (lambda d: d.replace(b"fasttext", b"fastText"), "unknown kind"),
    (lambda d: _with_field(d, "min_n", 7), "min_n 7 > max_n 6"),
    (lambda d: _with_field(d, "word_count", 2**40), "declares 1099511627776 words in"),
    (lambda d: _with_field(d, "bucket_count", 6), "but the file has"),
    (lambda d: d[:-1], "but the file has"),
    (lambda d: d + b"\0", "but the file has"),
    (lambda d: d[:_HEADER_AT + 20], "ends inside its 56-byte header"),
], ids=["duplicate", "utf8", "unterminated", "count", "kind-buckets", "kind", "ngram-range", "words-bytes",
        "buckets", "truncated", "trailing", "header"])
def test_binary_store_corruptions_are_format_errors(tmp_path, mutate, message):
    data = mutate(_BINARY_FIXTURES["fasttext"])
    assert data != _BINARY_FIXTURES["fasttext"]
    path = tmp_path / "s.bin"
    path.write_bytes(data)
    with pytest.raises(emb.EmbeddingError, match=re.escape(message)):
        emb.load_store(path)


@st.composite
def _mutated_binary_stores(draw):
    """(kind, mutation, bytes): a valid binary store truncated at any byte,
    with one byte flipped, one header count inflated, or bytes appended."""
    kind = draw(st.sampled_from(emb.STORE_KINDS))
    data = _BINARY_FIXTURES[kind]
    mutation = draw(st.sampled_from(["truncate", "flip", "inflate", "append"]))
    if mutation == "truncate":
        return kind, mutation, data[: draw(st.integers(0, len(data) - 1))]
    if mutation == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return kind, (mutation, at), data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if mutation == "inflate":
        name = draw(st.sampled_from(["dim", "bucket_count", "word_count", "words_bytes"]))
        value = struct.unpack_from("<Q", data, _FIELDS_AT[name])[0]
        by = draw(st.one_of(st.integers(1, 4096), st.sampled_from([2**31, 2**40, 2**63, 2**64 - 1 - value])))
        return kind, (mutation, name), _with_field(data, name, value + by)
    return kind, mutation, data + draw(st.binary(min_size=1, max_size=80))


@given(case=_mutated_binary_stores())
@settings(max_examples=400, deadline=None)
def test_a_mutated_binary_store_loads_or_is_a_format_error(case):
    kind, mutation, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.bin"
        path.write_bytes(data)
        mapped = []
        real_memmap = np.memmap

        def recording_memmap(*args, **kwargs):
            mapped.append(kwargs.get("shape"))
            return real_memmap(*args, **kwargs)

        tracemalloc.start()
        try:
            with mock.patch.object(emb.np, "memmap", recording_memmap):
                store = emb.load_store(path)
        except emb.EmbeddingError:
            store = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    # Nothing the header declares is allocated unchecked: the reader's peak
    # stays within a small multiple of the file.
    assert peak < 4 * len(data) + 64 * 1024
    if mutation[0] == "inflate" or mutation in ("truncate", "append"):
        assert store is None
    if mutation[0] == "inflate":
        assert not mapped
    offset = len(_BINARY_FIXTURES[kind]) - 4 * (4 + 5 * (kind == "fasttext")) * 3
    if mutation[0] == "flip" and mutation[1] >= offset:
        # A flipped matrix byte is a different value, read as it stands.
        assert store is not None
        matrix = np.frombuffer(data[offset:], dtype="<f4").reshape(-1, 3)
        got = np.concatenate([np.array(list(store.word_vectors.values())).reshape(-1, 3),
                              store.ngram_buckets if kind == "fasttext" else np.empty((0, 3), np.float32)])
        assert got.tobytes() == matrix.tobytes()


def _write_bin_fixture(path, words, dim, bucket, min_n=3, max_n=6, seed=0, version=12):
    # Synthetic file following the published binary layout (non-quantized).
    import struct

    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(len(words) + bucket, dim)).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<ii", 793712314, version))
        fh.write(struct.pack("<12i", dim, 5, 5, 0, 5, 1, 1, 1, bucket, min_n, max_n, 100))
        fh.write(struct.pack("<d", 1e-4))
        fh.write(struct.pack("<iii", len(words), len(words), 0))
        fh.write(struct.pack("<q", 12345))  # token count
        fh.write(struct.pack("<q", 0))  # no pruning
        for w in words:
            fh.write(w.encode("utf-8") + b"\x00")
            fh.write(struct.pack("<qb", 7, 0))
        fh.write(struct.pack("<b", 0))  # not quantized
        fh.write(struct.pack("<qq", len(words) + bucket, dim))
        fh.write(matrix.tobytes())
    return matrix


def test_convert_bin_composes_word_vectors(tmp_path):
    words = ["gehen", "Haus", "für"]
    path = tmp_path / "model.bin"
    matrix = _write_bin_fixture(path, words, dim=4, bucket=16, seed=3).astype(np.float64)
    store = emb.convert_fasttext_bin(path)
    assert store.kind == "fasttext" and store.dim == 4 and store.bucket_count == 16
    buckets = matrix[len(words):]
    for wid, word in enumerate(words):
        rows = [matrix[wid]]
        rows += [buckets[emb.ngram_bucket(g, 16)] for g in emb.extract_char_ngrams(word)]
        np.testing.assert_allclose(store.word_vectors[word], np.mean(rows, axis=0), atol=1e-12)
    # Bucket rows are carried over untouched, so OOV inference addresses them.
    np.testing.assert_allclose(store.ngram_buckets, buckets, atol=1e-12)
    vec, oov = emb.lookup_word(store, "Bücher")
    assert oov and np.isfinite(vec).all()


def test_convert_bin_reads_the_mapped_matrix_bit_exactly_and_refuses_a_truncated_one(tmp_path):
    words = ["gehen", "Haus"]
    path = tmp_path / "model.bin"
    matrix = _write_bin_fixture(path, words, dim=3, bucket=8, seed=6)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 40)  # the published layout's output matrix follows the input one
    store = emb.convert_fasttext_bin(path)
    assert store.ngram_buckets.tobytes() == matrix[len(words):].tobytes()
    for wid, word in enumerate(words):
        rows = [matrix[wid]] + [matrix[len(words) + emb.ngram_bucket(g, 8)] for g in emb.extract_char_ngrams(word)]
        assert store.word_vectors[word].tobytes() == np.mean(np.array(rows, np.float64), axis=0).astype("<f4").tobytes()
    data = path.read_bytes()[:-40]
    for cut in (1, 4, matrix.nbytes):
        path.write_bytes(data[:-cut])
        with pytest.raises(emb.EmbeddingError, match="truncated input matrix"):
            emb.convert_fasttext_bin(path)


def test_convert_bin_hashes_each_ngram_once_and_matches_the_per_word_result(tmp_path, monkeypatch):
    # Words that share most of their n-grams, and the end-of-sentence
    # entry, which takes its own row alone.
    words = ["</s>", "Haus", "Hause", "Hauses", "Häuser", "Rathaus", "Rathauses", "aus"]
    path = tmp_path / "model.bin"
    matrix = _write_bin_fixture(path, words, dim=5, bucket=32, seed=9)
    hashed = []

    def counted(ngram, bucket_count, _fn=emb.ngram_bucket):
        hashed.append(ngram)
        return _fn(ngram, bucket_count)

    monkeypatch.setattr(emb, "ngram_bucket", counted)
    store = emb.convert_fasttext_bin(path)
    grams = [g for w in words[1:] for g in emb.extract_char_ngrams(w)]
    assert sorted(hashed) == sorted(set(grams)) and len(hashed) < len(grams)
    monkeypatch.undo()
    for wid, word in enumerate(words):
        rows = [matrix[wid]]
        if word != "</s>":
            rows += [matrix[len(words) + emb.ngram_bucket(g, 32)] for g in emb.extract_char_ngrams(word)]
        want = np.mean(np.array(rows, dtype=np.float64), axis=0).astype(np.float32)
        assert store.word_vectors[word].tobytes() == want.tobytes()


def test_convert_bin_round_trips_through_ftxt(tmp_path):
    path = tmp_path / "model.bin"
    _write_bin_fixture(path, ["wort"], dim=3, bucket=8, seed=4)
    store = emb.convert_fasttext_bin(path)
    out = tmp_path / "model.ftxt"
    emb.write_fasttext_store(store, out)
    loaded = emb.load_store(out)
    a, _ = emb.lookup_word(store, "unbekanntes")
    b, _ = emb.lookup_word(loaded, "unbekanntes")
    np.testing.assert_array_equal(a, b)


def test_convert_script_writes_binary_stores_from_published_models_and_text_stores(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "convert_fasttext.py"
    _write_bin_fixture(tmp_path / "model.bin", ["wort", "haus"], dim=3, bucket=8, seed=5)
    text = _toy_fasttext_store(np.random.default_rng(17))
    write_text_store(text, tmp_path / "old.ftxt")
    for source, out, args in (("model.bin", "a.store", []), ("old.ftxt", "b.store", ["--max-words", "1"])):
        subprocess.run([sys.executable, str(script), str(tmp_path / source), str(tmp_path / out), *args],
                       check=True, capture_output=True, timeout=60)
        assert (tmp_path / out).read_bytes().startswith(emb.BINARY_MAGIC)
    converted, migrated = emb.load_store(tmp_path / "a.store"), emb.load_store(tmp_path / "b.store")
    assert _outcome(lambda p: converted, None) == _outcome(lambda p: emb.convert_fasttext_bin(p), tmp_path / "model.bin")
    assert list(migrated.word_vectors) == ["gehen"] and migrated.bucket_count == 64
    assert migrated.ngram_buckets.tobytes() == text.ngram_buckets.astype(np.float32).tobytes()


def test_convert_bin_rejects_a_negative_max_words_and_keeps_the_first_words_otherwise(tmp_path):
    path = tmp_path / "model.bin"
    _write_bin_fixture(path, ["wort", "haus", "baum"], dim=3, bucket=8, seed=7)
    with pytest.raises(emb.EmbeddingError, match="max_words must be >= 0, got -1"):
        emb.convert_fasttext_bin(path, max_words=-1)
    for max_words, kept in ((0, []), (2, ["wort", "haus"]), (5, ["wort", "haus", "baum"])):
        assert list(emb.convert_fasttext_bin(path, max_words=max_words).word_vectors) == kept


def test_convert_script_refuses_a_negative_max_words(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "convert_fasttext.py"
    write_text_store(_toy_fasttext_store(np.random.default_rng(17)), tmp_path / "old.ftxt")
    done = subprocess.run([sys.executable, str(script), str(tmp_path / "old.ftxt"), str(tmp_path / "b.store"),
                           "--max-words", "-1"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "--max-words: expected a whole number >= 0, got '-1'" in done.stderr
    assert not (tmp_path / "b.store").exists()


def test_convert_bin_rejects_quantized_and_bad_magic(tmp_path):
    import struct

    bad = tmp_path / "bad.bin"
    bad.write_bytes(struct.pack("<ii", 42, 12))
    with pytest.raises(emb.EmbeddingError, match="magic"):
        emb.convert_fasttext_bin(bad)
