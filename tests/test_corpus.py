import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import corpus
from gner.datagen import make_corpus
from gner.evaluation import EvaluationError, extract_chunks
from helpers import write_conll03
from oracles import reference_char_rows

GERMEVAL_FIXTURE = """\
# http://example.org [2009-10-17]
1\tAachen\tB-LOC\tO
2\tliegt\tO\tO
3\tim\tO\tO
4\tWesten\tO\tO

# nested entity
1\tReal\tB-ORG\tO
2\tMadrid\tI-ORG\tB-LOC
3\tgewinnt\tO\tO
"""

CONLL_FIXTURE = """\
-DOCSTART- -X- O

Aachen NN I-LOC
liegt VVFIN O
.  $. O

Der ART O
FC NN I-ORG
Bayern NE I-ORG
"""


def test_parse_germeval_fixture(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text(GERMEVAL_FIXTURE, encoding="utf-8")
    sents = corpus.parse_germeval(p)
    assert len(sents) == 2
    assert sents[0].texts() == ["Aachen", "liegt", "im", "Westen"]
    assert sents[0].outer_labels == ["B-LOC", "O", "O", "O"]
    assert sents[0].inner_labels == ["O", "O", "O", "O"]
    # Nested annotation: outer ORG span containing an inner LOC.
    assert sents[1].outer_labels == ["B-ORG", "I-ORG", "O"]
    assert sents[1].inner_labels == ["O", "B-LOC", "O"]


def test_parse_germeval_ragged_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1\tAachen\tB-LOC\n", encoding="utf-8")
    with pytest.raises(corpus.CorpusError, match="bad.tsv:1"):
        corpus.parse_germeval(p)


def test_parse_germeval_unknown_label(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1\tAachen\tB-CITY\tO\n", encoding="utf-8")
    with pytest.raises(corpus.CorpusError, match="B-CITY"):
        corpus.parse_germeval(p)


@pytest.mark.parametrize("parse", [corpus.parse_germeval, corpus.parse_conll03])
def test_parsers_report_a_file_that_is_not_utf8(tmp_path, parse):
    p = tmp_path / "latin1.tsv"
    p.write_bytes("1\tKöln\tB-LOC\tO\n".encode("latin-1"))
    with pytest.raises(corpus.CorpusError, match="cannot read .*latin1.tsv"):
        parse(p)


def test_parse_germeval_empty_token(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1\t\tB-LOC\tO\n", encoding="utf-8")
    with pytest.raises(corpus.CorpusError, match="bad.tsv:1"):
        corpus.parse_germeval(p)


def test_parse_conll_fixture(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(CONLL_FIXTURE, encoding="utf-8")
    sents = corpus.parse_conll03(p)
    assert len(sents) == 2  # -DOCSTART- block omitted
    assert sents[0].texts() == ["Aachen", "liegt", "."]
    assert sents[0].outer_labels == ["I-LOC", "O", "O"]
    assert sents[0].inner_labels is None
    assert corpus.iob_to_bio(sents[0].outer_labels) == ["B-LOC", "O", "O"]
    # Token counts match the number of source lines per block.
    assert len(sents[1]) == 3


def test_iob_to_bio_rules():
    assert corpus.iob_to_bio(["I-PER", "I-PER", "O", "I-LOC"]) == ["B-PER", "I-PER", "O", "B-LOC"]
    assert corpus.iob_to_bio(["I-PER", "B-PER"]) == ["B-PER", "B-PER"]
    assert corpus.iob_to_bio(["B-ORG", "I-ORG"]) == ["B-ORG", "I-ORG"]
    assert corpus.iob_to_bio(["I-PER", "I-ORG"]) == ["B-PER", "B-ORG"]


def test_iob_to_bio_rejects_malformed():
    with pytest.raises(corpus.CorpusError, match="malformed"):
        corpus.iob_to_bio(["X-PER"])


@pytest.mark.parametrize("label, parts", [
    ("O", ("O", "")), ("B-PER", ("B", "PER")), ("I-LOCderiv", ("I", "LOCderiv")),
    ("B-", None), ("X-PER", None), ("I-PER X", None), ("o", None), ("", None), ("B-PER\n", None),
])
def test_split_tag_grammar(label, parts):
    assert corpus.split_tag(label) == parts


@pytest.mark.parametrize("tag", ["B-", "X-PER", "I-PER X", "o", "", "B_PER", "-PER", "B-PER\n"])
def test_iob_to_bio_and_extract_chunks_reject_the_same_malformed_tags(tag):
    labels = ["B-PER", tag]
    with pytest.raises(corpus.CorpusError, match="malformed tag .* at position 1"):
        corpus.iob_to_bio(labels)
    for strict in (False, True):
        with pytest.raises(EvaluationError, match="malformed label .* at position 1"):
            extract_chunks(labels, strict=strict)


def test_map_combined_cases():
    labels = ["B-LOCderiv", "I-LOCderiv", "I-ORGpart", "B-PERpart", "B-PER", "I-PER", "O", "B-MISC", "B-OTH"]
    assert corpus.map_combined(labels) == ["B-MISC", "I-MISC", "O", "O", "B-PER", "I-PER", "O", "B-MISC", "B-OTH"]


def test_map_combined_idempotent_on_all_labels():
    labels = corpus.germeval_schema().labels
    for sequence in [[label] for label in labels] + [list(labels)]:
        once = corpus.map_combined(sequence)
        assert corpus.map_combined(once) == once
        assert set(once) <= set(corpus.combined_schema().labels)


def test_map_combined_rejects_unknown():
    for label in ("B-CITY", "I-PER X"):
        with pytest.raises(corpus.CorpusError, match="cannot map unknown label"):
            corpus.map_combined(["O", label])


def test_map_combined_repairs_orphaned_continuations():
    # A dropped -part chunk start must not leave a dangling I- tag behind.
    assert corpus.map_combined(["B-ORGpart", "I-ORG"]) == ["O", "B-ORG"]


_label_seq = st.lists(
    st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG"]),
    min_size=0,
    max_size=12,
)


@given(_label_seq)
@settings(max_examples=120, deadline=None)
def test_iob_to_bio_idempotent(labels):
    once = corpus.iob_to_bio(labels)
    assert corpus.iob_to_bio(once) == once


@given(_label_seq)
@settings(max_examples=120, deadline=None)
def test_chunks_invariant_under_iob_reading(labels):
    # Chunks found by the lenient extractor (which understands IOB's plain
    # I-X starts) must survive the explicit conversion to BIO.
    before = extract_chunks(labels)
    after = extract_chunks(corpus.iob_to_bio(labels))
    assert before == after


@pytest.mark.parametrize(
    "token,expected",
    [
        ("2018", "numeric"),
        ("Berlin", "initial_upper"),
        ("und", "all_lower"),
        ("GmbH", "other"),
        ("A380", "mainly_numeric"),
        ("DHL", "all_upper"),
        ("iPhone7", "contains_digit"),
        ("§%&", "other"),
        ("B", "all_upper"),
        ("über", "all_lower"),
    ],
)
def test_casing_feature_rules(token, expected):
    assert corpus.casing_feature_name(token) == expected
    (vec,) = corpus.casing_features([token])
    assert vec[corpus.CASING_FEATURE_NAMES.index(expected)] == 1.0


@given(st.text(min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_casing_one_hot_sums_to_one(token):
    assert corpus.casing_features([token]).sum() == 1.0


def _sent(*texts, outer=None, inner=None):
    toks = [corpus.Token(t) for t in texts]
    return corpus.Sentence(toks, outer or ["O"] * len(toks), inner)


def test_char_vocab_reserved_slots():
    vocab = corpus.build_char_vocab([_sent("ab", "ba")])
    assert vocab.lookup("<pad>") == 0
    assert vocab.lookup("<W>") == 4
    assert vocab.lookup("a") >= 6
    assert vocab.lookup("Đ") == corpus.UNK_INDEX


def test_char_sequences_rnn_raw_unpadded():
    vocab = corpus.build_char_vocab([_sent("ab", "b")])
    rows = corpus.build_char_rows([("ab", False, False), ("b", False, False)], vocab, "rnn")
    a, b = vocab.lookup("a"), vocab.lookup("b")
    assert rows.tolist() == [[a, b], [b, corpus.PAD_INDEX]]


def test_char_sequences_cnn_decoration_order():
    vocab = corpus.build_char_vocab([_sent("ab")])
    keys = [("ab", True, True), ("ab", True, False), ("ab", False, True), ("ab", False, False)]
    rows = corpus.build_char_rows(keys, vocab, "cnn")
    a, b = vocab.lookup("a"), vocab.lookup("b")
    s0, w0, w1, s1 = (vocab.lookup(v) for v in ("<S>", "<W>", "</W>", "</S>"))
    pad = corpus.PAD_INDEX
    assert rows.tolist() == [[s0, w0, a, b, w1, s1], [s0, w0, a, b, w1, pad], [w0, a, b, w1, s1, pad],
                             [w0, a, b, w1, pad, pad]]


# Characters in and out of the vocabulary: non-BMP ones, a lone surrogate
# (one code point to str, as after json.loads of "\ud83d") and any other.
_ROW_VOCAB = corpus.CharVocab.from_chars("abcÄß<\U0001F600\ud83d")
_ROW_SYMBOLS = st.sampled_from(list("abcÄß<xÐ") + ["\U0001F600", "\U00010348", "\ud83d", "\ude00"]) | st.characters()
_ROW_KEYS = st.lists(st.tuples(st.text(_ROW_SYMBOLS, min_size=1, max_size=6), st.booleans(), st.booleans()),
                     min_size=1, max_size=12)


@given(_ROW_KEYS, st.sampled_from(["cnn", "rnn"]))
@settings(max_examples=300, deadline=None)
def test_char_rows_equal_the_symbol_at_a_time_reference(keys, mode):
    rows = corpus.build_char_rows(keys, _ROW_VOCAB, mode)
    assert rows.dtype == np.int64
    np.testing.assert_array_equal(rows, reference_char_rows(keys, _ROW_VOCAB, mode))
    # A batch's keys are in first-occurrence order, and it builds their
    # rows when asked.
    texts = [text for text, _, _ in keys]
    sentences = [_sent(*texts), _sent(texts[-1]), _sent(*texts[::2])]
    batch = corpus.batch_from_sentences(sentences, _ROW_VOCAB, mode)
    cnn = mode == "cnn"
    occurring = [(tok.text, cnn and t == 0, cnn and t == len(s) - 1) for s in sentences for t, tok in enumerate(s.tokens)]
    assert batch.keys == list(dict.fromkeys(occurring))
    np.testing.assert_array_equal(batch.chars_of(range(len(batch.keys))),
                                  reference_char_rows(batch.keys, _ROW_VOCAB, mode))
    assert [batch.keys[u] for u in batch.token_keys[batch.mask]] == occurring


def test_token_keys_mark_first_and_last_only_in_cnn_mode():
    vocab = corpus.build_char_vocab([_sent("Ulm", "mag")])
    sentence = _sent("Ulm", "mag", "Ulm")
    cnn = corpus.batch_from_sentences([sentence], vocab, "cnn")
    first, middle, last = (cnn.keys[k] for k in cnn.token_keys[0])
    assert len(cnn.keys) == 3
    assert (first, middle, last) == (("Ulm", True, False), ("mag", False, False), ("Ulm", False, True))
    assert corpus.batch_from_sentences([_sent("Ulm")], vocab, "cnn").keys == [("Ulm", True, True)]
    # Each key's character row is its decorated text.
    np.testing.assert_array_equal(cnn.chars_of(range(len(cnn.keys))), reference_char_rows(cnn.keys, vocab, "cnn"))
    for mode in ("rnn", None):
        plain = corpus.batch_from_sentences([sentence], vocab if mode else None, mode)
        assert sorted(plain.keys) == [("Ulm", False, False), ("mag", False, False)]
        assert plain.token_keys[0, 0] == plain.token_keys[0, 2] != plain.token_keys[0, 1]
    # Keys are shared across the sentences of a batch.
    both = corpus.batch_from_sentences([sentence, _sent("mag", "Ulm", "Ulm")], vocab, "rnn")
    assert len(both.keys) == 2 and sorted(set(both.token_keys[both.mask].tolist())) == [0, 1]


def test_make_batches_sizes():
    sents = [_sent(*["w"] * (i % 5 + 1)) for i in range(10)]
    batches = corpus.make_batches(sents, 16, seed=0)
    assert [len(b) for b in batches] == [10]
    sents = [_sent(*["w"] * (i % 5 + 1)) for i in range(20)]
    batches = corpus.make_batches(sents, 16, seed=0)
    assert sorted(len(b) for b in batches) == [4, 16]


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=17), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_make_batches_partition_property(n, batch_size, seed):
    sents = [
        corpus.Sentence([corpus.Token("w")] * (i % 7 + 1), ["O"] * (i % 7 + 1), None, source_id=str(i))
        for i in range(n)
    ]
    batches = corpus.make_batches(sents, batch_size, seed)
    ids = sorted(s.source_id for b in batches for s in b.sentences)
    assert ids == sorted(str(i) for i in range(n))
    for b in batches:
        assert len(b) <= batch_size
        for row, s in zip(b.mask, b.sentences):
            assert row[: len(s)].all() and not row[len(s):].any()


def _occurrence_layout(sentences, vocab, mode) -> np.ndarray:
    """(batch, max_len, chars): one character row per token occurrence,
    decorated per position in ``cnn`` mode, post-padded to the longest."""
    rows = []
    for s in sentences:
        sent_rows = []
        for t, tok in enumerate(s.tokens):
            symbols = list(tok.text)
            if mode == "cnn":
                symbols = ["<W>", *symbols, "</W>"]
                if t == 0:
                    symbols.insert(0, "<S>")
                if t == len(s) - 1:
                    symbols.append("</S>")
            sent_rows.append([vocab.lookup(ch) for ch in symbols])
        rows.append(sent_rows)
    width = max(len(row) for sent_rows in rows for row in sent_rows)
    out = np.full((len(sentences), max(len(s) for s in sentences), width), corpus.PAD_INDEX, dtype=np.int64)
    for b, sent_rows in enumerate(rows):
        for t, row in enumerate(sent_rows):
            out[b, t, : len(row)] = row
    return out


def test_batch_char_indices_shape_and_mask_rows():
    vocab = corpus.build_char_vocab([_sent("ab", "c")])
    batch = corpus.batch_from_sentences([_sent("ab", "c"), _sent("a")], vocab, "rnn")
    assert batch.char_indices.shape == (2, 2, 2)
    # Every row is post-padded to the longest token.
    a, b, c = (vocab.lookup(ch) for ch in "abc")
    assert batch.char_indices[:, 0].tolist() == [[a, b], [a, 0]]
    assert batch.char_indices[0, 1].tolist() == [c, 0]
    # Masked position (sentence 2, token 2) holds only padding.
    assert (batch.char_indices[1, 1] == corpus.PAD_INDEX).all()
    # cnn rows are decorated and post-padded the same way, with nothing more.
    cnn = corpus.batch_from_sentences([_sent("ab", "c"), _sent("a")], vocab, "cnn")
    rows = corpus.build_char_rows([("ab", True, False), ("c", False, True)], vocab, "cnn")
    assert cnn.char_indices.shape == (2, 2, 5)
    assert cnn.char_indices[0].tolist() == rows.tolist()
    # The view from the key table is the per-occurrence layout: repeated
    # tokens, one-token sentences, unknown characters and padding included.
    sents = make_corpus(40, seed=3)
    vocab = corpus.build_char_vocab(sents[:10])
    sents += [_sent("Ulm"), _sent("Ulm", "Ulm", "Ulm"), _sent("ǅ", "ǅ")]
    for mode in ("rnn", "cnn"):
        for group in (sents, sents[-3:], sents[:1]):
            batch = corpus.batch_from_sentences(group, vocab, mode)
            view = batch.char_indices
            assert view.dtype == np.int64
            np.testing.assert_array_equal(view, _occurrence_layout(group, vocab, mode))
            # The batch builds the rows of any of its keys when asked.
            some = list(range(0, len(batch.keys), 3))
            np.testing.assert_array_equal(batch.chars_of(some),
                                          reference_char_rows([batch.keys[u] for u in some], vocab, mode))
    assert corpus.batch_from_sentences(sents, None, None).char_indices is None


def test_round_trip_germeval(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text(GERMEVAL_FIXTURE, encoding="utf-8")
    sents = corpus.parse_germeval(p)
    out = tmp_path / "out.tsv"
    corpus.write_germeval(sents, out)
    again = corpus.parse_germeval(out)
    assert again == sents


def test_a_germeval_write_failing_midway_leaves_the_old_file_whole(tmp_path):
    # The second sentence holds a lone surrogate, which UTF-8 cannot encode.
    p = tmp_path / "g.tsv"
    p.write_text(GERMEVAL_FIXTURE, encoding="utf-8")
    sents = corpus.parse_germeval(p)
    old = p.read_bytes()
    broken = [sents[0], corpus.Sentence([corpus.Token("Ulm\ud800")], ["O"])]
    with pytest.raises(UnicodeEncodeError):
        corpus.write_germeval(broken, p)
    assert p.read_bytes() == old
    assert [q.name for q in tmp_path.iterdir()] == ["g.tsv"]


def test_a_germeval_rewrite_keeps_the_file_mode_and_writes_through_a_symlink(tmp_path):
    # The split is written to a temp file and moved over the target: the
    # target keeps its permission bits, and a symlink stays a symlink.
    real, link = tmp_path / "g.tsv", tmp_path / "link.tsv"
    real.write_text(GERMEVAL_FIXTURE, encoding="utf-8")
    real.chmod(0o600)
    link.symlink_to(real.name)
    sents = corpus.parse_germeval(real)
    corpus.write_germeval(sents[:1], link)
    assert link.is_symlink() and os.readlink(link) == real.name
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert corpus.parse_germeval(real) == sents[:1]
    assert sorted(q.name for q in tmp_path.iterdir()) == ["g.tsv", "link.tsv"]


def test_round_trip_conll(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(CONLL_FIXTURE, encoding="utf-8")
    sents = corpus.parse_conll03(p)
    out = tmp_path / "out.txt"
    write_conll03(sents, out)
    assert corpus.parse_conll03(out) == sents


def test_schema_sizes():
    assert len(corpus.germeval_schema()) == 25
    assert len(corpus.germeval_schema().entity_classes) == 12
    assert len(corpus.conll_schema()) == 9
    assert len(corpus.conll_schema().entity_classes) == 4


def test_schema_index_guard():
    schema = corpus.conll_schema()
    assert schema.index_of("B-PER") == schema.labels.index("B-PER")
    with pytest.raises(corpus.CorpusError, match="B-LOCderiv"):
        schema.index_of("B-LOCderiv")


def test_read_corpus_gives_bio_sentences_with_the_parsers_source_ids(tmp_path):
    conll = tmp_path / "c.txt"
    conll.write_text("Bonn NN I-LOC\n\n-DOCSTART- -X- O\n\n" + CONLL_FIXTURE, encoding="utf-8")
    raw = corpus.parse_conll03(conll)
    sents = corpus.read_corpus(conll, "conll")
    # A dropped -DOCSTART- sentence takes no number.
    assert [s.source_id for s in sents] == [s.source_id for s in raw] == ["c.txt:0", "c.txt:1", "c.txt:2"]
    assert [s.outer_labels for s in sents] == [["B-LOC"], ["B-LOC", "O", "O"], ["O", "B-ORG", "I-ORG"]]
    assert raw[1].outer_labels == ["I-LOC", "O", "O"] and all(s.inner_labels is None for s in sents)
    germeval = tmp_path / "g.tsv"
    germeval.write_text("1\t-DOCSTART-\tO\tO\n\n" + GERMEVAL_FIXTURE, encoding="utf-8")
    sents = corpus.read_corpus(germeval, "germeval")
    # GermEval keeps a sentence with a -DOCSTART- token.
    assert sents == corpus.parse_germeval(germeval) and sents[0].texts() == ["-DOCSTART-"]
    assert [s.source_id for s in sents] == ["g.tsv:0", "g.tsv:1", "g.tsv:2"]
    with pytest.raises(corpus.CorpusError, match="unknown corpus format 'iob'"):
        corpus.read_corpus(conll, "iob")
