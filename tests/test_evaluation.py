import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import evaluation as ev
from gner.corpus import Sentence, Token
from gner.embeddings import EmbeddingStore
from helpers import chunks_to_bio


def test_extract_simple_chunk():
    assert ev.extract_chunks(["B-PER", "I-PER", "O"]) == [ev.Chunk("PER", 0, 2)]


def test_extract_adjacent_chunks():
    got = ev.extract_chunks(["B-LOC", "B-ORG", "I-ORG"])
    assert got == [ev.Chunk("LOC", 0, 1), ev.Chunk("ORG", 1, 3)]


def test_extract_stray_i_lenient_and_strict():
    assert ev.extract_chunks(["I-PER", "O"]) == [ev.Chunk("PER", 0, 1)]
    assert ev.extract_chunks(["I-PER", "O"], strict=True) == []
    # A stray continuation after a different class also opens a chunk.
    assert ev.extract_chunks(["B-LOC", "I-ORG"]) == [ev.Chunk("LOC", 0, 1), ev.Chunk("ORG", 1, 2)]


def test_extract_rejects_malformed():
    with pytest.raises(ev.EvaluationError, match="malformed"):
        ev.extract_chunks(["B-PER", "Q-PER"])


def test_prf1_two_thirds():
    gold = [[ev.Chunk("PER", 0, 1), ev.Chunk("LOC", 2, 3), ev.Chunk("ORG", 4, 5)]]
    pred = [[ev.Chunk("PER", 0, 1), ev.Chunk("LOC", 2, 3), ev.Chunk("ORG", 5, 6)]]
    r = ev.prf1(gold, pred)
    assert (r.overall.tp, r.overall.fp, r.overall.fn) == (2, 1, 1)
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == pytest.approx(2 / 3)
    assert r.f1 == pytest.approx(2 / 3)


def test_prf1_zero_division_convention():
    r = ev.prf1([[ev.Chunk("PER", 0, 1)]], [[]])
    assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0


def test_prf1_perfect():
    chunks = [[ev.Chunk("PER", 0, 2), ev.Chunk("LOC", 3, 4)]]
    r = ev.prf1(chunks, chunks)
    assert r.precision == 1.0 and r.recall == 1.0 and r.f1 == 1.0


def test_prf1_length_mismatch():
    with pytest.raises(ev.EvaluationError, match="mismatch"):
        ev.prf1([[], []], [[]])


def test_combined_pooling_arithmetic():
    # outer: TP=1, FN=1; inner: empty on both sides -> P=1, R=0.5, F1=2/3.
    gold_outer = [["B-PER", "O", "B-LOC"]]
    pred_outer = [["B-PER", "O", "O"]]
    empty = [["O", "O", "O"]]
    r = ev.germeval_combined(gold_outer, empty, pred_outer, empty)
    assert r.precision == pytest.approx(1.0)
    assert r.recall == pytest.approx(0.5)
    assert r.f1 == pytest.approx(2 / 3)


def test_combined_perfect():
    outer = [["B-ORG", "I-ORG"]]
    inner = [["O", "B-LOC"]]
    r = ev.germeval_combined(outer, inner, outer, inner)
    assert r.f1 == 1.0


def test_combined_misalignment():
    with pytest.raises(ev.EvaluationError, match="misalignment"):
        ev.germeval_combined([["O"]], [["O"], ["O"]], [["O"]], [["O"]])


def test_a_prediction_shorter_or_longer_than_its_gold_sentence_is_an_error():
    # A 3-token gold sentence against a 1-token prediction once scored FB1 66.67.
    gold = [["O", "O"], ["B-PER", "O", "B-LOC"]]
    for pred in ([["O", "O"], ["B-PER"]], [["O", "O"], ["B-PER", "O", "B-LOC", "O"]]):
        with pytest.raises(ev.EvaluationError, match=f"sentence 2 has 3 gold labels but {len(pred[1])} predicted"):
            ev.evaluate_bio(gold, pred)
    empty = [["O"] * len(row) for row in gold]
    with pytest.raises(ev.EvaluationError, match="sentence 2 has 3 gold outer labels but 1 predicted"):
        ev.germeval_combined(gold, empty, [["O", "O"], ["B-PER"]], empty)
    with pytest.raises(ev.EvaluationError, match="sentence 1 has 2 gold inner labels but 3 predicted"):
        ev.germeval_combined(gold, empty, gold, [["O"] * 3, ["O"] * 3])


@given(
    st.lists(
        st.lists(st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]), min_size=1, max_size=8),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_combined_equals_prf1_when_inner_empty(rows):
    empty = [["O"] * len(r) for r in rows]
    plain = ev.evaluate_bio(rows, rows)
    combined = ev.germeval_combined(rows, empty, rows, empty)
    assert combined.overall.tp == plain.overall.tp
    assert combined.f1 == plain.f1


@given(
    st.lists(
        st.lists(st.sampled_from(["O", "B-PER", "I-PER", "B-ORG"]), min_size=1, max_size=6),
        min_size=2,
        max_size=6,
    ),
    st.randoms(),
)
@settings(max_examples=40, deadline=None)
def test_prf1_permutation_invariance(rows, rnd):
    pred = [list(reversed(r)) for r in rows]
    base = ev.evaluate_bio(rows, pred)
    order = list(range(len(rows)))
    rnd.shuffle(order)
    shuffled = ev.evaluate_bio([rows[i] for i in order], [pred[i] for i in order])
    assert base.to_dict() == shuffled.to_dict()


@given(
    st.lists(
        st.lists(st.sampled_from(["O", "B-PER", "I-PER", "B-LOC"]), min_size=1, max_size=8),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_tp_plus_fn_equals_gold_chunk_count(rows):
    pred = [["O"] * len(r) for r in rows]
    r = ev.evaluate_bio(rows, pred)
    total_gold = sum(len(ev.extract_chunks(row)) for row in rows)
    assert r.overall.tp + r.overall.fn == total_gold


@given(
    st.lists(st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]), min_size=1, max_size=10)
)
@settings(max_examples=80, deadline=None)
def test_render_extract_render_fixpoint(labels):
    chunks = ev.extract_chunks(labels)
    rendered = chunks_to_bio(chunks, len(labels))
    assert ev.extract_chunks(rendered) == chunks
    assert chunks_to_bio(ev.extract_chunks(rendered), len(labels)) == rendered


def test_split_oov_iv():
    store = EmbeddingStore(kind="plain", dim=2, word_vectors={"a": np.zeros(2), "b": np.zeros(2)})
    s_ab = Sentence([Token("a"), Token("b")], ["O", "O"])
    s_ac = Sentence([Token("a"), Token("c")], ["O", "O"])
    iv, oov = ev.split_oov_iv([s_ab, s_ac], store)
    assert iv == [s_ab]
    assert oov == [s_ac]


def test_split_oov_iv_is_strict_membership():
    rng = np.random.default_rng(2)
    store = EmbeddingStore(kind="fasttext", dim=4, word_vectors={"gehen": rng.normal(size=4)},
                           ngram_buckets=rng.normal(size=(64, 4)), bucket_count=64)
    listed, inferable, folded = (Sentence([Token(w)], ["O"]) for w in ("gehen", "ging", "GEHEN"))
    iv, oov = ev.split_oov_iv([listed, inferable, folded], store)
    assert iv == [listed]
    assert oov == [inferable, folded]  # subword inference and case folding do not count


def test_report_table_rendering():
    gold = [["B-PER", "I-PER", "O", "B-LOC"]]
    pred = [["B-PER", "I-PER", "O", "O"]]
    table = ev.evaluate_bio(gold, pred).render_table()
    assert "PER" in table and "LOC" in table and "FB1" in table
