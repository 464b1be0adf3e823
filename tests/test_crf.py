import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import autodiff as ad
from gner import crf


def _zero_params(L):
    return crf.init_crf_params(L)


def _random_params(L, rng):
    p = crf.init_crf_params(L)
    p.transitions.value[:] = rng.uniform(-2, 2, (L, L))
    p.start_scores.value[:] = rng.uniform(-2, 2, L)
    p.end_scores.value[:] = rng.uniform(-2, 2, L)
    return p


def _nll(p, e, gold):
    """The batched loss over a batch of the one (T, L) sentence ``e``."""
    T, L = e.value.shape
    return crf.crf_negative_log_likelihood(p, ad.reshape(e, (1, T, L)), [gold], [T])


def _viterbi(p, e):
    """The batched decoder over a batch of the one (T, L) sentence ``e``."""
    paths, scores = crf.viterbi_decode(p, np.asarray(e)[None], [len(e)])
    return paths[0], float(scores[0])


def test_two_step_two_label_uniform_loss_is_ln4():
    p = _zero_params(2)
    e = ad.constant(np.zeros((2, 2)))
    for gold in ([0, 0], [0, 1], [1, 0], [1, 1]):
        loss = _nll(p, e, gold)
        assert float(loss.value) == pytest.approx(math.log(4.0), abs=1e-12)


def test_single_label_any_length_has_zero_loss():
    p = _zero_params(1)
    for T in (1, 3, 7):
        loss = _nll(p, ad.constant(np.zeros((T, 1))), [0] * T)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)


def test_nll_matches_brute_force_on_random_instance():
    rng = np.random.default_rng(0)
    p = _random_params(4, rng)
    e = ad.constant(rng.uniform(-2, 2, (5, 4)))
    gold = list(rng.integers(0, 4, 5))
    loss = float(_nll(p, e, gold).value)
    brute = crf.brute_force_log_z(p, e) - crf._path_score(p, e.value, gold)
    assert abs(loss - brute) <= 1e-9


def test_viterbi_follows_dominant_emissions():
    p = _zero_params(3)
    e = np.zeros((4, 3))
    want = [2, 0, 1, 2]
    for t, y in enumerate(want):
        e[t, y] = 10.0
    path, _ = _viterbi(p, e)
    assert path == want


def test_viterbi_all_zero_ties_break_to_label_zero():
    p = _zero_params(4)
    path, score = _viterbi(p, np.zeros((3, 4)))
    assert path == [0, 0, 0]
    assert score == 0.0


def test_viterbi_equals_brute_force_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(200):
        T = int(rng.integers(1, 7))
        L = int(rng.integers(2, 6))
        p = _random_params(L, rng)
        e = rng.uniform(-2, 2, (T, L))
        path, score = _viterbi(p, e)
        bpath, bscore = crf.brute_force_best_path(p, e)
        assert path == bpath
        assert score == pytest.approx(bscore, abs=1e-9)


def test_forward_matches_brute_force_log_z_both_ways():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(2, 5))
        p = _random_params(L, rng)
        e = ad.constant(rng.uniform(-2, 2, (T, L)))
        gold = [0] * T
        forward_log_z = float(_nll(p, e, gold).value) + crf._path_score(p, e.value, gold)
        assert abs(forward_log_z - crf.brute_force_log_z(p, e)) <= 1e-9


def test_brute_force_single_step_closed_form():
    rng = np.random.default_rng(3)
    p = _random_params(3, rng)
    e = rng.uniform(-1, 1, (1, 3))
    scores = p.start_scores.value + e[0] + p.end_scores.value
    expect = float(np.log(np.exp(scores - scores.max()).sum()) + scores.max())
    assert crf.brute_force_log_z(p, e) == pytest.approx(expect, abs=1e-12)


def test_brute_force_guard():
    p = _zero_params(10)
    with pytest.raises(crf.CrfError, match="enumerate"):
        crf.brute_force_log_z(p, np.zeros((7, 10)))


def test_path_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    p = _random_params(3, rng)
    e = ad.constant(rng.uniform(-2, 2, (3, 3)))
    total = 0.0
    import itertools

    for gold in itertools.product(range(3), repeat=3):
        loss = float(_nll(p, e, list(gold)).value)
        total += math.exp(-loss)
    assert total == pytest.approx(1.0, abs=1e-9)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_emission_shift_moves_log_z_and_keeps_path(c):
    rng = np.random.default_rng(5)
    p = _random_params(3, rng)
    e = rng.uniform(-2, 2, (4, 3))
    gold = [0, 1, 2, 1]
    base = _nll(p, ad.constant(e), gold)
    shifted = _nll(p, ad.constant(e + c), gold)
    # gold score also gains T*c, so the loss (logZ - score) is unchanged;
    # check logZ via loss + score instead.
    base_log_z = float(base.value) + crf._path_score(p, e, gold)
    shifted_log_z = float(shifted.value) + crf._path_score(p, e + c, gold)
    assert shifted_log_z == pytest.approx(base_log_z + 4 * c, abs=1e-8)
    assert _viterbi(p, e)[0] == _viterbi(p, e + c)[0]


def test_viterbi_score_never_exceeds_log_z():
    rng = np.random.default_rng(6)
    for _ in range(30):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(2, 5))
        p = _random_params(L, rng)
        e = rng.uniform(-2, 2, (T, L))
        _, vscore = _viterbi(p, e)
        assert vscore <= crf.brute_force_log_z(p, e) + 1e-12


def test_emission_gradient_is_marginals_minus_gold_onehot():
    rng = np.random.default_rng(7)
    p = _random_params(3, rng)
    e = ad.leaf(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    gold = [2, 0, 1, 1]

    def loss():
        return _nll(p, e, gold)

    err = ad.check_gradient(loss, [e], eps=1e-5, samples=12)
    assert err <= 1e-5


def test_all_crf_parameters_pass_gradient_check():
    rng = np.random.default_rng(8)
    p = _random_params(4, rng)
    e = ad.leaf(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    gold = [3, 1, 0, 2, 2]

    def loss():
        return _nll(p, e, gold)

    params = [e, p.transitions, p.start_scores, p.end_scores]
    assert ad.check_gradient(loss, params, eps=1e-5, samples=50) <= 1e-5


def test_non_finite_emissions_rejected():
    p = _zero_params(2)
    bad = np.zeros((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(crf.CrfError, match="finite"):
        _nll(p, ad.constant(bad), [0, 0])
    with pytest.raises(crf.CrfError, match="finite"):
        _viterbi(p, bad)


def test_gold_validation():
    p = _zero_params(2)
    e = ad.constant(np.zeros((2, 2)))
    with pytest.raises(crf.CrfError, match="out of range"):
        _nll(p, e, [0, 5])
    with pytest.raises(crf.CrfError, match="length"):
        _nll(p, e, [0])


def _ragged_batch(rng, integer):
    """A random ragged batch, B <= 6, T <= 6, L <= 5, with a length-1 row.
    Integer-valued scores make equal-scoring paths, and so Viterbi ties,
    common."""
    B, T, L = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(2, 6))
    if integer:
        def draw(shape):
            return rng.integers(-2, 3, shape).astype(np.float64)
    else:
        def draw(shape):
            return rng.uniform(-2, 2, shape)
    p = crf.init_crf_params(L)
    p.transitions.value[:] = draw((L, L))
    p.start_scores.value[:] = draw(L)
    p.end_scores.value[:] = draw(L)
    lengths = rng.integers(1, T + 1, B)
    lengths[rng.integers(B)] = 1
    return p, draw((B, T, L)), rng.integers(0, L, (B, T)), lengths


def _all_path_scores(p, e):
    """Scores of all L^T paths of one (T, L) sentence, vectorised."""
    T, L = e.shape
    paths = np.indices((L,) * T).reshape(T, -1).T
    trans = p.transitions.value[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    boundary = p.start_scores.value[paths[:, 0]] + p.end_scores.value[paths[:, -1]]
    return boundary + e[np.arange(T), paths].sum(axis=1) + trans


def test_batched_nll_is_mean_of_brute_force_rows():
    rng = np.random.default_rng(9)
    for trial in range(40):
        p, e, gold, lengths = _ragged_batch(rng, integer=trial % 2 == 0)
        loss = float(crf.crf_negative_log_likelihood(p, ad.constant(e), gold, lengths).value)
        rows = [crf.brute_force_log_z(p, e[b, :n]) - crf._path_score(p, e[b, :n], gold[b, :n])
                for b, n in enumerate(lengths)]
        assert abs(loss - np.mean(rows)) <= 1e-9


def test_batched_viterbi_rows_equal_brute_force_ties_included():
    rng = np.random.default_rng(10)
    tied = 0
    for trial in range(60):
        p, e, _, lengths = _ragged_batch(rng, integer=trial % 3 != 0)
        paths, scores = crf.viterbi_decode(p, e, lengths)
        assert len(paths) == len(lengths)
        for b, n in enumerate(lengths):
            bpath, bscore = crf.brute_force_best_path(p, e[b, :n])
            assert paths[b] == bpath
            assert scores[b] == pytest.approx(bscore, abs=1e-9)
            all_scores = _all_path_scores(p, e[b, :n])
            tied += int((all_scores == all_scores.max()).sum() > 1)
    assert tied >= 20, f"only {tied} rows had tied best paths"


def test_batched_gradient_check_on_ragged_batch():
    rng = np.random.default_rng(11)
    p = _random_params(4, rng)
    e = ad.leaf(rng.uniform(-1, 1, (3, 5, 4)), requires_grad=True)
    gold = rng.integers(0, 4, (3, 5))
    lengths = [5, 1, 3]

    def loss():
        return crf.crf_negative_log_likelihood(p, e, gold, lengths)

    params = [e, p.transitions, p.start_scores, p.end_scores]
    assert ad.check_gradient(loss, params, eps=1e-5, samples=50, rng=np.random.default_rng(0)) <= 1e-5
    d_e = ad.backward(loss())[e]
    assert not d_e[1, 1:].any() and not d_e[2, 3:].any()


def test_batched_crf_ignores_what_lies_past_each_row():
    rng = np.random.default_rng(12)
    p = _random_params(4, rng)
    e = rng.uniform(-2, 2, (3, 5, 4))
    gold = rng.integers(0, 4, (3, 5))
    lengths = np.array([5, 1, 3])
    past = np.arange(5) >= lengths[:, None]
    e2, gold2 = e.copy(), gold.copy()
    e2[past] = rng.uniform(-9, 9, (past.sum(), 4))
    gold2[past] = -1
    results = []
    for em, gd in ((e, gold), (e2, gold2)):
        node = ad.leaf(em, requires_grad=True)
        loss = crf.crf_negative_log_likelihood(p, node, gd, lengths)
        grads = ad.backward(loss)
        results.append((float(loss.value), grads[node], grads[p.transitions], crf.viterbi_decode(p, em, lengths)[0]))
    (l1, g1, t1, v1), (l2, g2, t2, v2) = results
    assert l1 == l2 and v1 == v2
    np.testing.assert_array_equal(g1, g2)
    np.testing.assert_array_equal(t1, t2)
    # Each row decodes as it does alone.
    assert v1 == [_viterbi(p, e[b, :n])[0] for b, n in enumerate(lengths)]


def test_batch_shape_validation():
    p = _zero_params(2)
    e = np.zeros((2, 3, 2))
    with pytest.raises(crf.CrfError, match="3-D"):
        crf.viterbi_decode(p, np.zeros((3, 2)), [3])
    for lengths in ([3], [0, 3], [3, 4]):
        with pytest.raises(crf.CrfError, match="lengths"):
            crf.viterbi_decode(p, e, lengths)
        with pytest.raises(crf.CrfError, match="lengths"):
            crf.crf_negative_log_likelihood(p, ad.constant(e), np.zeros((2, 3)), lengths)
