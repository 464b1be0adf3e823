import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import crf
from helpers import crf_params
from oracles import brute_force_best_path, brute_force_log_z, check_gradient, path_score


def _zero_params(L):
    return crf_params(L)


def _random_params(L, rng):
    p = crf_params(L)
    p.transitions[:] = rng.uniform(-2, 2, (L, L))
    p.start_scores[:] = rng.uniform(-2, 2, L)
    p.end_scores[:] = rng.uniform(-2, 2, L)
    return p


def _nll_and_grads(p, e, gold):
    """The batched loss and its gradients over a batch of the one (T, L)
    sentence ``e``; the emission gradient is returned as (T, L)."""
    loss, (d_e, *rest) = crf.crf_negative_log_likelihood(p, e[None], [gold], [len(e)])
    return loss, [d_e[0], *rest]


def _nll(p, e, gold):
    """The batched loss over a batch of the one (T, L) sentence ``e``."""
    return _nll_and_grads(p, e, gold)[0]


def _viterbi(p, e):
    """The batched decoder over a batch of the one (T, L) sentence ``e``."""
    paths, scores = crf.viterbi_decode(p, np.asarray(e)[None], [len(e)])
    return paths[0], float(scores[0])


def test_two_step_two_label_uniform_loss_is_ln4():
    p = _zero_params(2)
    e = np.zeros((2, 2))
    for gold in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert _nll(p, e, gold) == pytest.approx(math.log(4.0), abs=1e-12)


def test_single_label_any_length_has_zero_loss():
    p = _zero_params(1)
    for T in (1, 3, 7):
        assert _nll(p, np.zeros((T, 1)), [0] * T) == pytest.approx(0.0, abs=1e-12)


def test_nll_matches_brute_force_on_random_instance():
    rng = np.random.default_rng(0)
    p = _random_params(4, rng)
    e = rng.uniform(-2, 2, (5, 4))
    gold = list(rng.integers(0, 4, 5))
    loss = _nll(p, e, gold)
    brute = brute_force_log_z(p, e) - path_score(p, e, gold)
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
        bpath, bscore = brute_force_best_path(p, e)
        assert path == bpath
        assert score == pytest.approx(bscore, abs=1e-9)


def test_forward_matches_brute_force_log_z_both_ways():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(2, 5))
        p = _random_params(L, rng)
        e = rng.uniform(-2, 2, (T, L))
        gold = [0] * T
        forward_log_z = _nll(p, e, gold) + path_score(p, e, gold)
        assert abs(forward_log_z - brute_force_log_z(p, e)) <= 1e-9


def test_brute_force_single_step_closed_form():
    rng = np.random.default_rng(3)
    p = _random_params(3, rng)
    e = rng.uniform(-1, 1, (1, 3))
    scores = p.start_scores + e[0] + p.end_scores
    expect = float(np.log(np.exp(scores - scores.max()).sum()) + scores.max())
    assert brute_force_log_z(p, e) == pytest.approx(expect, abs=1e-12)


def test_brute_force_guard():
    p = _zero_params(10)
    with pytest.raises(ValueError, match="enumerate"):
        brute_force_log_z(p, np.zeros((7, 10)))


def test_path_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    p = _random_params(3, rng)
    e = rng.uniform(-2, 2, (3, 3))
    total = 0.0
    import itertools

    for gold in itertools.product(range(3), repeat=3):
        total += math.exp(-_nll(p, e, list(gold)))
    assert total == pytest.approx(1.0, abs=1e-9)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_emission_shift_moves_log_z_and_keeps_path(c):
    rng = np.random.default_rng(5)
    p = _random_params(3, rng)
    e = rng.uniform(-2, 2, (4, 3))
    gold = [0, 1, 2, 1]
    base = _nll(p, e, gold)
    shifted = _nll(p, e + c, gold)
    # gold score also gains T*c, so the loss (logZ - score) is unchanged;
    # check logZ via loss + score instead.
    base_log_z = base + path_score(p, e, gold)
    shifted_log_z = shifted + path_score(p, e + c, gold)
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
        assert vscore <= brute_force_log_z(p, e) + 1e-12


def test_emission_gradient_is_marginals_minus_gold_onehot():
    rng = np.random.default_rng(7)
    p = _random_params(3, rng)
    e = rng.uniform(-1, 1, (4, 3))
    gold = [2, 0, 1, 1]
    d_e = _nll_and_grads(p, e, gold)[1][0]
    np.testing.assert_allclose(d_e.sum(axis=1), 0.0, atol=1e-12)  # marginals sum to one, as does the one-hot
    err = check_gradient(lambda: _nll(p, e, gold), [e], [d_e], eps=1e-5, samples=12)
    assert err <= 1e-5


def test_all_crf_parameters_pass_gradient_check():
    rng = np.random.default_rng(8)
    p = _random_params(4, rng)
    e = rng.uniform(-1, 1, (5, 4))
    gold = [3, 1, 0, 2, 2]
    params = [e, p.transitions, p.start_scores, p.end_scores]
    grads = _nll_and_grads(p, e, gold)[1]
    assert check_gradient(lambda: _nll(p, e, gold), params, grads, eps=1e-5, samples=50) <= 1e-5


def test_non_finite_emissions_rejected():
    p = _zero_params(2)
    bad = np.zeros((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(crf.CrfError, match="finite"):
        _nll(p, bad, [0, 0])
    with pytest.raises(crf.CrfError, match="finite"):
        _viterbi(p, bad)


def test_gold_validation():
    p = _zero_params(2)
    e = np.zeros((2, 2))
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
    p = crf_params(L)
    p.transitions[:] = draw((L, L))
    p.start_scores[:] = draw(L)
    p.end_scores[:] = draw(L)
    lengths = rng.integers(1, T + 1, B)
    lengths[rng.integers(B)] = 1
    return p, draw((B, T, L)), rng.integers(0, L, (B, T)), lengths


def _all_path_scores(p, e):
    """Scores of all L^T paths of one (T, L) sentence, vectorised."""
    T, L = e.shape
    paths = np.indices((L,) * T).reshape(T, -1).T
    trans = p.transitions[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    boundary = p.start_scores[paths[:, 0]] + p.end_scores[paths[:, -1]]
    return boundary + e[np.arange(T), paths].sum(axis=1) + trans


def test_batched_nll_is_mean_of_brute_force_rows():
    rng = np.random.default_rng(9)
    for trial in range(40):
        p, e, gold, lengths = _ragged_batch(rng, integer=trial % 2 == 0)
        loss, _ = crf.crf_negative_log_likelihood(p, e, gold, lengths)
        rows = [brute_force_log_z(p, e[b, :n]) - path_score(p, e[b, :n], gold[b, :n])
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
            bpath, bscore = brute_force_best_path(p, e[b, :n])
            assert paths[b] == bpath
            assert scores[b] == pytest.approx(bscore, abs=1e-9)
            all_scores = _all_path_scores(p, e[b, :n])
            tied += int((all_scores == all_scores.max()).sum() > 1)
    assert tied >= 20, f"only {tied} rows had tied best paths"


def test_batched_gradient_check_on_ragged_batch():
    rng = np.random.default_rng(11)
    p = _random_params(4, rng)
    e = rng.uniform(-1, 1, (3, 5, 4))
    gold = rng.integers(0, 4, (3, 5))
    lengths = [5, 1, 3]

    def loss():
        return crf.crf_negative_log_likelihood(p, e, gold, lengths)

    params = [e, p.transitions, p.start_scores, p.end_scores]
    grads = loss()[1]
    assert check_gradient(lambda: loss()[0], params, grads, eps=1e-5, samples=50, rng=np.random.default_rng(0)) <= 1e-5
    d_e = grads[0]
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
        loss, (d_e, d_trans, _, _) = crf.crf_negative_log_likelihood(p, em, gd, lengths)
        results.append((loss, d_e, d_trans, crf.viterbi_decode(p, em, lengths)[0]))
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
            crf.crf_negative_log_likelihood(p, e, np.zeros((2, 3)), lengths)
