import math
import re

import numpy as np
import pytest

from domainlm import encoder as E
from domainlm import hybrid as H
from domainlm import masking as M
from domainlm import phrases as P
from domainlm import tensor as T

from field_cases import as_params, refused

ARTANH_HALF = 0.5 * math.log(3.0)  # artanh(0.5) ~ 0.5493
# The bounds a loaded scheduler's own fields obey; its settings are TrainConfig's.
SCHEDULER_BOUNDS = {"iteration": ">= 0", "alpha": "[0, 1]"}


def zero_model(vocab_size=8, phrase_vocab_size=4, dim=6):
    """Zero heads on zero hidden states -> uniform predictive distributions."""
    cfg = E.EncoderConfig(vocab_size=vocab_size, phrase_vocab_size=phrase_vocab_size,
                          layers=1, dim=dim, heads=1, ffn_dim=8, max_seq_len=16)
    params = E.init_params(cfg, np.random.default_rng(0))
    params["token_head"] = T.Tensor(np.zeros((dim, vocab_size)), requires_grad=True)
    params["phrase_head"] = T.Tensor(np.zeros((dim, phrase_vocab_size)), requires_grad=True)
    return cfg, params


def read_at(batch, hidden):
    """The rows of a (B, L, d) forward that the losses read: those at ``batch.masked_at``."""
    return E.gather_positions(hidden, *batch.masked_at)


def word_batch(positions=(1, 3), length=6):
    gold = np.arange(4, 4 + length, dtype=np.int64)[None, :]
    inp = gold.copy()
    for p in positions:
        inp[0, p] = 2
    return M.MaskedBatch(
        input_ids=inp, gold_ids=gold, pad_mask=np.ones((1, length), dtype=bool),
        masked_positions=[list(positions)], phrases=[[]], mode="word",
    )


def phrase_batch(groups, labels, length=8, extra_positions=()):
    """One example masking each run of positions in ``groups`` as the phrase of its label."""
    gold = (4 + np.arange(length, dtype=np.int64) % 4)[None, :]  # ids stay < 8
    inp = gold.copy()
    positions = sorted({i for g in groups for i in g} | set(extra_positions))
    for p in positions:
        inp[0, p] = 2
    return M.MaskedBatch(
        input_ids=inp, gold_ids=gold, pad_mask=np.ones((1, length), dtype=bool),
        masked_positions=[positions], mode="phrase",
        phrases=[[P.PhraseMatch(start=g[0], end=g[-1] + 1, score=1.0, phrase_id=label)
                  for g, label in zip(groups, labels)]],
    )


class TestWordLoss:
    def test_uniform_prediction_ln_v(self):
        cfg, params = zero_model()
        batch = word_batch()
        hidden = T.Tensor(np.zeros((1, 6, cfg.dim)))
        loss = H.word_loss(batch, read_at(batch, hidden), params)
        assert np.isclose(loss.item(), math.log(8.0), atol=1e-12)

    def test_perfect_predictor_goes_to_zero(self):
        cfg, params = zero_model()
        batch = word_batch(positions=(2,))
        hidden = T.Tensor(np.ones((1, 6, cfg.dim)))
        w = np.zeros((cfg.dim, cfg.vocab_size))
        w[:, batch.gold_ids[0, 2]] = 50.0  # huge margin for the gold token
        params["token_head"] = T.Tensor(w, requires_grad=True)
        assert H.word_loss(batch, read_at(batch, hidden), params).item() < 1e-10

    def test_matches_direct_summation_oracle(self):
        cfg = E.EncoderConfig(vocab_size=12, phrase_vocab_size=3, layers=1, dim=8,
                              heads=2, ffn_dim=16, max_seq_len=16)
        params = E.init_params(cfg, np.random.default_rng(1))
        batch = word_batch(positions=(0, 2, 5))
        hidden = E.forward(batch.input_ids, batch.pad_mask, params, cfg)
        loss = H.word_loss(batch, read_at(batch, hidden), params).item()
        # independent oracle: explicit per-position log-softmax sums
        w = params["token_head"].data
        total = 0.0
        for pos in batch.masked_positions[0]:
            logits = hidden.data[0, pos] @ w
            logp = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
            total += -logp[batch.gold_ids[0, pos]]
        assert abs(loss - total / 3.0) <= 1e-10

    def test_masked_token_logits_reads_each_masked_row_in_order(self):
        cfg = E.EncoderConfig(vocab_size=12, phrase_vocab_size=3, layers=1, dim=8,
                              heads=2, ffn_dim=16, max_seq_len=16)
        params = E.init_params(cfg, np.random.default_rng(2))
        ids, pad_mask = M.pad([[5, 6, 7, 8, 9, 10], [4, 5, 6], [7, 8, 9, 10]])
        positions = [[1, 5], [], [3, 0, 2]]  # a row without masks, one out of order
        batch = M.MaskedBatch(input_ids=ids, gold_ids=ids, pad_mask=pad_mask,
                              masked_positions=positions, phrases=[[], [], []], mode="word")
        hidden = E.forward(ids, pad_mask, params, cfg)
        logits, gold = H.masked_token_logits(
            batch, E.forward(ids, pad_mask, params, cfg, *batch.masked_at), params)
        full = E.token_logits(hidden, params).data
        rows = [(row, pos) for row, ps in enumerate(positions) for pos in ps]
        np.testing.assert_allclose(logits.data, np.stack([full[r, p] for r, p in rows]),
                                   rtol=0, atol=1e-12)
        assert gold.tolist() == [int(ids[r, p]) for r, p in rows]

    def test_mode_and_empty_contract(self):
        cfg, params = zero_model()
        hidden = T.Tensor(np.zeros((1, 8, cfg.dim)))
        with pytest.raises(ValueError):
            H.word_loss(phrase_batch([(1, 2)], [0]), hidden, params)
        empty = word_batch(positions=())
        with pytest.raises(ValueError):
            H.word_loss(empty, read_at(empty, T.Tensor(np.zeros((1, 6, cfg.dim)))), params)


def completeness_term(batch, hidden, params):
    """The phrase-unit NLL computed directly from the phrase head."""
    drawn = [(r, m) for r, row in enumerate(batch.phrases) for m in row]
    at = [(r, p) for r, m in drawn for p in range(m.start, m.end)]  # the phrases' tokens
    groups = [[at.index((r, p)) for p in range(m.start, m.end)] for r, m in drawn]
    read = E.gather_positions(hidden, *zip(*at))
    return T.cross_entropy(E.phrase_logits(read, groups, params),
                           [m.phrase_id for _, m in drawn])


class TestPhraseLoss:
    def test_uniform_closed_form(self):
        # Uniform token logits (V=8) and phrase logits (Vp=4), one 2-token
        # phrase: total = ln 8 + ln 4.
        cfg, params = zero_model()
        batch = phrase_batch([(2, 3)], [1])
        hidden = T.Tensor(np.zeros((1, 8, cfg.dim)))
        loss = H.phrase_loss(batch, read_at(batch, hidden), params)
        assert np.isclose(H.masked_token_nll(batch, hidden, params).item(), math.log(8.0),
                          atol=1e-12)
        assert np.isclose(completeness_term(batch, hidden, params).item(), math.log(4.0),
                          atol=1e-12)
        assert np.isclose(loss.item(), math.log(8.0) + math.log(4.0), atol=1e-12)

    def test_zero_groups_reduces_to_token_term(self):
        cfg, params = zero_model()
        batch = phrase_batch([], [], extra_positions=(1, 4))
        hidden = T.Tensor(np.zeros((1, 8, cfg.dim)))
        loss = H.phrase_loss(batch, read_at(batch, hidden), params).item()
        assert loss == H.masked_token_nll(batch, hidden, params).item()
        assert np.isclose(loss, math.log(8.0), atol=1e-12)

    def test_raising_correct_phrase_logit_lowers_regularizer(self):
        cfg, params = zero_model()
        batch = phrase_batch([(2, 3)], [1])
        hidden = T.Tensor(np.ones((1, 8, cfg.dim)))
        base = H.phrase_loss(batch, read_at(batch, hidden), params).item()
        assert np.isclose(base - H.masked_token_nll(batch, hidden, params).item(),
                          completeness_term(batch, hidden, params).item(), atol=1e-12)
        c = np.zeros((cfg.dim, 4))
        c[:, 1] = 1.0  # push the gold phrase's logit up
        params["phrase_head"] = T.Tensor(c, requires_grad=True)
        better = H.phrase_loss(batch, read_at(batch, hidden), params).item()
        assert better < base

    def test_stacked_forward_pools_over_the_batch_rows_only(self, monkeypatch):
        # rows past the batch's own (a stacked forward) are never read: the
        # loss reads the masked rows, and the phrase head pools exactly the
        # masked phrases' tokens among them
        cfg, params = zero_model()
        rng = np.random.default_rng(3)
        for head, width in (("token_head", 8), ("phrase_head", 4)):
            params[head] = T.Tensor(rng.standard_normal((cfg.dim, width)), requires_grad=True)
        batch = phrase_batch([(2, 3), (5, 6, 7)], [1, 3], extra_positions=(4,))
        own = rng.standard_normal((1, 8, cfg.dim))
        stacked = T.Tensor(np.concatenate([own, rng.standard_normal((1, 8, cfg.dim))]),
                           requires_grad=True)
        alone = T.Tensor(own.copy(), requires_grad=True)
        gathered = []
        gather = E.gather_positions
        monkeypatch.setattr(E, "gather_positions", lambda hidden, rows, positions:
                            gathered.append((np.broadcast_to(rows, np.shape(positions)).tolist(),
                                             list(positions)))
                            or gather(hidden, rows, positions))
        got = H.phrase_loss(batch, read_at(batch, stacked), params)
        want = H.phrase_loss(batch, read_at(batch, alone), params)
        T.backward(got)
        T.backward(want)
        # the masked rows, then the phrases' tokens as indices into them
        assert gathered == [([0] * 6, [2, 3, 4, 5, 6, 7]), ([0] * 5, [0, 1, 3, 4, 5])] * 2
        assert got.item() == want.item()
        assert stacked.grad[:1].tobytes() == alone.grad.tobytes()
        assert not stacked.grad[1:].any()


class TestFittingProgress:
    def test_direct_arithmetic(self):
        assert np.isclose(H.fitting_progress(10.0, 6.0, 5.0), 0.2)

    def test_rising_loss_clamps_to_zero(self):
        assert H.fitting_progress(10.0, 5.0, 6.0) == 0.0

    def test_degenerate_denominator(self):
        assert H.fitting_progress(5.0, 5.0, 5.0) == 0.0
        assert H.fitting_progress(math.nan, 5.0, 4.0) == 0.0


class TestUpdateAlpha:
    def make_state(self, it=2000, w=(10.0, 6.0, 5.0), p=(10.0, 6.0, 5.0)):
        s = H.SchedulerState(warm_iters=1000)
        s.iteration = it
        s.word_first, s.word_prev, s.word_curr = w
        s.phrase_first, s.phrase_prev, s.phrase_curr = p
        return s

    def test_equal_progress_gives_tanh_one(self):
        s = self.make_state()
        assert np.isclose(H.update_alpha(s), math.tanh(1.0), atol=1e-12)
        assert np.isclose(s.alpha, 0.7615941559557649, atol=1e-12)

    def test_word_stalled_gives_zero(self):
        s = self.make_state(w=(10.0, 5.0, 5.0))
        assert H.update_alpha(s) == 0.0

    def test_warm_iterations_pin_alpha(self):
        s = self.make_state(it=500, w=(10.0, 1.0, 0.5), p=(10.0, 9.0, 8.9))
        assert H.update_alpha(s) == 0.6

    def test_phrase_stalled_word_progressing_gives_one(self):
        s = self.make_state(p=(10.0, 5.0, 5.0))
        assert H.update_alpha(s) == 1.0

    def test_double_stall_retains_previous(self):
        s = self.make_state(w=(10.0, 5.0, 5.0), p=(10.0, 5.0, 5.0))
        s.alpha = 0.37
        assert H.update_alpha(s) == 0.37

    def test_joint_rescaling_invariance(self):
        # alpha depends only on the eta ratio.
        s1 = self.make_state(w=(10.0, 6.0, 5.0), p=(10.0, 8.0, 6.0))
        a1 = H.update_alpha(s1)
        s2 = self.make_state(w=(20.0, 12.0, 10.0), p=(20.0, 16.0, 12.0))
        a2 = H.update_alpha(s2)
        assert np.isclose(a1, a2, atol=1e-12)


class TestSelectMode:
    def test_threshold_and_boundary(self):
        assert H.select_mode(0.7615941559557649) == "word"
        assert H.select_mode(0.5) == "phrase"  # I(x)=0 at x<=0.5
        assert H.select_mode(0.0) == "phrase"

    def test_exactly_one_mode_selected(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            word = alpha > 0.5
            phrase = (1.0 - alpha) > 0.5 or alpha == 0.5
            mode = H.select_mode(alpha)
            assert (mode == "word") == word or alpha == 0.5
            assert (mode == "word") != (mode == "phrase")

    def test_mode_law_over_eta_grid(self):
        # word selected iff eta_w / eta_p > artanh(0.5)
        for ratio in np.linspace(0.05, 3.0, 60):
            s = H.SchedulerState(warm_iters=0)
            s.iteration = 1
            s.word_first, s.word_prev, s.word_curr = 10.0, 5.0 + ratio, 5.0
            s.phrase_first, s.phrase_prev, s.phrase_curr = 10.0, 6.0, 5.0
            # eta_w = ratio / 5, eta_p = 1 / 5
            H.update_alpha(s)
            expected = "word" if ratio > ARTANH_HALF else "phrase"
            assert H.scheduled_mode(s) == expected


class TestHistory:
    def test_only_running_mode_updates(self):
        s = H.SchedulerState()
        s.record("word", 3.0)
        assert math.isnan(s.phrase_first)
        before = (s.phrase_first, s.phrase_prev, s.phrase_curr)
        s.record("word", 2.5)
        assert (s.phrase_first, s.phrase_prev, s.phrase_curr) == before

    def test_ema_smoothing(self):
        s = H.SchedulerState(ema_decay=0.9)
        s.record("word", 10.0)
        s.record("word", 0.0)
        assert np.isclose(s.word_curr, 9.0)  # 0.9 * 10 + 0.1 * 0
        assert s.word_prev == 10.0 and s.word_first == 10.0

    def test_raw_mode_without_smoothing(self):
        s = H.SchedulerState(ema_decay=0.0)
        s.record("phrase", 10.0)
        s.record("phrase", 4.0)
        assert s.phrase_curr == 4.0
        for loss in (0.1, 1 / 3, 2.718281828459045):  # the raw loss, not a rounding of it
            s.record("phrase", loss)
            assert s.phrase_curr == loss

    def test_round_trip_serialization(self):
        s = H.SchedulerState()
        s.iteration = 17
        s.record("word", 3.25)
        s2 = H.SchedulerState.from_dict(s.to_dict())
        assert s2.word_curr == s.word_curr
        assert math.isnan(s2.phrase_first)
        assert s2.iteration == 17

    @pytest.mark.parametrize("key, value, message", as_params(
        refused(H.SchedulerState, SCHEDULER_BOUNDS)))
    def test_from_dict_refuses_each_value_its_rules_do_not_take(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            H.SchedulerState.from_dict({**H.SchedulerState().to_dict(), key: value})

    def test_from_dict_takes_nan_for_an_unset_history(self):
        s = H.SchedulerState.from_dict({**H.SchedulerState().to_dict(), "word_curr": math.nan})
        assert math.isnan(s.word_curr)


class TestScheduledMode:
    def test_warm_bootstrap_every_fifth(self):
        s = H.SchedulerState(warm_iters=20, bootstrap_every=5)
        modes = []
        for it in range(1, 21):
            s.iteration = it
            H.update_alpha(s)
            modes.append(H.scheduled_mode(s))
        assert [m == "phrase" for m in modes] == [(i % 5 == 0) for i in range(1, 21)]


class TestLockIn:
    """Past warm-up a mode's history moves only on its own steps, so an idle mode
    whose progress froze at 0 never gets picked again: the switch is absorbing.
    These tests document that law as it stands; they do not endorse it."""

    @staticmethod
    def run_past_warm_up(word_history, phrase_history, steps=1000):
        s = H.SchedulerState(warm_iters=1000)
        s.iteration = s.warm_iters  # the next step is the first adaptive one
        s.word_first, s.word_prev, s.word_curr = word_history
        s.phrase_first, s.phrase_prev, s.phrase_curr = phrase_history
        rng = np.random.default_rng(0)
        modes, alphas = [], []
        for _ in range(steps):  # the order of one training step
            s.iteration += 1
            alphas.append(H.update_alpha(s))
            modes.append(H.scheduled_mode(s))
            s.record(modes[-1], float(rng.uniform(1.0, 5.0)))  # the running mode's loss
        return s, modes, alphas

    def test_a_frozen_phrase_history_locks_word_mode(self):
        frozen = (10.0, 6.0, 7.0)  # its last loss rose: progress 0
        assert H.fitting_progress(*frozen) == 0.0
        s, modes, alphas = self.run_past_warm_up((10.0, 6.0, 5.0), frozen)
        assert set(modes) == {"word"}
        assert min(alphas) > 0.5
        assert (s.phrase_first, s.phrase_prev, s.phrase_curr) == frozen

    def test_a_frozen_word_history_locks_phrase_mode(self):
        frozen = (10.0, 6.0, 7.0)
        assert H.fitting_progress(*frozen) == 0.0
        s, modes, alphas = self.run_past_warm_up(frozen, (10.0, 6.0, 5.0))
        assert set(modes) == {"phrase"}
        assert set(alphas) == {0.0}
        assert (s.word_first, s.word_prev, s.word_curr) == frozen
