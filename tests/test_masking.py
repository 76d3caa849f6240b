import math

import numpy as np
import pytest

from domainlm import corpus as C
from domainlm import masking as M
from domainlm import phrases as P


def make_doc(length, start=4):
    return C.Document(tokens=[start + (i % 50) for i in range(length)])


def make_pool(entries):
    pool = dict(entries)
    ordered = sorted(pool)
    return P.PhrasePool(
        entries=pool,
        phrase_ids={ids: i for i, ids in enumerate(ordered)},
        surface=["x"] * len(ordered),
        max_phrase_len=max((len(k) for k in pool), default=0),
    )


VOCAB_SIZE = 60


class TestWordMode:
    def test_exact_count_20_tokens(self):
        ex = M.mask_words(make_doc(20), VOCAB_SIZE, np.random.default_rng(0))
        assert len(ex.masked_positions) == 3  # ceil(0.15 * 20)

    @pytest.mark.parametrize("length", list(range(1, 201)))
    def test_exact_count_all_lengths(self, length):
        rng = np.random.default_rng(length)
        ex = M.mask_words(make_doc(length), VOCAB_SIZE, rng)
        assert len(ex.masked_positions) == max(1, math.ceil(0.15 * length))

    def test_single_token_doc(self):
        ex = M.mask_words(make_doc(1), VOCAB_SIZE, np.random.default_rng(0))
        assert ex.masked_positions == [0]

    def test_perturbation_proportions(self):
        # 80/10/10 within +-0.02 over 10^4 masked positions.
        rng = np.random.default_rng(42)
        n_mask = n_rand = n_keep = 0
        total = 0
        while total < 10_000:
            doc = make_doc(40)
            ex = M.mask_words(doc, VOCAB_SIZE, rng)
            for pos in ex.masked_positions:
                total += 1
                if ex.input_ids[pos] == C.MASK_ID:
                    n_mask += 1
                elif ex.input_ids[pos] == ex.gold_ids[pos]:
                    n_keep += 1
                else:
                    n_rand += 1
        assert abs(n_mask / total - 0.80) <= 0.02
        assert abs(n_rand / total - 0.10) <= 0.02
        assert abs(n_keep / total - 0.10) <= 0.02

    def test_random_tokens_never_special(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            ex = M.mask_words(make_doc(30), VOCAB_SIZE, rng)
            for pos in ex.masked_positions:
                tok = ex.input_ids[pos]
                if tok != C.MASK_ID and tok != ex.gold_ids[pos]:
                    assert tok >= C.NUM_SPECIALS

    def test_unmasked_positions_untouched(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ex = M.mask_words(make_doc(25), VOCAB_SIZE, rng)
            masked = set(ex.masked_positions)
            for i, (inp, gold) in enumerate(zip(ex.input_ids, ex.gold_ids)):
                if i not in masked:
                    assert inp == gold


class TestPhraseMode:
    def test_budget_met_by_one_phrase(self):
        doc = make_doc(10)
        phrase = tuple(doc.tokens[2:4])
        pool = make_pool({phrase: 0.9})
        ex = M.mask_phrases(doc, pool, VOCAB_SIZE, np.random.default_rng(0))
        assert set(ex.masked_positions) == {2, 3}
        assert [(m.start, m.end, m.phrase_id) for m in ex.phrases] == \
            [(2, 4, pool.phrase_ids[phrase])]

    def test_zero_matches_equals_word_mode(self):
        doc = make_doc(17)
        pool = make_pool({(58, 59): 0.9})  # ids absent from the doc
        ex_p = M.mask_phrases(doc, pool, VOCAB_SIZE, np.random.default_rng(7))
        ex_w = M.mask_words(doc, VOCAB_SIZE, np.random.default_rng(7))
        assert ex_p.input_ids == ex_w.input_ids
        assert ex_p.masked_positions == ex_w.masked_positions
        assert ex_p.phrases == []

    def test_shortfall_filled_by_word_sampling(self):
        doc = make_doc(40)  # target = 6
        phrase = tuple(doc.tokens[0:2])
        pool = make_pool({phrase: 0.9})
        ex = M.mask_phrases(doc, pool, VOCAB_SIZE, np.random.default_rng(1))
        assert len(ex.masked_positions) == 6
        grouped = {i for m in ex.phrases for i in range(m.start, m.end)}
        assert grouped <= set(ex.masked_positions)
        # fill positions carry no group
        assert len(set(ex.masked_positions) - grouped) == 6 - len(grouped)

    def test_groups_are_consecutive_runs(self):
        doc = make_doc(30)
        pool = make_pool({tuple(doc.tokens[5:8]): 0.8, tuple(doc.tokens[12:14]): 0.9})
        rng = np.random.default_rng(2)
        for _ in range(50):
            ex = M.mask_phrases(doc, pool, VOCAB_SIZE, rng)
            for m in ex.phrases:
                assert m.end - m.start >= 2
                assert pool.phrase_ids[tuple(doc.tokens[m.start:m.end])] == m.phrase_id

    def test_masked_count_bounds(self):
        doc = make_doc(30)  # target = 5
        pool = make_pool({tuple(doc.tokens[5:8]): 0.8, tuple(doc.tokens[12:14]): 0.9,
                          tuple(doc.tokens[20:23]): 0.7})
        target = 5
        rng = np.random.default_rng(8)
        for _ in range(100):
            ex = M.mask_phrases(doc, pool, VOCAB_SIZE, rng)
            assert target <= len(ex.masked_positions) <= target + pool.max_phrase_len - 1

    def test_perturbation_proportions_phrase_mode(self):
        doc = make_doc(20)
        pool = make_pool({tuple(doc.tokens[4:7]): 0.9})
        rng = np.random.default_rng(11)
        n_mask = n_rand = n_keep = 0
        total = 0
        while total < 10_000:
            ex = M.mask_phrases(doc, pool, VOCAB_SIZE, rng)
            for pos in ex.masked_positions:
                total += 1
                if ex.input_ids[pos] == C.MASK_ID:
                    n_mask += 1
                elif ex.input_ids[pos] == ex.gold_ids[pos]:
                    n_keep += 1
                else:
                    n_rand += 1
        assert abs(n_mask / total - 0.80) <= 0.02
        assert abs(n_rand / total - 0.10) <= 0.02
        assert abs(n_keep / total - 0.10) <= 0.02


class TestPad:
    def test_ragged_lengths_including_one(self):
        ids, mask = M.pad([[7, 8, 9], [5], [6, 4]])
        assert ids.dtype == np.int64 and mask.dtype == bool
        assert ids.tolist() == [[7, 8, 9], [5, C.PAD_ID, C.PAD_ID], [6, 4, C.PAD_ID]]
        assert mask.tolist() == [[True] * 3, [True, False, False], [True, True, False]]

    def test_single_length_one_sequence(self):
        ids, mask = M.pad([[11]])
        assert ids.dtype == np.int64 and ids.tolist() == [[11]]
        assert mask.dtype == bool and mask.tolist() == [[True]]


class TestCollate:
    def test_padding_and_mask(self):
        rng = np.random.default_rng(0)
        docs = [make_doc(5), make_doc(9)]
        batch = M.collate([M.mask_words(d, VOCAB_SIZE, rng) for d in docs])
        assert batch.input_ids.shape == (2, 9)
        assert batch.pad_mask[0].sum() == 5
        assert batch.pad_mask[1].sum() == 9
        assert (batch.input_ids[0, 5:] == C.PAD_ID).all()

    def test_pad_never_masked(self):
        rng = np.random.default_rng(1)
        docs = [make_doc(4), make_doc(12)]
        batch = M.collate([M.mask_words(d, VOCAB_SIZE, rng) for d in docs])
        for i, positions in enumerate(batch.masked_positions):
            for pos in positions:
                assert batch.pad_mask[i, pos]

    def test_mixed_modes_rejected(self):
        rng = np.random.default_rng(2)
        doc = make_doc(8)
        pool = make_pool({tuple(doc.tokens[0:2]): 0.9})
        exs = [M.mask_words(doc, VOCAB_SIZE, rng), M.mask_phrases(doc, pool, VOCAB_SIZE, rng)]
        with pytest.raises(ValueError):
            M.collate(exs)

    def test_mismatched_input_and_gold_lengths_rejected(self):
        ex = M.MaskedExample(input_ids=[5, 6], gold_ids=[5, 6, 7], masked_positions=[0])
        with pytest.raises(ValueError):
            M.collate([ex])

    def test_gold_recoverable(self):
        rng = np.random.default_rng(3)
        docs = [make_doc(6), make_doc(10)]
        batch = M.collate([M.mask_words(d, VOCAB_SIZE, rng) for d in docs])
        for i in range(len(docs)):
            masked = set(batch.masked_positions[i])
            for j in range(batch.input_ids.shape[1]):
                if j not in masked:
                    assert batch.input_ids[i, j] == batch.gold_ids[i, j]
