import math

import numpy as np
import pytest

from domainlm import corpus as C
from domainlm import masking as M
from domainlm import phrases as P
from synthetic import build_phrase_world, load_phrase_world


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


class TestPinnedDraws:
    """Every draw from the generator, pinned as recorded before masking's rewrite
    that made it draw fill positions from ``len(doc)`` instead of an index array."""

    def test_masks_and_final_state_are_the_recorded_ones(self, tmp_path):
        vocab, docs, pool, *_ = load_phrase_world(
            tmp_path, build_phrase_world(seed=0, n_sentences=160), max_seq_len=64)
        # two sentences a document, so some phrases fall short of the budget and fill runs
        docs = [C.Document(tokens=a.tokens + b.tokens) for a, b in zip(docs[::2], docs[1::2])]
        rng = np.random.default_rng(0)
        words = [M.mask_words(doc, len(vocab), rng) for doc in docs]
        phrases = [M.mask_phrases(doc, pool, len(vocab), rng) for doc in docs]
        assert rng.bit_generator.state == PINNED_FINAL_STATE
        for examples, pinned in ((words, PINNED_WORD_DRAWS), (phrases, PINNED_PHRASE_DRAWS)):
            for doc, ex, (positions, ids) in zip(docs, examples, pinned, strict=True):
                assert ex.masked_positions == positions
                assert all(type(pos) is int for pos in ex.masked_positions)
                expected = list(doc.tokens)
                for pos, tok in zip(positions, ids):
                    expected[pos] = tok
                assert ex.input_ids == expected


# Per document: the masked positions, then the input ids at them.
PINNED_WORD_DRAWS = [
    [[9, 11, 14], [2, 9, 108]], [[7, 9, 15], [22, 77, 2]], [[5, 8, 12], [2, 103, 2]],
    [[1, 5, 8], [2, 2, 2]], [[0, 4, 11], [29, 66, 2]], [[11, 15, 17], [2, 2, 2]],
    [[5, 6, 16], [13, 2, 2]], [[3, 4, 11], [2, 2, 39]], [[3, 10, 11], [58, 2, 111]],
    [[0, 1, 11], [2, 2, 2]], [[0, 1, 9], [2, 2, 2]], [[5, 14, 16], [60, 2, 2]],
    [[2, 6, 8], [2, 8, 2]], [[0, 6, 16], [49, 2, 2]], [[7, 9, 16], [2, 2, 2]],
    [[8, 9, 12], [2, 32, 41]], [[0, 1, 13], [36, 17, 2]], [[5, 7, 14], [2, 2, 115]],
    [[1, 13, 15], [2, 14, 2]], [[8, 13, 17], [2, 2, 2]], [[1, 2, 11], [2, 130, 2]],
    [[4, 6, 11], [2, 2, 2]], [[2, 11, 12], [2, 2, 2]], [[7, 10, 13], [2, 2, 80]],
    [[8, 9, 13], [2, 2, 54]], [[2, 14, 15], [2, 127, 2]], [[2, 14, 17], [2, 2, 2]],
    [[4, 9, 12], [2, 59, 2]], [[0, 6, 15], [29, 2, 2]], [[3, 7, 11], [2, 2, 7]],
    [[4, 9, 10], [40, 2, 19]], [[7, 9, 12], [139, 2, 2]], [[0, 3, 12], [2, 21, 2]],
    [[9, 11, 13], [2, 2, 27]], [[0, 6, 7], [2, 26, 2]], [[4, 12, 13], [2, 2, 2]],
    [[8, 11, 13], [2, 2, 2]], [[5, 9, 14], [2, 2, 102]], [[3, 7, 9], [4, 2, 2]],
    [[0, 1, 9], [2, 2, 2]], [[3, 5, 10], [2, 2, 2]], [[1, 3, 10], [2, 133, 11]],
    [[2, 6, 7], [92, 69, 2]], [[7, 9, 10], [12, 2, 2]], [[5, 9, 14], [2, 70, 2]],
    [[4, 10, 11], [2, 2, 2]], [[5, 9, 13], [2, 2, 2]], [[0, 2, 7], [2, 2, 119]],
    [[0, 12, 13], [15, 88, 2]], [[5, 7, 12], [2, 22, 2]], [[4, 9, 12], [2, 2, 2]],
    [[0, 7, 8], [2, 2, 31]], [[3, 5, 9], [90, 2, 2]], [[8, 9, 15], [2, 74, 2]],
    [[3, 14, 16], [2, 2, 2]], [[1, 5, 10], [2, 42, 2]], [[3, 6, 8], [2, 2, 2]],
    [[1, 12, 17], [2, 21, 2]], [[5, 9, 11], [26, 2, 2]], [[2, 8, 10], [2, 2, 2]],
    [[0, 10, 11], [2, 2, 2]], [[7, 10, 12], [2, 2, 2]], [[2, 5, 16], [27, 2, 2]],
    [[4, 10, 12], [2, 2, 2]], [[2, 5, 8], [24, 2, 2]], [[7, 8, 16], [2, 2, 2]],
    [[3, 4, 8], [2, 2, 2]], [[1, 4, 12], [119, 2, 2]], [[2, 9, 12], [2, 2, 60]],
    [[10, 15, 16], [2, 2, 2]], [[5, 11, 12], [2, 2, 2]], [[9, 15, 18], [71, 2, 38]],
    [[2, 7, 10], [2, 50, 41]], [[1, 9, 12], [2, 2, 2]], [[3, 11, 15], [2, 2, 2]],
    [[1, 9, 14], [2, 2, 2]], [[5, 10, 15], [2, 2, 2]], [[6, 9, 12], [2, 27, 2]],
    [[1, 4, 8], [2, 2, 2]], [[5, 9, 12], [2, 2, 2]],
]
PINNED_PHRASE_DRAWS = [
    [[4, 5, 13, 14, 15], [2, 2, 130, 2, 2]], [[4, 5, 14], [2, 2, 2]], [[4, 5, 15], [72, 2, 2]],
    [[11, 12, 13, 14], [2, 2, 2, 112]], [[4, 5, 13, 14, 15], [2, 2, 2, 2, 2]],
    [[4, 5, 6, 7], [2, 2, 2, 2]], [[11, 12, 13], [2, 2, 2]], [[4, 8, 13], [2, 54, 2]],
    [[11, 12, 13], [2, 64, 2]], [[11, 12, 13], [2, 2, 78]], [[6, 11, 12], [2, 2, 33]],
    [[4, 5, 13, 14], [2, 2, 2, 2]], [[4, 7, 11], [2, 2, 2]], [[11, 12, 13], [2, 2, 2]],
    [[4, 5, 6], [129, 2, 82]], [[2, 3, 10], [2, 2, 2]], [[11, 12, 13], [32, 2, 2]],
    [[4, 5, 6], [2, 2, 2]], [[11, 12, 15], [2, 2, 2]], [[4, 5, 13, 14], [2, 126, 2, 2]],
    [[4, 5, 12], [89, 2, 2]], [[4, 5, 6], [2, 2, 2]], [[1, 3, 10], [2, 2, 2]],
    [[3, 4, 5], [21, 2, 2]], [[4, 7, 8], [2, 2, 2]], [[11, 12, 13, 14], [2, 2, 2, 2]],
    [[4, 5, 6, 14, 15], [93, 2, 2, 2, 2]], [[2, 3, 4], [2, 2, 2]], [[3, 11, 12], [2, 2, 2]],
    [[8, 11, 13], [2, 2, 2]], [[1, 2, 5], [2, 2, 2]], [[0, 1, 8], [2, 2, 2]],
    [[11, 12, 13], [2, 2, 2]], [[4, 5, 6, 7], [2, 2, 95, 2]], [[2, 8, 9], [2, 2, 2]],
    [[6, 11, 12], [2, 2, 106]], [[3, 5, 9], [2, 2, 2]], [[8, 11, 12], [2, 2, 77]],
    [[2, 4, 5], [134, 2, 2]], [[0, 5, 7], [2, 2, 2]], [[4, 5, 8], [2, 2, 2]],
    [[4, 5, 6], [90, 2, 92]], [[4, 5, 7], [2, 2, 2]], [[5, 11, 12], [2, 2, 2]],
    [[4, 5, 10], [2, 2, 2]], [[5, 11, 12], [121, 2, 2]], [[2, 4, 10], [2, 2, 2]],
    [[4, 5, 13, 14], [2, 119, 2, 2]], [[3, 5, 11], [6, 2, 2]], [[2, 11, 12], [15, 67, 2]],
    [[4, 5, 15], [61, 62, 101]], [[4, 5, 13, 14], [2, 2, 2, 2]], [[9, 12, 13], [2, 2, 2]],
    [[1, 11, 12], [2, 2, 100]], [[4, 5, 13, 14, 15], [2, 2, 2, 2, 2]],
    [[4, 5, 9], [2, 104, 31]], [[1, 4, 5], [2, 2, 2]], [[13, 14, 15], [2, 2, 2]],
    [[4, 5, 6, 7], [2, 39, 2, 2]], [[2, 8, 12], [43, 2, 22]], [[11, 12, 13], [2, 2, 2]],
    [[2, 4, 9], [2, 2, 2]], [[4, 5, 13, 14], [2, 2, 61, 2]], [[2, 3, 7], [9, 2, 2]],
    [[0, 3, 6], [2, 2, 2]], [[4, 5, 6, 7], [2, 2, 2, 113]], [[4, 12, 13], [2, 2, 2]],
    [[0, 2, 7], [2, 2, 2]], [[4, 11, 12], [51, 2, 2]],
    [[4, 5, 13, 14, 15, 16], [26, 63, 2, 2, 2, 125]], [[2, 6, 7], [2, 55, 2]],
    [[13, 14, 15], [42, 2, 2]], [[2, 4, 10], [2, 2, 2]], [[3, 6, 7], [2, 2, 43]],
    [[8, 11, 12], [2, 106, 2]], [[4, 5, 13, 14], [2, 97, 2, 2]],
    [[4, 5, 6, 14, 15], [2, 2, 2, 2, 4]], [[7, 11, 13], [2, 100, 50]],
    [[11, 12, 13], [2, 2, 2]], [[9, 11, 12], [2, 2, 2]],
]
PINNED_FINAL_STATE = {
    "bit_generator": "PCG64",
    "state": {"state": 118246332976914622053704805518096474856,
              "inc": 87136372517582989555478159403783844777},
    "has_uint32": 0, "uinteger": 3693017010}
