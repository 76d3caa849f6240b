import math

import numpy as np
import pytest

from domainlm import corpus as C
from domainlm import phrases as P


@pytest.fixture
def vocab(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text(
        "great battery life today saver screen quality is high and low thing\n"
    )
    return C.build_vocab(p)


def make_pool(vocab, entries):
    pool = {}
    for text, score in entries:
        ids = tuple(vocab.encode(text.split()))
        pool[ids] = score
    ordered = sorted(pool)
    return P.PhrasePool(
        entries=pool,
        phrase_ids={ids: i for i, ids in enumerate(ordered)},
        surface=[" ".join(map(str, ids)) for ids in ordered],
        max_phrase_len=max((len(k) for k in pool), default=0),
    )


class TestLoadPool:
    def test_score_filter(self, vocab, tmp_path):
        f = tmp_path / "pool.tsv"
        f.write_text("battery life\t0.9\nthing\t0.3\n")
        pool = P.load_pool(f, vocab)
        assert len(pool) == 1

    def test_oov_phrase_dropped(self, vocab, tmp_path):
        f = tmp_path / "pool.tsv"
        f.write_text("battery life\t0.9\nunseen gizmo\t0.8\n")
        pool = P.load_pool(f, vocab)
        assert len(pool) == 1
        assert pool.dropped_oov == 1

    def test_duplicate_keeps_max_score(self, vocab, tmp_path):
        f = tmp_path / "pool.tsv"
        f.write_text("battery life\t0.6\nbattery life\t0.9\nbattery life\t0.7\n")
        pool = P.load_pool(f, vocab)
        ids = tuple(vocab.encode(["battery", "life"]))
        assert pool.entries[ids] == 0.9

    def test_single_word_phrase_dropped(self, vocab, tmp_path):
        f = tmp_path / "pool.tsv"
        f.write_text("battery\t0.9\n")
        pool = P.load_pool(f, vocab)
        assert len(pool) == 0 and pool.dropped_short == 1

    def test_non_numeric_score_reports_line(self, vocab, tmp_path):
        f = tmp_path / "pool.tsv"
        f.write_text("battery life\t0.9\nscreen quality\thigh\n")
        with pytest.raises(P.PhraseFileError, match=":2"):
            P.load_pool(f, vocab)

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan", "1.01", "800"])
    def test_score_not_finite_or_above_one_reports_line(self, vocab, tmp_path, score):
        f = tmp_path / "pool.tsv"
        f.write_text(f"battery life\t1.0\nscreen quality\t{score}\n")
        with pytest.raises(P.PhraseFileError, match=":2"):
            P.load_pool(f, vocab)

    def test_all_scores_at_least_half(self, vocab, tmp_path):
        f = tmp_path / "pool.tsv"
        f.write_text("battery life\t0.50\nscreen quality\t0.499\n")
        pool = P.load_pool(f, vocab)
        assert all(s >= 0.5 for s in pool.entries.values())
        assert len(pool) == 1

    def test_phrase_ids_deterministic(self, vocab, tmp_path):
        f = tmp_path / "pool.tsv"
        f.write_text("screen quality\t0.8\nbattery life\t0.9\n")
        p1 = P.load_pool(f, vocab)
        p2 = P.load_pool(f, vocab)
        assert p1.phrase_ids == p2.phrase_ids
        assert p1.surface == p2.surface


class TestDetect:
    def test_single_match(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.9)])
        doc = C.tokenize("great battery life today", vocab)
        matches = P.detect(doc, pool)
        assert [(m.start, m.end) for m in matches] == [(1, 3)]

    def test_longest_match_wins(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.9), ("battery life saver", 0.8)])
        doc = C.tokenize("great battery life saver today", vocab)
        matches = P.detect(doc, pool)
        assert [(m.start, m.end) for m in matches] == [(1, 4)]

    def test_no_phrases_present(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.9)])
        doc = C.tokenize("screen quality is high", vocab)
        assert P.detect(doc, pool) == []

    def test_matches_never_overlap(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.9), ("life saver", 0.8)])
        doc = C.tokenize("battery life saver battery life", vocab)
        matches = P.detect(doc, pool)
        spans = [(m.start, m.end) for m in matches]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_scores_attached(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.77)])
        doc = C.tokenize("battery life", vocab)
        assert P.detect(doc, pool)[0].score == 0.77


class TestSampling:
    def test_budget_met_by_single_phrase(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.9)])
        doc = C.tokenize("great battery life today saver screen quality is high and", vocab)
        assert len(doc) == 10
        matches = P.detect(doc, pool)
        covered, sampled = P.sample_phrase_tokens(matches, math.ceil(0.15 * len(doc)),
                                                  np.random.default_rng(0))
        assert covered == {1, 2}
        assert len(sampled) == 1

    def test_empty_matches_yield_empty_sets(self, vocab):
        doc = C.tokenize("screen quality", vocab)
        covered, sampled = P.sample_phrase_tokens([], math.ceil(0.15 * len(doc)),
                                                  np.random.default_rng(0))
        assert covered == set() and sampled == []

    def test_equal_scores_first_draw_monte_carlo(self, vocab):
        # Two equal-score matches: each drawn first about half the time.
        pool = make_pool(vocab, [("battery life", 0.8), ("screen quality", 0.8)])
        doc = C.tokenize("battery life and screen quality today is high low great", vocab)
        matches = P.detect(doc, pool)
        assert len(matches) == 2
        rng = np.random.default_rng(1234)
        trials = 10_000
        hits = 0
        for _ in range(trials):
            _, sampled = P.sample_phrase_tokens(matches, math.ceil(0.15 * len(doc)), rng)
            hits += sampled[0].start == matches[0].start
        assert abs(hits / trials - 0.5) <= 0.02

    def test_softmax_weights_first_draw(self, vocab):
        # Scores (0, ln 3): softmax gives selection probabilities (0.25, 0.75).
        pool = make_pool(vocab, [("battery life", 0.0), ("screen quality", math.log(3.0))])
        doc = C.tokenize("battery life and screen quality today is high low great", vocab)
        matches = P.detect(doc, pool)
        rng = np.random.default_rng(99)
        trials = 10_000
        hits = 0
        for _ in range(trials):
            _, sampled = P.sample_phrase_tokens(matches, math.ceil(0.15 * len(doc)), rng)
            hits += sampled[0].score == 0.0
        assert abs(hits / trials - 0.25) <= 0.02

    def test_groups_disjoint_and_from_matches(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.9), ("screen quality", 0.8), ("high and low", 0.7)])
        doc = C.tokenize("battery life screen quality high and low today is great", vocab)
        matches = P.detect(doc, pool)
        spans = {(m.start, m.end) for m in matches}
        rng = np.random.default_rng(5)
        for _ in range(50):
            covered, sampled = P.sample_phrase_tokens(matches, math.ceil(0.5 * len(doc)), rng)
            seen: set[int] = set()
            for m in sampled:
                group = set(range(m.start, m.end))
                assert not (group & seen)
                assert (m.start, m.end) in spans
                seen |= group
            assert seen == covered

    def test_overshoot_bounded(self, vocab):
        pool = make_pool(vocab, [("battery life", 0.9), ("screen quality", 0.8), ("high and low", 0.7)])
        doc = C.tokenize("battery life screen quality high and low today is great", vocab)
        matches = P.detect(doc, pool)
        rng = np.random.default_rng(6)
        budget = math.ceil(0.15 * len(doc))
        for _ in range(100):
            covered, _ = P.sample_phrase_tokens(matches, budget, rng)
            assert len(covered) <= budget + pool.max_phrase_len - 1
