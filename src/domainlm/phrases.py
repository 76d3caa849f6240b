"""Quality-scored domain phrase pool: loading, matching and sampling.

The pool is an externally mined phrase -> quality-score table. Detection
is a greedy left-to-right longest-match scan, so matches never overlap.
Sampling picks detected phrases without replacement, with probability
proportional to the softmax of their quality scores, until the covered
tokens meet the masking budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, UNK_ID, Vocab, split_words

MIN_SCORE = 0.5


class PhraseFileError(ValueError):
    """Malformed phrase pool file."""


@dataclass
class PhraseMatch:
    """One detected phrase occurrence: [start, end) token span plus its score."""

    start: int
    end: int
    score: float
    phrase_id: int


@dataclass
class PhrasePool:
    """Map from phrase token-id tuples (length >= 2) to quality scores.

    Phrase ids are assigned in sorted token-tuple order so the phrase
    vocabulary is deterministic for a given pool file and vocab.
    """

    entries: dict[tuple[int, ...], float]
    phrase_ids: dict[tuple[int, ...], int] = field(default_factory=dict)
    surface: list[str] = field(default_factory=list)
    max_phrase_len: int = 0
    dropped_oov: int = 0
    dropped_short: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def phrase_vocab_size(self) -> int:
        return len(self.entries)

    def by_id(self) -> list[tuple[int, ...]]:
        """The phrases' token-id tuples in phrase-id order."""
        return sorted(self.phrase_ids, key=self.phrase_ids.__getitem__)


def load_pool(path, vocab: Vocab) -> PhrasePool:
    """Read a "phrase<TAB>score" file, keeping entries with score >= MIN_SCORE.

    Phrases that tokenize to fewer than two ids or that contain UNK are
    dropped and counted. Duplicate phrases keep their maximum score. A
    score that is not finite or exceeds 1 raises, since sampling weights
    are exp(score).
    """
    raw: dict[tuple[int, ...], float] = {}
    texts: dict[tuple[int, ...], str] = {}
    dropped_oov = 0
    dropped_short = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise PhraseFileError(f"{path}:{lineno}: expected 'phrase<TAB>score'")
            text, score_str = parts
            try:
                score = float(score_str)
            except ValueError as exc:
                raise PhraseFileError(
                    f"{path}:{lineno}: non-numeric score {score_str!r}"
                ) from exc
            if not (math.isfinite(score) and score <= 1.0):
                raise PhraseFileError(f"{path}:{lineno}: score {score_str!r} is not "
                                      "a finite number <= 1")
            if score < MIN_SCORE:
                continue
            ids = tuple(vocab.encode(split_words(text)))
            if UNK_ID in ids:
                dropped_oov += 1
                continue
            if len(ids) < 2:
                dropped_short += 1
                continue
            if ids not in raw or score > raw[ids]:
                raw[ids] = score
                texts[ids] = text.lower()
    ordered = sorted(raw)
    pool = PhrasePool(
        entries=raw,
        phrase_ids={ids: i for i, ids in enumerate(ordered)},
        surface=[texts[ids] for ids in ordered],
        max_phrase_len=max((len(ids) for ids in raw), default=0),
        dropped_oov=dropped_oov,
        dropped_short=dropped_short,
    )
    return pool


def detect(doc: Document, pool: PhrasePool) -> list[PhraseMatch]:
    """Greedy left-to-right longest-match scan; matches are non-overlapping."""
    tokens = doc.tokens
    matches: list[PhraseMatch] = []
    if not pool.entries:
        return matches
    i = 0
    n = len(tokens)
    while i < n:
        hit = None
        longest = min(pool.max_phrase_len, n - i)
        for length in range(longest, 1, -1):
            cand = tuple(tokens[i:i + length])
            if cand in pool.entries:
                hit = PhraseMatch(
                    start=i,
                    end=i + length,
                    score=pool.entries[cand],
                    phrase_id=pool.phrase_ids[cand],
                )
                break
        if hit is None:
            i += 1
        else:
            matches.append(hit)
            i = hit.end
    return matches


def sample_phrase_tokens(
    doc: Document,
    matches: list[PhraseMatch],
    budget_ratio: float,
    rng: np.random.Generator,
) -> tuple[set[int], list[PhraseMatch]]:
    """Sample detected phrases until their tokens meet the masking budget.

    Draws are without replacement, weighted by the softmax of the quality
    scores, and stop once the covered token count reaches
    ceil(budget_ratio * len(doc)) or the matches run out. Returns the
    covered token indices and the sampled matches in draw order.
    """
    if not 0.0 < budget_ratio < 1.0:
        raise ValueError(f"budget_ratio must lie in (0, 1), got {budget_ratio}")
    covered: set[int] = set()
    sampled: list[PhraseMatch] = []
    if not matches:
        return covered, sampled
    budget = math.ceil(budget_ratio * len(doc))
    remaining = list(matches)
    weights = np.exp(np.array([m.score for m in remaining], dtype=np.float64))
    while remaining and len(covered) < budget:
        p = weights / weights.sum()
        pick = int(rng.choice(len(remaining), p=p))
        match = remaining.pop(pick)
        weights = np.delete(weights, pick)
        sampled.append(match)
        covered.update(range(match.start, match.end))
    return covered, sampled
