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

from .corpus import Document, UNK_ID, Vocab, numbered_lines, split_words

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

    def by_id(self) -> list[tuple[int, ...]]:
        """The phrases' token-id tuples in phrase-id order."""
        return sorted(self.phrase_ids, key=self.phrase_ids.__getitem__)


def phrase_fault(ids, vocab_size: int) -> str | None:
    """What keeps ``ids`` from being a pool phrase's token ids, or None: "list" if it
    is no list or tuple, "id" for an entry that is no int in [0, vocab_size), "oov"
    for UNK, "short" for fewer than two ids."""
    if type(ids) not in (list, tuple):
        return "list"
    if not all(type(i) is int and 0 <= i < vocab_size for i in ids):
        return "id"
    return "oov" if UNK_ID in ids else "short" if len(ids) < 2 else None


def load_pool(path, vocab: Vocab) -> PhrasePool:
    """Read a "phrase<TAB>score" file, keeping entries with score >= MIN_SCORE.

    Phrases that tokenize to fewer than two ids or that contain UNK are
    dropped and counted. Duplicate phrases keep their maximum score. A
    score that is not finite or exceeds 1 raises, since sampling weights
    are exp(score).
    """
    raw: dict[tuple[int, ...], float] = {}
    texts: dict[tuple[int, ...], str] = {}
    dropped = {"oov": 0, "short": 0}  # encoded ids are in range: no other fault occurs
    for lineno, line in numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise PhraseFileError(f"{path}:{lineno}: expected 'phrase<TAB>score'")
        text, score_str = parts
        try:
            score = float(score_str)
        except ValueError as exc:
            raise PhraseFileError(f"{path}:{lineno}: non-numeric score {score_str!r}") from exc
        if not (math.isfinite(score) and score <= 1.0):
            raise PhraseFileError(f"{path}:{lineno}: score {score_str!r} is not "
                                  "a finite number <= 1")
        if score < MIN_SCORE:
            continue
        ids = tuple(vocab.encode(split_words(text)))
        if fault := phrase_fault(ids, len(vocab)):
            dropped[fault] += 1
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
        dropped_oov=dropped["oov"],
        dropped_short=dropped["short"],
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
    matches: list[PhraseMatch],
    budget: int,
    rng: np.random.Generator,
) -> tuple[set[int], list[PhraseMatch]]:
    """Sample detected phrases until their tokens meet the masking budget.

    Draws are without replacement, weighted by the softmax of the quality
    scores, and stop once the covered token count reaches ``budget`` or the
    matches run out. Returns the covered token indices and the sampled
    matches in draw order.
    """
    covered: set[int] = set()
    sampled: list[PhraseMatch] = []
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
