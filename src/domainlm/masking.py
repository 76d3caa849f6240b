"""Word-mode and phrase-mode masked examples with 80/10/10 perturbation.

Both modes target max(1, ceil(0.15 * len)) positions. Word mode samples
positions uniformly; phrase mode covers sampled pool phrases first and
fills any shortfall with word-style sampling over the remaining
positions (fill positions belong to no phrase). Each selected token is
independently replaced by MASK 80% of the time, a random non-special
token 10%, or kept 10%.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, MASK_ID, NUM_SPECIALS, PAD_ID
from .phrases import PhraseMatch, PhrasePool, detect, sample_phrase_tokens

MASK_RATIO = 0.15


@dataclass
class MaskedExample:
    """A single perturbed sequence with its recovery metadata: ``phrases`` are
    the masked pool phrases, in the order the sampler drew them."""

    input_ids: list[int]
    gold_ids: list[int]
    masked_positions: list[int]
    phrases: list[PhraseMatch] = field(default_factory=list)
    mode: str = "word"


@dataclass
class MaskedBatch:
    """Examples padded to a common length; PAD positions are never masked."""

    input_ids: np.ndarray          # B x L, int64
    gold_ids: np.ndarray           # B x L, int64
    pad_mask: np.ndarray           # B x L, True on real tokens
    masked_positions: list[list[int]]
    phrases: list[list[PhraseMatch]]
    mode: str

    @property
    def masked_at(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, positions) int64 arrays of the masked tokens, row by row, as listed."""
        counts = [len(row) for row in self.masked_positions]
        return (np.repeat(np.arange(len(counts)), counts),
                np.array([pos for row in self.masked_positions for pos in row], dtype=np.int64))


def _perturb(tokens: list[int], positions: list[int], vocab_size: int,
             rng: np.random.Generator) -> list[int]:
    out = list(tokens)
    for pos in positions:
        r = rng.random()
        if r < 0.8:
            out[pos] = MASK_ID
        elif r < 0.9 and vocab_size > NUM_SPECIALS:
            out[pos] = int(rng.integers(NUM_SPECIALS, vocab_size))
        # else: keep the original token (still predicted).
    return out


def mask_words(doc: Document, vocab_size: int, rng: np.random.Generator) -> MaskedExample:
    """Uniformly mask max(1, ceil(0.15 * len)) whole words."""
    return _mask(doc, None, vocab_size, rng)


def mask_phrases(doc: Document, pool: PhrasePool, vocab_size: int,
                 rng: np.random.Generator) -> MaskedExample:
    """Mask sampled pool phrases, topping up with word-style fill if short.

    Word mode is this routine with no phrases, so a document with no
    detected phrase consumes the generator exactly like mask_words.
    """
    return _mask(doc, pool, vocab_size, rng)


def _mask(doc: Document, pool: PhrasePool | None, vocab_size: int,
          rng: np.random.Generator) -> MaskedExample:
    """Phrase mode with a pool, word mode without one."""
    n = len(doc)
    if n < 1:
        raise ValueError("cannot mask an empty document")
    target = max(1, math.ceil(MASK_RATIO * n))
    covered, sampled = (set(), []) if pool is None else \
        sample_phrase_tokens(detect(doc, pool), target, rng)
    positions = sorted(covered)
    if len(positions) < target:  # rng.choice(n) draws as rng.choice(np.arange(n))
        eligible = np.setdiff1d(np.arange(n), positions) if positions else n
        fill = rng.choice(eligible, target - len(positions), replace=False)
        positions = sorted(positions + fill.tolist())
    return MaskedExample(
        input_ids=_perturb(doc.tokens, positions, vocab_size, rng),
        gold_ids=list(doc.tokens),
        masked_positions=positions,
        phrases=sampled,
        mode="word" if pool is None else "phrase",
    )


def pad(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(B, L) int64 ids, PAD past each sequence's end, and the (B, L) pad mask,
    True on real tokens, for a non-empty list of B sequences of length <= L."""
    lengths = np.array([len(s) for s in seqs])
    pad_mask = np.arange(lengths.max()) < lengths[:, None]
    ids = np.full(pad_mask.shape, PAD_ID, dtype=np.int64)
    ids[pad_mask] = [tok for s in seqs for tok in s]
    return ids, pad_mask


def collate(examples: list[MaskedExample]) -> MaskedBatch:
    """Pad examples to the longest length with PAD and stack them."""
    if not examples:
        raise ValueError("cannot collate an empty example list")
    mode = examples[0].mode
    if any(ex.mode != mode for ex in examples):
        raise ValueError("mixed masking modes in one batch")
    if any(len(ex.input_ids) != len(ex.gold_ids) for ex in examples):
        raise ValueError("input and gold ids differ in length")
    b = len(examples)  # one pad: the input rows, then the gold rows
    ids, pad_mask = pad([ex.input_ids for ex in examples] + [ex.gold_ids for ex in examples])
    return MaskedBatch(
        input_ids=ids[:b], gold_ids=ids[b:], pad_mask=pad_mask[:b],
        masked_positions=[list(ex.masked_positions) for ex in examples],
        phrases=[list(ex.phrases) for ex in examples],
        mode=mode,
    )
