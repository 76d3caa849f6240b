"""Word-mode and phrase-mode masked examples with 80/10/10 perturbation.

Both modes target max(1, ceil(0.15 * len)) positions. Word mode samples
positions uniformly; phrase mode covers sampled pool phrases first and
fills any shortfall with word-style sampling over the remaining
positions (fill positions carry no phrase group). Each selected token is
independently replaced by MASK 80% of the time, a random non-special
token 10%, or kept 10%.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, MASK_ID, NUM_SPECIALS, PAD_ID
from .phrases import PhrasePool, detect, sample_phrase_tokens

MASK_RATIO = 0.15


@dataclass
class MaskedExample:
    """A single perturbed sequence with its recovery metadata."""

    input_ids: list[int]
    gold_ids: list[int]
    masked_positions: list[int]
    phrase_groups: list[list[int]] = field(default_factory=list)
    phrase_labels: list[int] = field(default_factory=list)
    mode: str = "word"


@dataclass
class MaskedBatch:
    """Examples padded to a common length; PAD positions are never masked."""

    input_ids: np.ndarray          # B x L, int64
    gold_ids: np.ndarray           # B x L, int64
    pad_mask: np.ndarray           # B x L, True on real tokens
    masked_positions: list[list[int]]
    phrase_groups: list[list[list[int]]]
    phrase_labels: list[list[int]]
    mode: str

    @property
    def seq_len(self) -> int:
        return self.input_ids.shape[1]


def _target_count(length: int) -> int:
    return max(1, math.ceil(MASK_RATIO * length))


def _sample_positions(eligible: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    count = min(count, eligible.size)
    if count == 0:
        return []
    picked = rng.choice(eligible, size=count, replace=False)
    return sorted(int(p) for p in picked)


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
    if len(doc) < 1:
        raise ValueError("cannot mask an empty document")
    positions = _sample_positions(np.arange(len(doc)), _target_count(len(doc)), rng)
    return MaskedExample(
        input_ids=_perturb(doc.tokens, positions, vocab_size, rng),
        gold_ids=list(doc.tokens),
        masked_positions=positions,
        mode="word",
    )


def mask_phrases(doc: Document, pool: PhrasePool, vocab_size: int,
                 rng: np.random.Generator) -> MaskedExample:
    """Mask sampled pool phrases, topping up with word-style fill if short.

    With no detected phrases this consumes the generator exactly like
    mask_words, so phrase-poor documents behave identically across modes.
    """
    if len(doc) < 1:
        raise ValueError("cannot mask an empty document")
    matches = detect(doc, pool)
    covered, sampled = sample_phrase_tokens(doc, matches, MASK_RATIO, rng)
    target = _target_count(len(doc))
    if len(covered) < target:
        remaining = np.setdiff1d(np.arange(len(doc)), sorted(covered))
        fill = _sample_positions(remaining, target - len(covered), rng)
    else:
        fill = []
    positions = sorted(set(fill) | covered)
    return MaskedExample(
        input_ids=_perturb(doc.tokens, positions, vocab_size, rng),
        gold_ids=list(doc.tokens),
        masked_positions=positions,
        phrase_groups=[list(range(m.start, m.end)) for m in sampled],
        phrase_labels=[m.phrase_id for m in sampled],
        mode="phrase",
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
    input_ids, pad_mask = pad([ex.input_ids for ex in examples])
    return MaskedBatch(
        input_ids=input_ids,
        gold_ids=pad([ex.gold_ids for ex in examples])[0],
        pad_mask=pad_mask,
        masked_positions=[list(ex.masked_positions) for ex in examples],
        phrase_groups=[list(ex.phrase_groups) for ex in examples],
        phrase_labels=[list(ex.phrase_labels) for ex in examples],
        mode=mode,
    )
