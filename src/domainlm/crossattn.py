"""Cross-attention alignment baseline: bidirectional reconstruction + triplet.

Each side's embeddings are reconstructed as attention-weighted averages
of the other side's; the squared reconstruction error in both directions
feeds a unit-margin triplet loss against a randomly drawn negative
entity. Serves as the evaluation baseline next to the transport-based
alignment; it is not part of the default pre-training schedule.

Each function takes one pair as (L, d) embeddings or a batch of pairs as
(B, L, d), each side padded to its longest document, with (B, L) pad masks
that are True on real tokens; a 2-D call is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import NEG_INF
from .tensor import Tensor


@dataclass
class AttentionAlignment:
    """Row-stochastic correlation matrices for one entity pair, or a batch.

    ``alpha`` has one row per a-token (softmax over b-tokens);
    ``beta_t`` one row per b-token (softmax over a-tokens).
    """

    alpha: Tensor   # (B,) n x m
    beta_t: Tensor  # (B,) m x n


def cross_attention(a: Tensor, b: Tensor, a_mask=None, b_mask=None) -> AttentionAlignment:
    """Dot-product attention in both directions over raw, unscaled scores.
    A padded key gets NEG_INF, so exactly zero weight after the softmax."""
    def softmax(scores: Tensor, key_mask) -> Tensor:
        if key_mask is not None:
            scores = scores + Tensor(np.where(key_mask, 0.0, NEG_INF)[..., None, :])
        return T.softmax(scores)

    scores = a @ T.transpose(b, -2, -1)
    return AttentionAlignment(alpha=softmax(scores, b_mask),
                              beta_t=softmax(T.transpose(scores, -2, -1), a_mask))


def reconstruction_distance(a: Tensor, b: Tensor, a_mask=None, b_mask=None) -> Tensor:
    """Summed squared reconstruction error of each pair, both directions:
    a'_i is the attention-weighted average of b rows, b'_j of a rows.

    A scalar for one pair, shape (B,) for a batch; padded rows add no error.
    Each error is summed over the pair's flattened (L, d) block, so a pair's
    distance is bit for bit the one a 2-D call on it returns.
    """
    def error(x: Tensor, rebuilt: Tensor, row_mask) -> Tensor:
        diff = x - rebuilt
        if row_mask is not None:
            diff = diff * Tensor(row_mask[..., None].astype(np.float64))
        return T.reshape(diff * diff, x.shape[:-2] + (x.shape[-2] * x.shape[-1],)).sum(axis=-1)

    align = cross_attention(a, b, a_mask, b_mask)
    return error(a, align.alpha @ b, a_mask) + error(b, align.beta_t @ a, b_mask)


def triplet_loss(a: Tensor, b: Tensor, b_neg: Tensor, a_mask=None, b_mask=None,
                 neg_mask=None) -> Tensor:
    """Unit-margin hinges on reconstruction distances, positive pair closer,
    summed over the pairs.

    Only active hinges reach the loss, each picked exactly from the margins
    by a one-hot row, so an inactive pair gets zero gradient; with none
    active the result is the constant 0.0. Up to 7 active hinges sum in pair
    order, bit for bit a loop over single pairs (NumPy sums 8 or more pairwise).
    """
    z = (Tensor(np.asarray(1.0)) + reconstruction_distance(a, b, a_mask, b_mask)
         - reconstruction_distance(a, b_neg, a_mask, neg_mask))
    active = np.flatnonzero(z.data > 0.0)
    if not active.size:
        return Tensor(np.asarray(0.0))
    return (Tensor(np.eye(z.size)[active]) @ T.reshape(z, (z.size, 1))).sum()
