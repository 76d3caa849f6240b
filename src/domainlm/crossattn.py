"""Cross-attention alignment baseline: bidirectional reconstruction + triplet.

Each side's embeddings are reconstructed as attention-weighted averages
of the other side's; the squared reconstruction error in both directions
feeds a unit-margin triplet loss against a randomly drawn negative
entity. Serves as the evaluation baseline next to the transport-based
alignment; it is not part of the default pre-training schedule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class AttentionAlignment:
    """Row-stochastic correlation matrices for one entity pair.

    ``alpha`` has one row per a-token (softmax over b-tokens);
    ``beta_t`` one row per b-token (softmax over a-tokens).
    """

    alpha: Tensor   # n x m
    beta_t: Tensor  # m x n


def cross_attention(a: Tensor, b: Tensor) -> AttentionAlignment:
    """Dot-product attention in both directions over raw, unscaled scores."""
    scores = a @ T.transpose(b, -2, -1)
    return AttentionAlignment(
        alpha=T.softmax(scores),
        beta_t=T.softmax(T.transpose(scores, -2, -1)),
    )


def reconstruction_distance(a: Tensor, b: Tensor) -> Tensor:
    """Summed squared reconstruction error of the pair, both directions:
    a'_i is the attention-weighted average of b rows, b'_j of a rows."""
    align = cross_attention(a, b)
    da = a - align.alpha @ b
    db = b - align.beta_t @ a
    return (da * da).sum() + (db * db).sum()


def triplet_loss(a: Tensor, b: Tensor, b_neg: Tensor) -> Tensor:
    """Unit-margin hinge on reconstruction distances: positive pair closer.

    The hinge keeps the graph only while active, so the gradient is zero
    exactly when the margin is already satisfied.
    """
    pos = reconstruction_distance(a, b)
    neg = reconstruction_distance(a, b_neg)
    z = Tensor(np.asarray(1.0)) + pos - neg
    if float(z.data) > 0.0:
        return z
    return Tensor(np.asarray(0.0))
