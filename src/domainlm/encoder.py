"""Tiny transformer encoder with token- and phrase-prediction heads.

BERT-flavoured internals: learned absolute position embeddings, post-LN
blocks, GELU feed-forward, scaled dot-product attention with an additive
key mask that zeroes out PAD columns. Parameters live in an ordered
name -> Tensor dict so optimizer traversal order is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

# Large negative additive mask; exp() underflows to exactly 0 after the
# softmax max-subtraction, so PAD keys receive zero attention.
NEG_INF = -1e30


@dataclass
class EncoderConfig:
    vocab_size: int
    phrase_vocab_size: int
    layers: int = 2
    dim: int = 32
    heads: int = 2
    ffn_dim: int = 64
    max_seq_len: int = 128

    def __post_init__(self):
        for name in ("vocab_size", "layers", "dim", "heads", "ffn_dim", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"EncoderConfig.{name} must be >= 1")
        if self.phrase_vocab_size < 0:
            raise ValueError("EncoderConfig.phrase_vocab_size must be >= 0")
        if self.dim % self.heads != 0:
            raise ValueError(
                f"dim ({self.dim}) must be divisible by heads ({self.heads})"
            )

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


def init_params(config: EncoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """BERT-convention init: N(0, 0.02) matrices, zero biases, unit LN gains."""
    d, f = config.dim, config.ffn_dim

    def normal(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    params: dict[str, Tensor] = {
        "tok_emb": normal(config.vocab_size, d),
        "pos_emb": normal(config.max_seq_len, d),
        "emb_ln.gain": ones(d),
        "emb_ln.bias": zeros(d),
    }
    for i in range(config.layers):
        p = f"layer{i}."
        for mat in ("wq", "wk", "wv", "wo"):
            params[p + f"attn.{mat}"] = normal(d, d)
        for vec in ("bq", "bk", "bv", "bo"):
            params[p + f"attn.{vec}"] = zeros(d)
        params[p + "ln1.gain"] = ones(d)
        params[p + "ln1.bias"] = zeros(d)
        params[p + "ffn.w1"] = normal(d, f)
        params[p + "ffn.b1"] = zeros(f)
        params[p + "ffn.w2"] = normal(f, d)
        params[p + "ffn.b2"] = zeros(d)
        params[p + "ln2.gain"] = ones(d)
        params[p + "ln2.bias"] = zeros(d)
    params["token_head"] = normal(d, config.vocab_size)
    if config.phrase_vocab_size > 0:
        params["phrase_head"] = normal(d, config.phrase_vocab_size)
    return params


def _split_heads(x: Tensor, batch: int, length: int, heads: int, head_dim: int) -> Tensor:
    return T.transpose(T.reshape(x, (batch, length, heads, head_dim)), 1, 2)


def forward(input_ids: np.ndarray, pad_mask: np.ndarray, params: dict[str, Tensor],
            config: EncoderConfig) -> Tensor:
    """Contextual embeddings for a batch: (B, L) ids -> (B, L, dim).

    PAD columns are excluded from attention via an additive mask on the
    pre-softmax scores, so ids at PAD positions never reach a real row.
    """
    input_ids = np.asarray(input_ids, dtype=np.int64)
    b, length = input_ids.shape
    if length > config.max_seq_len:
        raise ValueError(f"sequence length {length} exceeds max_seq_len {config.max_seq_len}")
    if input_ids.max() >= config.vocab_size or input_ids.min() < 0:
        raise IndexError(f"token id out of range [0, {config.vocab_size})")

    h, dh = config.heads, config.head_dim
    additive = np.where(np.asarray(pad_mask, dtype=bool), 0.0, NEG_INF)
    key_mask = Tensor(additive[:, None, None, :])  # broadcasts over heads and queries

    x = T.embedding(params["tok_emb"], input_ids)
    x = x + T.embedding(params["pos_emb"], np.arange(length))
    x = T.layer_norm(x, params["emb_ln.gain"], params["emb_ln.bias"])

    for i in range(config.layers):
        p = f"layer{i}."
        q = _split_heads(x @ params[p + "attn.wq"] + params[p + "attn.bq"], b, length, h, dh)
        k = _split_heads(x @ params[p + "attn.wk"] + params[p + "attn.bk"], b, length, h, dh)
        v = _split_heads(x @ params[p + "attn.wv"] + params[p + "attn.bv"], b, length, h, dh)
        scores = T.scale(q @ T.transpose(k), 1.0 / np.sqrt(dh)) + key_mask
        attn = T.softmax(scores)
        ctx = T.reshape(T.transpose(attn @ v, 1, 2), (b, length, config.dim))
        attn_out = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        x = T.layer_norm(x + attn_out, params[p + "ln1.gain"], params[p + "ln1.bias"])
        inner = T.gelu(x @ params[p + "ffn.w1"] + params[p + "ffn.b1"])
        ffn_out = inner @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        x = T.layer_norm(x + ffn_out, params[p + "ln2.gain"], params[p + "ln2.bias"])
    return x


def token_logits(hidden: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Linear map onto the token vocabulary; softmax lives in the loss."""
    return hidden @ params["token_head"]


def gather_positions(hidden: Tensor, flat_positions: np.ndarray) -> Tensor:
    """Select rows of a (B, L, d) tensor by flat b * L + pos indices."""
    b, length, d = hidden.shape
    return T.embedding(T.reshape(hidden, (b * length, d)), flat_positions)


def phrase_logits(hidden: Tensor, groups: list[list[int]], params: dict[str, Tensor],
                  batch_index: list[int] | None = None) -> Tensor:
    """Mean-pool each group of positions, then map onto the phrase vocabulary.

    ``groups`` lists token positions per phrase; ``batch_index`` gives the
    example row for each group (defaults to example 0). Returns one logits
    row per group, in input order.
    """
    if "phrase_head" not in params:
        raise ValueError("model has no phrase head (phrase_vocab_size was 0)")
    if batch_index is None:
        batch_index = [0] * len(groups)
    b, length, d = hidden.shape
    if not groups:
        raise ValueError("phrase_logits requires at least one group")
    pool = np.zeros((len(groups), b * length))
    for g, (row, group) in enumerate(zip(batch_index, groups)):
        if len(group) == 0:
            raise ValueError(f"empty phrase group at index {g}")
        for pos in group:
            pool[g, row * length + pos] = 1.0 / len(group)
    means = Tensor(pool) @ T.reshape(hidden, (b * length, d))
    return means @ params["phrase_head"]
