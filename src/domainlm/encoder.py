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
        _check_encoder_config(vars(self))
        if self.dim % self.heads != 0:
            raise ValueError(f"dim ({self.dim}) must be divisible by heads ({self.heads})")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


_check_encoder_config = T.field_check(EncoderConfig, {
    ">= 1": "vocab_size layers dim heads ffn_dim max_seq_len", ">= 0": "phrase_vocab_size"})


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in parameter order."""
    d, f = config.dim, config.ffn_dim
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_seq_len, d),
              "emb_ln.gain": (d,), "emb_ln.bias": (d,)}
    for i in range(config.layers):
        p = f"layer{i}."
        shapes.update({p + f"attn.{mat}": (d, d) for mat in ("wq", "wk", "wv", "wo")})
        shapes.update({p + f"attn.{vec}": (d,) for vec in ("bq", "bk", "bv", "bo")})
        shapes.update({p + "ln1.gain": (d,), p + "ln1.bias": (d,), p + "ffn.w1": (d, f),
                       p + "ffn.b1": (f,), p + "ffn.w2": (f, d), p + "ffn.b2": (d,),
                       p + "ln2.gain": (d,), p + "ln2.bias": (d,)})
    shapes["token_head"] = (d, config.vocab_size)
    if config.phrase_vocab_size > 0:
        shapes["phrase_head"] = (d, config.phrase_vocab_size)
    return shapes


def init_params(config: EncoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """BERT-convention init: N(0, 0.02) matrices, unit LN gains, zero biases,
    drawn in parameter order."""
    return {name: Tensor(rng.normal(0.0, 0.02, size=shape) if len(shape) == 2
                         else np.ones(shape) if name.endswith(".gain") else np.zeros(shape),
                         requires_grad=True)
            for name, shape in param_shapes(config).items()}


def _split_heads(x: Tensor, batch: int, length: int, heads: int, head_dim: int) -> Tensor:
    return T.transpose(T.reshape(x, (batch, length, heads, head_dim)), 1, 2)


def forward(input_ids: np.ndarray, pad_mask: np.ndarray, params: dict[str, Tensor],
            config: EncoderConfig, rows=None, positions=None) -> Tensor:
    """Contextual embeddings for a batch: (B, L) ids -> (B, L, dim).

    PAD columns are excluded from attention via an additive mask on the
    pre-softmax scores, so ids at PAD positions never reach a real row.

    Given ``rows`` and ``positions``, it returns the (n, dim) rows that
    ``gather_positions`` would read there from the full result: the last
    layer runs its position-wise half (LN1, FFN, LN2) on those rows alone.
    """
    input_ids = np.asarray(input_ids, dtype=np.int64)
    b, length = input_ids.shape
    if length > config.max_seq_len:
        raise ValueError(f"sequence length {length} exceeds max_seq_len {config.max_seq_len}")

    h, dh = config.heads, config.head_dim
    additive = np.where(np.asarray(pad_mask, dtype=bool), 0.0, NEG_INF)
    key_mask = Tensor(additive[:, None, None, :])  # broadcasts over heads and queries

    x = T.embedding(params["tok_emb"], input_ids)
    x = x + T.embedding(params["pos_emb"], np.arange(length))
    x = T.layer_norm(x, params["emb_ln.gain"], params["emb_ln.bias"])

    for i in range(config.layers):
        p = f"layer{i}."
        q, k, v = (_split_heads(T.matmul(x, params[p + f"attn.w{m}"], params[p + f"attn.b{m}"]),
                                b, length, h, dh) for m in "qkv")
        scores = T.scale(q @ T.transpose(k), 1.0 / np.sqrt(dh)) + key_mask
        attn = T.softmax(scores)
        ctx = T.reshape(T.transpose(attn @ v, 1, 2), (b, length, config.dim))
        x = x + T.matmul(ctx, params[p + "attn.wo"], params[p + "attn.bo"])
        if rows is not None and i == config.layers - 1:
            x = gather_positions(x, rows, positions)
        x = T.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        inner = T.gelu(T.matmul(x, params[p + "ffn.w1"], params[p + "ffn.b1"]))
        ffn_out = T.matmul(inner, params[p + "ffn.w2"], params[p + "ffn.b2"])
        x = T.layer_norm(x + ffn_out, params[p + "ln2.gain"], params[p + "ln2.bias"])
    return x


def token_logits(hidden: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Linear map onto the token vocabulary; softmax lives in the loss."""
    return hidden @ params["token_head"]


def gather_positions(hidden: Tensor, rows, positions) -> Tensor:
    """``hidden[rows, positions]`` of a (B, L, d) forward, for row and position
    arrays that broadcast together: the one reader of a forward's rows.

    Raises IndexError on a row outside [0, B) or a position outside [0, L).
    """
    b, length, d = hidden.shape
    rows, positions = np.asarray(rows, dtype=np.int64), np.asarray(positions, dtype=np.int64)
    for name, index, size in (("row", rows, b), ("position", positions, length)):
        if index.size and (index.min() < 0 or index.max() >= size):
            raise IndexError(f"{name} out of range [0, {size}) in a ({b}, {length}) forward")
    return T.embedding(T.reshape(hidden, (b * length, d)), rows * length + positions)


def phrase_logits(read: Tensor, groups: list[list[int]], params: dict[str, Tensor]) -> Tensor:
    """Mean-pool each group of rows of ``read``, then map onto the phrase vocabulary.

    ``read`` is the (n, d) masked rows of a forward, and ``groups`` lists the
    rows of each phrase's tokens. Only the groups' rows are gathered. Returns
    one logits row per group, in input order.
    """
    if "phrase_head" not in params:
        raise ValueError("model has no phrase head (phrase_vocab_size was 0)")
    if not groups:
        raise ValueError("phrase_logits requires at least one group")
    sizes = [len(group) for group in groups]
    if 0 in sizes:
        raise ValueError(f"empty phrase group at index {sizes.index(0)}")
    owner = np.repeat(np.arange(len(groups)), sizes)  # the group of each gathered token
    pool = np.zeros((len(groups), owner.size))
    pool[owner, np.arange(owner.size)] = 1.0 / np.array(sizes)[owner]
    picked = gather_positions(T.reshape(read, (1,) + read.shape), 0,
                              [row for group in groups for row in group])
    return (Tensor(pool) @ picked) @ params["phrase_head"]
