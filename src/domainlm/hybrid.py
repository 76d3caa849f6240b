"""Hybrid masked-prediction objectives and the loss-progress mode scheduler.

Word mode predicts masked tokens; phrase mode adds a completeness term
that predicts each masked phrase as a unit from the mean of its token
embeddings. A scheduler tracks each mode's relative loss-reduction speed
(eta) and switches modes through alpha = tanh(eta_word / eta_phrase),
with alpha held at a fixed warm value for the first warm_iters
iterations.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
import numpy as np

from . import tensor as T
from .encoder import gather_positions, phrase_logits, token_logits
from .masking import MaskedBatch
from .tensor import Tensor

ETA_EPS = 1e-12


# ----------------------------------------------------------------------- losses


def masked_token_logits(batch: MaskedBatch, read: Tensor, params: dict[str, Tensor]
                        ) -> tuple[Tensor, np.ndarray]:
    """Token logits of ``read``, the (n, d) rows of a forward at ``batch.masked_at``,
    and the gold ids there."""
    rows, positions = batch.masked_at
    if not rows.size:
        raise ValueError("batch has no masked positions")
    return token_logits(read, params), batch.gold_ids[rows, positions]


def masked_token_nll(batch: MaskedBatch, hidden: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Mean NLL of the gold tokens at the masked positions of a (B, L, d) forward."""
    read = gather_positions(hidden, *batch.masked_at)
    return T.cross_entropy(*masked_token_logits(batch, read, params))


def word_loss(batch: MaskedBatch, read: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Mean NLL of the gold tokens, from the forward's rows ``read`` at ``batch.masked_at``."""
    if batch.mode != "word":
        raise ValueError(f"word_loss on a {batch.mode!r}-mode batch")
    return T.cross_entropy(*masked_token_logits(batch, read, params))


def phrase_loss(batch: MaskedBatch, read: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Token NLL over the masked positions plus mean phrase-unit NLL, both from
    ``read``, the forward's rows at ``batch.masked_at``, which hold every phrase token.

    Batches whose masking fell back entirely to word-style fill carry no
    phrases; the loss then reduces to the token term alone.
    """
    if batch.mode != "phrase":
        raise ValueError(f"phrase_loss on a {batch.mode!r}-mode batch")
    token_term = T.cross_entropy(*masked_token_logits(batch, read, params))
    drawn = [(row, m) for row, matches in enumerate(batch.phrases) for m in matches]
    if not drawn:
        return token_term
    index = {at: i for i, at in enumerate(zip(*(a.tolist() for a in batch.masked_at)))}
    groups = [[index[row, pos] for pos in range(m.start, m.end)] for row, m in drawn]
    logits = phrase_logits(read, groups, params)
    return token_term + T.cross_entropy(logits, [m.phrase_id for _, m in drawn])


# -------------------------------------------------------------------- scheduler


@dataclass
class SchedulerState:
    """Per-mode smoothed loss history driving the alpha switch.

    History fields are updated only when the corresponding mode runs.
    ``ema_decay = 0`` disables smoothing (raw minibatch losses).
    """

    warm_iters: int = 1000
    warm_alpha: float = 0.6
    ema_decay: float = 0.9
    bootstrap_every: int = 5
    alpha: float = field(init=False)
    iteration: int = 0
    word_first: float = math.nan
    word_prev: float = math.nan
    word_curr: float = math.nan
    phrase_first: float = math.nan
    phrase_prev: float = math.nan
    phrase_curr: float = math.nan

    def __post_init__(self):
        self.alpha = self.warm_alpha

    def record(self, mode: str, raw_loss: float) -> None:
        """Fold one minibatch loss into the history of the mode that ran."""
        first, curr = (self.word_first, self.word_curr) if mode == "word" else \
                      (self.phrase_first, self.phrase_curr)
        if math.isnan(first):
            smoothed = raw_loss
            first = prev = smoothed
        else:
            smoothed = self.ema_decay * curr + (1.0 - self.ema_decay) * raw_loss \
                if self.ema_decay > 0 else raw_loss
            prev = curr
        if mode == "word":
            self.word_first, self.word_prev, self.word_curr = first, prev, smoothed
        elif mode == "phrase":
            self.phrase_first, self.phrase_prev, self.phrase_curr = first, prev, smoothed
        else:
            raise ValueError(f"unknown mode {mode!r}")

    def to_dict(self) -> dict:
        """JSON-ready fields; NaN (an unpopulated history) becomes None."""
        return {k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict, **settings) -> "SchedulerState":
        """Inverse of ``to_dict``; ``d`` holds exactly the fields ``settings`` does not."""
        values = {k: math.nan if v is None else v for k, v in d.items()}
        if values.keys() != (names := {f.name for f in fields(cls)} - settings.keys()):
            raise ValueError(f"scheduler fields must be {sorted(names)}, got {sorted(d)}")
        _check_scheduler_state(values)
        state = cls(**settings, **{k: v for k, v in values.items() if k != "alpha"})
        state.alpha = values["alpha"]  # not an init field; restore it after __post_init__
        return state


_check_scheduler_state = T.field_check(SchedulerState, {">= 0": "iteration", "[0, 1]": "alpha"})


def fitting_progress(first: float, prev: float, curr: float) -> float:
    """Relative loss-reduction speed: clamped one-step drop over total drop.

    Returns 0 when the total reduction is not (yet) positive, including
    unpopulated (NaN) histories.
    """
    if math.isnan(first) or math.isnan(prev) or math.isnan(curr):
        return 0.0
    denom = first - curr
    if denom <= ETA_EPS:
        return 0.0
    return max(prev - curr, 0.0) / denom


def update_alpha(state: SchedulerState) -> float:
    """Compute alpha for the current iteration and store it on the state.

    Warm iterations pin alpha at warm_alpha. Afterwards
    alpha = tanh(eta_word / eta_phrase), with a stalled phrase mode
    (eta_phrase = 0 while eta_word > 0) driving alpha to the tanh limit 1
    and a double stall retaining the previous alpha.
    """
    if state.iteration <= state.warm_iters:
        state.alpha = state.warm_alpha
        return state.alpha
    eta_w = fitting_progress(state.word_first, state.word_prev, state.word_curr)
    eta_p = fitting_progress(state.phrase_first, state.phrase_prev, state.phrase_curr)
    if eta_p == 0.0:
        if eta_w > 0.0:
            state.alpha = 1.0
        # both stalled: keep the previous alpha
    else:
        state.alpha = math.tanh(eta_w / eta_p)
    return state.alpha


def select_mode(alpha: float) -> str:
    """Word mode iff alpha exceeds the 0.5 indicator threshold."""
    return "word" if alpha > 0.5 else "phrase"


def scheduled_mode(state: SchedulerState) -> str:
    """Mode for the current iteration, with the warm-up phrase bootstrap.

    During warm-up the fixed alpha always selects word mode, so every
    bootstrap_every-th warm iteration forces a phrase step; otherwise the
    phrase history would be empty when the adaptive phase starts.
    """
    if state.iteration <= state.warm_iters and \
            state.iteration % state.bootstrap_every == 0:
        return "phrase"
    return select_mode(state.alpha)
