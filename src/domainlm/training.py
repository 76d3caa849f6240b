"""Two-stage pre-training: hybrid masking alone, then jointly with alignment.

Stage 1 iterates the corpus with the adaptive word/phrase objective.
Stage 2 iterates associated entity pairs: the same hybrid objective on
the pair documents plus a weighted alignment loss (transport-based by
default, cross-attention triplet as the baseline variant) computed on the
documents unmasked. For the transport loss one padded forward per step
encodes them masked and unmasked; the triplet baseline runs its own padded
unmasked pass with the same parameters, over the documents and their
negatives, and one batched triplet loss reads it for all the step's pairs.
That pass runs off the tape first, and again on the tape only when a
hinge is active.

Determinism: parameter init, masking, data order and negative sampling
draw from separate streams derived from the config seed. Data order and
negatives are pure functions of (seed, stage, epoch), so a checkpoint
only needs the sequential masking stream plus counters to resume
bit-exactly.

Inference runs forward only, on weights that record no backward closure.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Literal, Optional

import numpy as np

from . import crossattn, transport
from . import tensor as T
from .corpus import Document, EntityPairSet, MASK_ID, Vocab
from .encoder import EncoderConfig, forward, gather_positions, init_params, param_shapes
from .hybrid import (SchedulerState, masked_token_logits, phrase_loss, scheduled_mode,
                     select_mode, update_alpha, word_loss)
from .masking import MaskedBatch, MaskedExample, collate, mask_phrases, mask_words, pad
from .phrases import PhrasePool, detect, phrase_fault
from .tensor import Tensor

CHECKPOINT_VERSION = 3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NanGradientError(RuntimeError):
    """A parameter gradient went non-finite; the message names the parameter."""

    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient in parameter {param_name!r}")


CeaVariant = Literal["ot", "attention"]


@dataclass
class TrainConfig:
    """Knobs for both stages; defaults follow the documented reference setup."""

    stage1_epochs: int = 10
    stage2_epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-5
    cea_weight: float = 1.0
    seed: int = 0
    ipot_beta: float = 0.5
    ipot_outer_iters: int = 50
    warm_iters: int = 1000
    warm_alpha: float = 0.6
    ema_decay: float = 0.9
    bootstrap_every: int = 5
    cea_variant: CeaVariant = "ot"
    force_alpha: Optional[float] = None
    shuffle: bool = True
    reset_scheduler_for_stage2: bool = False
    eval_docs: int = 0
    max_seq_len: int = 128

    def __post_init__(self):
        _check_train_config(vars(self))


_check_train_config = T.field_check(TrainConfig, {
    ">= 0": "stage1_epochs stage2_epochs learning_rate cea_weight seed warm_iters eval_docs",
    ">= 1": "batch_size ipot_outer_iters bootstrap_every", "> 0": "ipot_beta",
    "[0, 1]": "warm_alpha ema_decay force_alpha"})


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """One reshaped view of ``flat`` per shape, laid end to end."""
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


@dataclass
class AdamState:
    """Adam's moments over a flat arena.

    The parameters and both moments each live in one float64 buffer
    (``arena``, ``arena_m``, ``arena_v``) in parameter order. Every
    parameter's ``data`` is a reshaped view into ``arena``, so parameters are
    updated in place and their ``data`` must never be rebound. ``grad`` and
    ``scratch`` are two more arena-sized buffers that each step overwrites. The
    step count is not kept here: a run derives it from its stage counters.
    """

    arena: np.ndarray
    arena_m: np.ndarray
    arena_v: np.ndarray
    grad: np.ndarray
    scratch: np.ndarray


def adam_step(params: dict[str, Tensor], adam: AdamState, lr: float, t: int) -> None:
    """Adam update ``t`` (counted from 1), bias-corrected, of the arena ``adam``
    holds ``params`` in. A parameter without a gradient keeps its data and moments;
    a non-finite gradient aborts the step before anything changes. The
    arithmetic is the textbook update's, operation for operation, written
    into ``adam``'s buffers instead of temporaries."""
    grad = adam.grad
    runs: list[slice] = []  # contiguous spans of parameters that have a gradient
    start = 0
    for p in params.values():
        end = start + p.data.size
        if p.grad is not None:
            grad[start:end] = p.grad.reshape(-1)
            if runs and runs[-1].stop == start:
                runs[-1] = slice(runs[-1].start, end)
            else:
                runs.append(slice(start, end))
        start = end
    if not all(np.isfinite(grad[run]).all() for run in runs):
        raise NanGradientError(next(name for name, p in params.items()
                                    if p.grad is not None and not np.isfinite(p.grad).all()))
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for run in runs:
        g, m, v, s = grad[run], adam.arena_m[run], adam.arena_v[run], adam.scratch[run]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=s)
        v += np.multiply(s, g, out=s)
        # lr * (m / bc1) / (sqrt(v / bc2) + eps); g is spent, so it holds the denominator
        np.multiply(lr, np.divide(m, bc1, out=s), out=s)
        np.add(np.sqrt(np.divide(v, bc2, out=g), out=g), ADAM_EPS, out=g)
        adam.arena[run] -= np.divide(s, g, out=s)


@dataclass
class TrainState:
    """Everything a run needs to continue: weights, moments, scheduler, RNG."""

    config: TrainConfig
    enc_config: EncoderConfig
    params: dict[str, Tensor]
    adam: AdamState
    scheduler: SchedulerState
    mask_rng: np.random.Generator
    vocab: Vocab
    phrases: list[tuple[int, ...]]  # phrase-pool token ids in phrase-id order
    stage1_iters_done: int = 0
    stage2_iters_done: int = 0


# TrainConfig fields that parameterise the scheduler, in SchedulerState order.
SCHEDULER_KEYS = tuple(f.name for f in fields(SchedulerState)
                       if f.name in TrainConfig.__dataclass_fields__)
# EncoderConfig fields a run derives from its data and TrainConfig; the rest are its shape.
DERIVED_ENCODER_KEYS = ("vocab_size", "phrase_vocab_size", "max_seq_len")


def _new_scheduler(config: TrainConfig) -> SchedulerState:
    """A fresh scheduler with the config's hyperparameters."""
    return SchedulerState(**{k: getattr(config, k) for k in SCHEDULER_KEYS})


def _check_phrases(phrases: list, vocab_size: int) -> None:
    """Raise ValueError naming the first entry of ``phrases`` that no pool file could
    yield over a vocab of ``vocab_size`` tokens (see ``phrases.phrase_fault``)."""
    for k, ids in enumerate(phrases):
        if fault := phrase_fault(ids, vocab_size):
            raise ValueError(f"phrase {k} {ids!r} is no pool phrase ({fault})")


def _assemble(config: TrainConfig, vocab: Vocab, phrases: list, shape: dict,
              saved: Optional[dict] = None) -> TrainState:
    """The one builder of a run's state: validates ``phrases`` and derives the
    encoder config from them, ``config``, ``vocab`` and ``shape``. A fresh run (``saved`` None)
    draws its arena with ``init_params`` and has zero moments, a new scheduler, the seeded
    masking stream and no steps done; a loaded run takes each of these from ``saved``.
    Every parameter is a view into the arena, laid out by ``param_shapes``."""
    _check_phrases(phrases, len(vocab))  # as load_pool keeps them, sorted
    if (phrases := [tuple(ids) for ids in phrases]) != sorted(set(phrases)):
        raise ValueError("phrases must be distinct and in phrase-id order")
    enc_config = EncoderConfig(vocab_size=len(vocab), phrase_vocab_size=len(phrases),
                               max_seq_len=config.max_seq_len, **shape)
    shapes = param_shapes(enc_config)
    size = sum(math.prod(s) for s in shapes.values())
    fresh = saved is None
    if fresh:
        params = init_params(enc_config, np.random.default_rng([config.seed, 0x1A17]))
        saved = {"arena": np.concatenate([p.data.ravel() for p in params.values()]),
                 "adam_m": np.zeros(size), "adam_v": np.zeros(size),
                 "stage1_iters_done": 0, "stage2_iters_done": 0}
    for key in ("arena", "adam_m", "adam_v"):
        if (a := saved[key]).dtype != np.float64 or a.shape != (size,):
            raise ValueError(f"{key!r} is {a.dtype} {a.shape}; the model needs "
                             f"float64 ({size},)")
        if not (fresh or np.isfinite(a).all()):  # a run saves finite arenas only
            raise ValueError(f"{key!r} holds a non-finite value")
    counters = {key: saved[key] for key in ("stage1_iters_done", "stage2_iters_done")}
    if not all(type(n) is int and n >= 0 for n in counters.values()):
        raise ValueError(f"counters must be integers >= 0, got {counters}")
    mask_rng = np.random.default_rng([config.seed, 0x3A5C])
    if not fresh:
        if (saved["adam_v"] < 0).any():  # a sum of squares
            raise ValueError("'adam_v' holds a negative value")
        mask_rng.bit_generator.state = saved["mask_rng"]
    return TrainState(
        config=config,
        enc_config=enc_config,
        params={name: Tensor(view, requires_grad=True)
                for name, view in _views(saved["arena"], shapes).items()},
        adam=AdamState(saved["arena"], saved["adam_m"], saved["adam_v"],
                       np.empty(size), np.empty(size)),
        scheduler=_new_scheduler(config) if fresh else SchedulerState.from_dict(
            saved["scheduler"], **{k: getattr(config, k) for k in SCHEDULER_KEYS}),
        mask_rng=mask_rng,
        vocab=vocab,
        phrases=phrases,
        **counters,
    )


def init_train_state(vocab: Vocab, pool: PhrasePool, config: TrainConfig,
                     **shape: int) -> TrainState:
    """A fresh run whose encoder is sized by the data, ``config.max_seq_len`` and ``shape``.
    A pool read against another vocab raises ValueError, as its checkpoint would."""
    return _assemble(config, vocab, pool.by_id(), shape)


# ------------------------------------------------------------------ data order


def _epoch_order(seed: int, stage: int, epoch: int, n: int, shuffle: bool) -> np.ndarray:
    if not shuffle:
        return np.arange(n)
    return np.random.default_rng([seed, stage, epoch, 0xDA7A]).permutation(n)


def _epoch_negatives(pair_set: EntityPairSet, seed: int, epoch: int) -> list[str]:
    """One negative entity per pair, resampled per epoch: one not associated with the
    pair's first entity, or else any but the pair's own two."""
    assoc: dict[str, set[str]] = {}
    for a, b in pair_set.pairs:
        assoc.setdefault(a, set()).add(b)
        assoc.setdefault(b, set()).add(a)
    all_ids = sorted(pair_set.content)
    rng = np.random.default_rng([seed, 2, epoch, 0x9E6])
    negatives = []
    for a, b in pair_set.pairs:
        banned = assoc.get(a, set()) | {a}
        candidates = [e for e in all_ids if e not in banned]
        if not candidates:
            candidates = [e for e in all_ids if e not in (a, b)]
        negatives.append(candidates[int(rng.integers(len(candidates)))])
    return negatives


# --------------------------------------------------------------- one iteration


def _hybrid_forward(state: TrainState, docs: list[Document], pool: PhrasePool,
                    unmasked: bool = False) -> tuple[Tensor, str, float, Tensor]:
    """Select a mode, mask, forward and compute the selected mode's loss; also
    returns the forward, only its rows at the masked positions unless ``unmasked``:
    then all of it, with ``docs`` also encoded unmasked, as rows len(docs).."""
    cfg = state.config
    sched = state.scheduler
    if cfg.force_alpha is not None:
        alpha = sched.alpha = cfg.force_alpha
        mode = select_mode(alpha)
    else:
        alpha = update_alpha(sched)
        mode = scheduled_mode(sched)
    vocab_size = state.enc_config.vocab_size
    if mode == "word":
        examples = [mask_words(d, vocab_size, state.mask_rng) for d in docs]
    else:
        examples = [mask_phrases(d, pool, vocab_size, state.mask_rng) for d in docs]
    batch = collate(examples)
    if unmasked:  # gold_ids are the documents themselves, padded to the same length
        hidden = forward(np.concatenate([batch.input_ids, batch.gold_ids]),
                         np.concatenate([batch.pad_mask] * 2), state.params, state.enc_config)
        read = gather_positions(hidden, *batch.masked_at)
    else:
        hidden = read = forward(batch.input_ids, batch.pad_mask, state.params,
                                state.enc_config, *batch.masked_at)
    loss = (word_loss if mode == "word" else phrase_loss)(batch, read, state.params)
    return loss, mode, alpha, hidden


def _alignment_loss(state: TrainState, docs: list[Document], negatives: list[Document],
                    hidden: Tensor) -> Tensor:
    """Mean alignment loss over the step's pairs, whose documents ``docs`` lists
    in turn (a0, b0, a1, b1, ...); ``negatives`` holds one per pair for
    ``attention`` and none for ``ot``. ``ot`` reads the unmasked rows of
    ``hidden``, the step's stacked forward (see ``_hybrid_forward``)."""
    cfg = state.config
    if cfg.cea_variant == "ot":
        lengths = np.array([len(doc) for doc in docs]).reshape(-1, 2)
        rows = len(docs) + np.arange(len(docs)).reshape(-1, 2)  # unmasked a and b rows
        emb_a, emb_b = (gather_positions(hidden, rows[:, s, None], np.arange(lengths[:, s].max()))
                        for s in (0, 1))
        return transport.cea_loss(emb_a, emb_b, lengths.tolist(), beta=cfg.ipot_beta,
                                  outer_iters=cfg.ipot_outer_iters)
    # attention keeps its own unmasked pass, and runs it off the tape: stacked into the
    # masked forward it measured slower (269 -> 306 ms per stage-2 run on the benchmark's
    # pair world) and could not leave the tape. Only a step with an active hinge runs
    # the pass again on the tape, which rebuilds the same values bit for bit.
    ids, pad_mask = pad([doc.tokens for doc in docs + negatives])
    pairs = len(negatives)
    rows = np.c_[np.arange(2 * pairs).reshape(-1, 2), 2 * pairs + np.arange(pairs)].T
    masks = [pad_mask[side, :pad_mask[side].sum(axis=1).max()] for side in rows]  # a, b, negative

    def hinge_sum(params: dict[str, Tensor]) -> Tensor:
        unmasked = forward(ids, pad_mask, params, state.enc_config)
        sides = [gather_positions(unmasked, side[:, None], np.arange(mask.shape[1]))
                 for side, mask in zip(rows, masks)]
        return crossattn.triplet_loss(*sides, *masks)

    # Decide on the unscaled sum: a positive hinge could underflow once scaled.
    total = hinge_sum(_forward_only(state).params)
    if total.item() != 0.0:
        total = hinge_sum(state.params)
    return T.scale(total, 1.0 / pairs)


# ----------------------------------------------------------------- stage loops


def _run_stage(stage: int, groups: list[list[Document]], pool: PhrasePool,
               state: TrainState, progress: Optional[Callable[[dict], None]],
               aligned: Optional[EntityPairSet] = None) -> TrainState:
    """The step loop of both stages; resumes from the stage's saved counter.

    A step masks the documents of one batch of groups in the epoch's order
    and, when ``aligned`` is given, adds the weighted alignment loss over
    the same documents. ``progress`` gets each step's record, ``iter``
    counting both stages' steps from 1, and with ``eval_docs > 0`` each
    epoch's accuracies on the groups' first documents after its last step.
    """
    cfg = state.config
    counter = f"stage{stage}_iters_done"
    batches_per_epoch = math.ceil(len(groups) / cfg.batch_size)
    total = getattr(cfg, f"stage{stage}_epochs") * batches_per_epoch
    stacked = aligned is not None and cfg.cea_variant == "ot"  # one forward for both passes
    while getattr(state, counter) < total:
        done = getattr(state, counter)
        epoch = done // batches_per_epoch + 1
        order = _epoch_order(cfg.seed, stage, epoch, len(groups), cfg.shuffle)
        negatives = [aligned.content[e] for e in _epoch_negatives(aligned, cfg.seed, epoch)] \
            if aligned is not None and cfg.cea_variant == "attention" else []
        for b in range(done % batches_per_epoch, batches_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            state.scheduler.iteration += 1
            docs = [doc for i in idx for doc in groups[i]]
            hybrid_loss, mode, alpha, hidden = _hybrid_forward(state, docs, pool, stacked)
            l_hybrid = hybrid_loss.item()
            loss, l_cea = hybrid_loss, None
            if aligned is not None:
                cea = _alignment_loss(state, docs, [negatives[i] for i in idx if negatives],
                                      hidden)
                l_cea = cea.item()
                loss = hybrid_loss + T.scale(cea, cfg.cea_weight)
            for p in state.params.values():
                p.zero_grad()
            T.backward(loss)
            step = state.stage1_iters_done + state.stage2_iters_done + 1
            adam_step(state.params, state.adam, cfg.learning_rate, step)
            state.scheduler.record(mode, l_hybrid)
            if progress is not None:
                lw, lp = (l_hybrid, None) if mode == "word" else (None, l_hybrid)
                progress({"iter": step, "stage": stage, "mode": mode, "L_w": lw, "L_p": lp,
                          "L_cea": l_cea, "alpha": alpha})
            setattr(state, counter, getattr(state, counter) + 1)
        if cfg.eval_docs > 0 and progress is not None:
            word_acc, phrase_acc = _epoch_eval(state, [group[0] for group in groups], pool)
            progress({"epoch": epoch, "stage": stage, "word_acc": word_acc,
                      "phrase_acc": phrase_acc})
    return state


def _check_pool(pool: PhrasePool, state: TrainState) -> None:
    """Raise ValueError unless ``pool`` has ``state``'s phrases and phrase ids."""
    if pool.by_id() != state.phrases:
        raise ValueError("the pool's phrases differ from the run's, or have other phrase ids")


def run_stage1(docs: list[Document], pool: PhrasePool, state: TrainState,
               progress: Optional[Callable[[dict], None]] = None) -> TrainState:
    """Hybrid masked training over the corpus; resumes from saved counters.
    ``progress`` gets the records ``_run_stage`` describes."""
    _check_pool(pool, state)
    if not docs:
        raise ValueError("stage 1 requires a non-empty corpus")
    return _run_stage(1, [[doc] for doc in docs], pool, state, progress)


def check_stage2_inputs(pair_set: EntityPairSet, config: TrainConfig) -> None:
    """Raise ValueError if stage 2 cannot run on ``pair_set`` under ``config``,
    so a caller can check before stage 1 trains."""
    if len(pair_set) == 0:
        raise ValueError("no pair has content for both entities")
    if config.cea_variant == "attention" and config.cea_weight > 0 and len(pair_set.content) < 3:
        raise ValueError("the attention variant needs a third entity with content")


def run_stage2(pair_set: EntityPairSet, pool: PhrasePool, state: TrainState,
               progress: Optional[Callable[[dict], None]] = None) -> TrainState:
    """Joint objective over entity pairs: hybrid masking + weighted alignment.

    The masked pass covers both pair documents. For ``ot`` the same padded
    forward also encodes them unmasked, and the alignment term reads those
    rows: one encoder forward per step covers both passes. ``attention``
    runs a second, unmasked pass with the negatives, off the tape; only a
    step with an active hinge runs it again on the tape. One optimizer step per
    iteration on the summed loss. With cea_weight = 0 the alignment pass
    is skipped entirely, reproducing stage-1 dynamics on the pair corpus.
    reset_scheduler_for_stage2 restarts the scheduler once, before the
    first stage-2 step; a resumed run keeps the scheduler it saved.
    ``progress`` gets the records ``_run_stage`` describes.
    """
    cfg = state.config
    _check_pool(pool, state)
    check_stage2_inputs(pair_set, cfg)
    if cfg.reset_scheduler_for_stage2 and state.stage2_iters_done == 0:
        state.scheduler = _new_scheduler(cfg)
    groups = [[pair_set.content[a], pair_set.content[b]] for a, b in pair_set.pairs]
    return _run_stage(2, groups, pool, state, progress,
                      pair_set if cfg.cea_weight > 0 else None)


# ------------------------------------------------------------------- inference


def _forward_only(state: TrainState) -> TrainState:
    """``state`` with each weight as a leaf that needs no gradient, a view of
    the same arena: forwards through it record no backward closures."""
    return replace(state, params={k: Tensor(p.data) for k, p in state.params.items()})


def _doc_embeddings(state: TrainState, doc: Document) -> Tensor:
    """Forward-only unmasked contextual embeddings of one document, (len, dim)."""
    ids, pad_mask = pad([doc.tokens])
    hidden = forward(ids, pad_mask, _forward_only(state).params, state.enc_config)
    return gather_positions(hidden, 0, np.arange(len(doc)))


def align_pairs(state: TrainState, doc_pairs: list[tuple[Document, Document]],
                variant: CeaVariant, outer_iters: int, beta: float) -> list[np.ndarray]:
    """The (len_a, len_b) alignment matrix of each pair of non-empty documents,
    one forward per document: row-normalised IPOT plan or cross-attention. The
    settings obey the rules of cea_variant, ipot_outer_iters and ipot_beta."""
    _check_train_config(dict(cea_variant=variant, ipot_outer_iters=outer_iters, ipot_beta=beta))
    matrices = []
    for doc_a, doc_b in doc_pairs:
        emb_a, emb_b = _doc_embeddings(state, doc_a), _doc_embeddings(state, doc_b)
        if variant == "ot":
            cost = transport.cost_matrix(emb_a, emb_b).values.data
            plan = transport.ipot(cost, beta=beta, outer_iters=outer_iters)
            matrices.append(transport.alignment_matrix(plan))
        else:
            matrices.append(crossattn.cross_attention(emb_a, emb_b).alpha.data)
    return matrices


def _predict_masked(state_params, enc_config, batch: MaskedBatch) -> list[list[int]]:
    """Arg-max token ids at each example's masked positions, read through
    ``masked_token_logits`` as the training loss reads them."""
    read = forward(batch.input_ids, batch.pad_mask, state_params, enc_config, *batch.masked_at)
    ids = iter(masked_token_logits(batch, read, state_params)[0].data.argmax(1).tolist())
    return [[next(ids) for _ in positions] for positions in batch.masked_positions]


def eval_reconstruction(state: TrainState, docs: list[Document], pool: PhrasePool,
                        span_lengths=(1, 2, 3, 4), seed: int = 0,
                        max_docs: Optional[int] = None,
                        eval_batch: int = 32) -> list[dict]:
    """Masked-reconstruction accuracy per span length.

    Length 1 masks one random word per document (top-1 token accuracy);
    lengths >= 2 mask every detected pool phrase of exactly that length
    (exact match: all tokens correct). Masking uses the literal MASK
    token. Lengths with no examples report accuracy None.
    """
    for name, value in (("seed", seed), ("max_docs", max_docs)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if eval_batch < 1:
        raise ValueError(f"eval_batch must be >= 1, got {eval_batch}")
    rng = np.random.default_rng([seed, 0xE7A1])
    docs = docs[:max_docs]
    examples: list[MaskedExample] = []
    for doc in docs:
        spans = [[int(rng.integers(len(doc)))]] if 1 in span_lengths and len(doc) else []
        spans += [list(range(m.start, m.end)) for m in detect(doc, pool)
                  if m.end - m.start in span_lengths]
        examples += [MaskedExample([MASK_ID if i in span else t for i, t in enumerate(doc.tokens)],
                                   list(doc.tokens), span) for span in spans]
    params = _forward_only(state).params
    correct = []
    for start in range(0, len(examples), eval_batch):
        chunk = examples[start:start + eval_batch]
        preds = _predict_masked(params, state.enc_config, collate(chunk))
        correct += [pred == [ex.gold_ids[p] for p in ex.masked_positions]
                    for ex, pred in zip(chunk, preds)]
    rows = []
    for length in span_lengths:
        got = [ok for ex, ok in zip(examples, correct) if len(ex.masked_positions) == length]
        rows.append({"span_len": length, "n_examples": len(got),
                     "accuracy": (sum(got) / len(got)) if got else None})
    return rows


def _epoch_eval(state: TrainState, docs: list[Document], pool: PhrasePool
                ) -> tuple[Optional[float], Optional[float]]:
    """Word accuracy and the example-weighted accuracy over phrase lengths 2-4."""
    rows = eval_reconstruction(state, docs, pool, seed=state.config.seed,
                               max_docs=state.config.eval_docs)
    n = sum(r["n_examples"] for r in rows[1:])
    hits = sum(r["accuracy"] * r["n_examples"] for r in rows[1:] if r["n_examples"])
    return rows[0]["accuracy"], (hits / n) if n else None


# ---------------------------------------------------------------- checkpointing


def save_checkpoint(path, state: TrainState) -> None:
    """Single-file container: the three arenas bit-exact in npz, metadata as JSON.

    Written to a temporary file beside ``path``, then renamed over it, so
    a failed save leaves the previous checkpoint in place.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "train_config": asdict(state.config),
        "shape": {k: v for k, v in asdict(state.enc_config).items()
                  if k not in DERIVED_ENCODER_KEYS},
        "scheduler": {k: v for k, v in state.scheduler.to_dict().items()
                      if k not in SCHEDULER_KEYS},
        "mask_rng": state.mask_rng.bit_generator.state,
        "stage1_iters_done": state.stage1_iters_done,
        "stage2_iters_done": state.stage2_iters_done,
        "vocab": state.vocab.id_to_token,
        "phrases": state.phrases,
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:  # a file object keeps the caller's exact filename
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                     arena=state.adam.arena, adam_m=state.adam.arena_m,
                     adam_v=state.adam.arena_v)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> TrainState:
    """Inverse of save_checkpoint: reads the file and builds the run as a fresh run is
    built (see ``_assemble``), deriving the encoder config and scheduler settings by the
    same rules; the arenas are laid out by that config. A file unreadable, incomplete, of
    another version or at odds with itself raises ValueError naming ``path``."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:  # np.load(path) leaks on a bad zip
            def array(key: str) -> np.ndarray:
                if key not in data.files:
                    raise ValueError(f"no {key!r} array")
                return data[key]

            meta = json.loads(bytes(array("meta")).decode("utf-8"))
            if type(meta["version"]) is not int:
                raise ValueError(f"version must be an int, got {meta['version']!r}")
            if meta["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"version {meta['version']!r} checkpoints are no longer "
                                 f"read; this release reads version {CHECKPOINT_VERSION}")
            # a key left to its dataclass default would load a run the file never held
            for part, names in (("train_config", {f.name for f in fields(TrainConfig)}),
                                ("shape", {f.name for f in fields(EncoderConfig)}
                                 - set(DERIVED_ENCODER_KEYS))):
                if missing := sorted(names - meta[part].keys()):
                    raise ValueError(f"{part} has no {', '.join(map(repr, missing))}")
            vocab = Vocab.from_tokens(meta["vocab"])
            saved = {key: array(key) for key in ("arena", "adam_m", "adam_v")}
        return _assemble(TrainConfig(**meta["train_config"]), vocab, meta["phrases"],
                         meta["shape"], saved | {key: meta[key] for key in (
                             "scheduler", "mask_rng", "stage1_iters_done", "stage2_iters_done")})
    except Exception as exc:  # zip, npy-header, JSON and metadata faults alike
        detail = f"no {exc} in meta" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: not a readable domainlm checkpoint: {detail}") from exc
