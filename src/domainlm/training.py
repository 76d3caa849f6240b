"""Two-stage pre-training: hybrid masking alone, then jointly with alignment.

Stage 1 iterates the corpus with the adaptive word/phrase objective.
Stage 2 iterates associated entity pairs: the same hybrid objective on
the pair documents plus a weighted alignment loss (transport-based by
default, cross-attention triplet as the baseline variant) computed on one
padded unmasked pass per step that shares parameters with the masked pass.

Determinism: parameter init, masking, data order and negative sampling
draw from separate streams derived from the config seed. Data order and
negatives are pure functions of (seed, stage, epoch), so a checkpoint
only needs the sequential masking stream plus counters to resume
bit-exactly.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Literal, Optional, get_args

import numpy as np

from . import crossattn, transport
from . import tensor as T
from .corpus import Document, EntityPairSet, MASK_ID, Vocab
from .encoder import EncoderConfig, forward, init_params, token_logits
from .hybrid import (SchedulerState, phrase_loss, scheduled_mode, select_mode,
                     update_alpha, word_loss)
from .masking import MaskedBatch, MaskedExample, collate, mask_phrases, mask_words, pad
from .phrases import PhrasePool, detect
from .tensor import Tensor

CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NanGradientError(RuntimeError):
    """A parameter gradient went non-finite; carries the parameter name."""

    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient in parameter {param_name!r}")
        self.param_name = param_name


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

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        minimum = {"stage1_epochs": 0, "stage2_epochs": 0, "batch_size": 1,
                   "learning_rate": 0, "cea_weight": 0, "bootstrap_every": 1,
                   "ipot_outer_iters": 1, "warm_iters": 0, "eval_docs": 0}
        for key, low in minimum.items():
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        if self.ipot_beta <= 0:
            raise ValueError("ipot_beta must be > 0")
        if self.cea_variant not in get_args(CeaVariant):
            raise ValueError(f"unknown cea_variant {self.cea_variant!r}")
        for key in ("warm_alpha", "ema_decay", "force_alpha"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1]")


@dataclass
class TrainReport:
    """Append-only run log: one record per iteration plus per-epoch evals."""

    records: list[dict] = field(default_factory=list)
    epoch_records: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    def add_iteration(self, iteration: int, stage: int, mode: str,
                      l_w: Optional[float], l_p: Optional[float],
                      l_cea: Optional[float], alpha: float) -> dict:
        if self.records and iteration <= self.records[-1]["iter"]:
            raise ValueError("iteration records must be monotone")
        rec = {"iter": iteration, "stage": stage, "mode": mode,
               "L_w": l_w, "L_p": l_p, "L_cea": l_cea, "alpha": alpha}
        self.records.append(rec)
        return rec

    def add_epoch(self, stage: int, epoch: int, word_acc: Optional[float],
                  phrase_acc: Optional[float]) -> None:
        self.epoch_records.append({"epoch": epoch, "stage": stage,
                                   "word_acc": word_acc, "phrase_acc": phrase_acc})

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records + self.epoch_records:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"wall_time": self.wall_time}) + "\n")


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One reshaped view of ``flat`` per array of ``like``, laid end to end."""
    out, start = {}, 0
    for name, a in like.items():
        out[name] = flat[start:start + a.size].reshape(a.shape)
        start += a.size
    return out


@dataclass
class AdamState:
    """Adam's moments and step count over a flat arena.

    The parameters, ``m`` and ``v`` each live in one float64 buffer
    (``arena``, ``arena_m``, ``arena_v``) in parameter order. Every
    parameter's ``data`` and every ``m[name]``/``v[name]`` is a reshaped
    view into its buffer, so parameters are updated in place and their
    ``data`` must never be rebound.
    """

    arena: np.ndarray
    arena_m: np.ndarray
    arena_v: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def fresh(cls, params: dict[str, Tensor]) -> "AdamState":
        """Zero moments; moves ``params`` into the arena, rebinding each
        parameter's ``data`` to its view."""
        data = {k: p.data for k, p in params.items()}
        size = sum(a.size for a in data.values())
        arena, arena_m, arena_v = np.empty(size), np.zeros(size), np.zeros(size)
        for k, view in _views(arena, data).items():
            view[...] = data[k]
            params[k].data = view
        return cls(arena, arena_m, arena_v, _views(arena_m, data), _views(arena_v, data))


def adam_step(params: dict[str, Tensor], adam: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the arena ``adam`` was built on from
    ``params``. A parameter without a gradient keeps its data and moments;
    a non-finite gradient aborts the step before anything changes."""
    grad = np.empty_like(adam.arena)
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
    adam.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** adam.t
    bc2 = 1.0 - ADAM_BETA2 ** adam.t
    for run in runs:
        g, m, v = grad[run], adam.arena_m[run], adam.arena_v[run]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        adam.arena[run] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
    # phrase-pool token ids in phrase-id order; None from checkpoints that predate it
    phrases: Optional[list[tuple[int, ...]]]
    report: TrainReport = field(default_factory=TrainReport)
    stage1_iters_done: int = 0
    stage2_iters_done: int = 0


# TrainConfig fields that parameterise the scheduler, in SchedulerState order.
SCHEDULER_KEYS = tuple(f.name for f in fields(SchedulerState)
                       if f.name in TrainConfig.__dataclass_fields__)


def _new_scheduler(config: TrainConfig) -> SchedulerState:
    """A fresh scheduler with the config's hyperparameters."""
    return SchedulerState(**{k: getattr(config, k) for k in SCHEDULER_KEYS})


def init_train_state(vocab: Vocab, pool: PhrasePool, config: TrainConfig,
                     enc_config: Optional[EncoderConfig] = None) -> TrainState:
    config.validate()
    if enc_config is None:
        enc_config = EncoderConfig(vocab_size=len(vocab),
                                   phrase_vocab_size=pool.phrase_vocab_size,
                                   max_seq_len=config.max_seq_len)
    params = init_params(enc_config, np.random.default_rng([config.seed, 0x1A17]))
    return TrainState(
        config=config,
        enc_config=enc_config,
        params=params,
        adam=AdamState.fresh(params),
        scheduler=_new_scheduler(config),
        mask_rng=np.random.default_rng([config.seed, 0x3A5C]),
        vocab=vocab,
        phrases=pool.by_id(),
    )


# ------------------------------------------------------------------ data order


def _epoch_order(seed: int, stage: int, epoch: int, n: int, shuffle: bool) -> np.ndarray:
    if not shuffle:
        return np.arange(n)
    return np.random.default_rng([seed, stage, epoch, 0xDA7A]).permutation(n)


def _epoch_negatives(pair_set: EntityPairSet, seed: int, epoch: int) -> list[str]:
    """One negative entity per pair, resampled per epoch, never associated."""
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
            candidates = [e for e in all_ids if e != a]
        negatives.append(candidates[int(rng.integers(len(candidates)))])
    return negatives


# --------------------------------------------------------------- one iteration


def _hybrid_forward(state: TrainState, docs: list[Document], pool: PhrasePool
                    ) -> tuple[Tensor, str, float]:
    """Select a mode, mask, forward and compute the selected mode's loss."""
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
    hidden = forward(batch.input_ids, batch.pad_mask, state.params, state.enc_config)
    loss = (word_loss if mode == "word" else phrase_loss)(batch, hidden, state.params)
    return loss, mode, alpha


def _embed_docs(state: TrainState, docs: list[Document]) -> list[Tensor]:
    """Unmasked contextual embeddings of non-empty documents from one padded
    forward: a (len_i, dim) tensor per document, in input order."""
    ids, pad_mask = pad([doc.tokens for doc in docs])
    hidden = forward(ids, pad_mask, state.params, state.enc_config)
    flat = T.reshape(hidden, (ids.size, state.enc_config.dim))
    return [T.embedding(flat, i * ids.shape[1] + np.arange(len(doc)))
            for i, doc in enumerate(docs)]


def _doc_embeddings(state: TrainState, doc: Document) -> Tensor:
    """Unmasked contextual embeddings of one document as a (len, dim) tensor."""
    return _embed_docs(state, [doc])[0]


def _alignment_loss(state: TrainState, pair_set: EntityPairSet, pair_idx: np.ndarray,
                    negatives: Optional[list[str]]) -> Tensor:
    """Mean alignment loss over a batch of pairs; every document of the batch
    (a, b, and the negative for ``attention``) shares one unmasked pass."""
    cfg = state.config
    entities = [e for j in pair_idx for e in pair_set.pairs[j]]
    if cfg.cea_variant == "attention":
        entities += [negatives[j] for j in pair_idx]
    emb = _embed_docs(state, [pair_set.content[e] for e in entities])
    parts = []
    for k in range(len(pair_idx)):
        emb_a, emb_b = emb[2 * k], emb[2 * k + 1]
        if cfg.cea_variant == "ot":
            parts.append(transport.cea_loss(emb_a, emb_b, beta=cfg.ipot_beta,
                                            outer_iters=cfg.ipot_outer_iters))
        else:
            parts.append(crossattn.triplet_loss(emb_a, emb_b, emb[2 * len(pair_idx) + k]))
    return T.scale(sum(parts[1:], parts[0]), 1.0 / len(parts))


# ----------------------------------------------------------------- stage loops


def _run_stage(stage: int, groups: list[list[Document]], pool: PhrasePool,
               state: TrainState, progress: Optional[Callable[[dict], None]],
               aligned: Optional[EntityPairSet] = None) -> TrainState:
    """The step loop of both stages; resumes from the stage's saved counter.

    A step masks the documents of one batch of groups in the epoch's order
    and, when ``aligned`` is given, adds the weighted alignment loss over
    the same pair indices. Epoch evals read each group's first document.
    """
    cfg = state.config
    started = time.perf_counter()
    counter = f"stage{stage}_iters_done"
    batches_per_epoch = math.ceil(len(groups) / cfg.batch_size)
    total = getattr(cfg, f"stage{stage}_epochs") * batches_per_epoch
    while getattr(state, counter) < total:
        done = getattr(state, counter)
        epoch = done // batches_per_epoch + 1
        order = _epoch_order(cfg.seed, stage, epoch, len(groups), cfg.shuffle)
        negatives = _epoch_negatives(aligned, cfg.seed, epoch) \
            if aligned is not None and cfg.cea_variant == "attention" else None
        for b in range(done % batches_per_epoch, batches_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            state.scheduler.iteration += 1
            hybrid_loss, mode, alpha = _hybrid_forward(
                state, [doc for i in idx for doc in groups[i]], pool)
            l_hybrid = hybrid_loss.item()
            loss, l_cea = hybrid_loss, None
            if aligned is not None:
                cea = _alignment_loss(state, aligned, idx, negatives)
                l_cea = cea.item()
                loss = hybrid_loss + T.scale(cea, cfg.cea_weight)
            for p in state.params.values():
                p.zero_grad()
            T.backward(loss)
            adam_step(state.params, state.adam, cfg.learning_rate)
            state.scheduler.record(mode, l_hybrid)
            step = state.stage1_iters_done + state.stage2_iters_done + 1
            lw, lp = (l_hybrid, None) if mode == "word" else (None, l_hybrid)
            rec = state.report.add_iteration(step, stage, mode, lw, lp, l_cea, alpha)
            if progress is not None:
                progress(rec)
            setattr(state, counter, getattr(state, counter) + 1)
        if cfg.eval_docs > 0:
            first_docs = [group[0] for group in groups]
            state.report.add_epoch(stage, epoch, *_epoch_eval(state, first_docs, pool))
    state.report.wall_time += time.perf_counter() - started
    return state


def run_stage1(docs: list[Document], pool: PhrasePool, state: TrainState,
               progress: Optional[Callable[[dict], None]] = None) -> TrainState:
    """Hybrid masked training over the corpus; resumes from saved counters."""
    if not docs:
        raise ValueError("stage 1 requires a non-empty corpus")
    return _run_stage(1, [[doc] for doc in docs], pool, state, progress)


def run_stage2(pair_set: EntityPairSet, pool: PhrasePool, state: TrainState,
               progress: Optional[Callable[[dict], None]] = None) -> TrainState:
    """Joint objective over entity pairs: hybrid masking + weighted alignment.

    The masked pass covers both pair documents; the alignment term runs on
    one padded unmasked pass of the same parameters. One optimizer step per
    iteration on the summed loss. With cea_weight = 0 the alignment pass
    is skipped entirely, reproducing stage-1 dynamics on the pair corpus.
    reset_scheduler_for_stage2 restarts the scheduler once, before the
    first stage-2 step; a resumed run keeps the scheduler it saved.
    """
    cfg = state.config
    if len(pair_set) == 0:
        raise ValueError("stage 2 requires a non-empty pair set")
    if cfg.reset_scheduler_for_stage2 and state.stage2_iters_done == 0:
        state.scheduler = _new_scheduler(cfg)
    groups = [[pair_set.content[a], pair_set.content[b]] for a, b in pair_set.pairs]
    return _run_stage(2, groups, pool, state, progress,
                      pair_set if cfg.cea_weight > 0 else None)


# ------------------------------------------------------------------ evaluation


def _predict_masked(state_params, enc_config, batch: MaskedBatch) -> list[list[int]]:
    hidden = forward(batch.input_ids, batch.pad_mask, state_params, enc_config)
    logits = token_logits(hidden, state_params).data
    out = []
    for row, positions in enumerate(batch.masked_positions):
        out.append([int(np.argmax(logits[row, pos])) for pos in positions])
    return out


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
    rng = np.random.default_rng([seed, 0xE7A1])
    if max_docs is not None:
        if max_docs < 0:
            raise ValueError(f"max_docs must be >= 0, got {max_docs}")
        docs = docs[:max_docs]
    counts = {length: 0 for length in span_lengths}
    hits = {length: 0 for length in span_lengths}

    pending: list[tuple[int, list[int], Document]] = []
    for doc in docs:
        if len(doc) == 0:
            continue
        if 1 in counts:
            pos = int(rng.integers(len(doc)))
            pending.append((1, [pos], doc))
        for match in detect(doc, pool):
            length = match.end - match.start
            if length in counts and length >= 2:
                pending.append((length, list(range(match.start, match.end)), doc))

    for start in range(0, len(pending), eval_batch):
        chunk = pending[start:start + eval_batch]
        examples = []
        for _, positions, doc in chunk:
            ids = list(doc.tokens)
            for p in positions:
                ids[p] = MASK_ID
            examples.append(MaskedExample(input_ids=ids, gold_ids=list(doc.tokens),
                                          masked_positions=positions))
        batch = collate(examples)
        preds = _predict_masked(state.params, state.enc_config, batch)
        for (length, positions, doc), pred in zip(chunk, preds):
            counts[length] += 1
            gold = [doc.tokens[p] for p in positions]
            if pred == gold:
                hits[length] += 1

    rows = []
    for length in span_lengths:
        n = counts[length]
        rows.append({"span_len": length, "n_examples": n,
                     "accuracy": (hits[length] / n) if n else None})
    return rows


def _epoch_eval(state: TrainState, docs: list[Document], pool: PhrasePool
                ) -> tuple[Optional[float], Optional[float]]:
    """Word accuracy and the example-weighted accuracy over phrase lengths 2-4."""
    rows = eval_reconstruction(state, docs, pool, seed=state.config.seed,
                               max_docs=state.config.eval_docs)
    multi = [r for r in rows[1:] if r["n_examples"] > 0]
    n = sum(r["n_examples"] for r in multi)
    phrase_acc = (sum(r["accuracy"] * r["n_examples"] for r in multi) / n) if n else None
    return rows[0]["accuracy"], phrase_acc


# ---------------------------------------------------------------- checkpointing


def save_checkpoint(path, state: TrainState) -> None:
    """Single-file container: arrays bit-exact in npz, metadata as JSON.

    Written to a temporary file beside ``path``, then renamed over it, so
    a failed save leaves the previous checkpoint in place.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "enc_config": asdict(state.enc_config),
        "train_config": asdict(state.config),
        "scheduler": state.scheduler.to_dict(),
        "mask_rng": state.mask_rng.bit_generator.state,
        "adam_t": state.adam.t,
        "stage1_iters_done": state.stage1_iters_done,
        "stage2_iters_done": state.stage2_iters_done,
        "vocab": state.vocab.id_to_token,
        "phrases": state.phrases,
        "param_order": list(state.params.keys()),
    }
    arrays: dict[str, np.ndarray] = {}
    for name, p in state.params.items():
        arrays[f"param/{name}"] = p.data
        arrays[f"adam_m/{name}"] = state.adam.m[name]
        arrays[f"adam_v/{name}"] = state.adam.v[name]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:  # a file object keeps the caller's exact filename
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> TrainState:
    """Inverse of save_checkpoint; a file that cannot be read as one (missing,
    truncated, corrupt, incomplete metadata) raises ValueError naming ``path``."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:  # np.load(path) leaks on a bad zip
            def array(key: str) -> np.ndarray:
                if key not in data.files:
                    raise ValueError(f"no {key!r} array")
                return data[key]

            meta = json.loads(bytes(array("meta")).decode("utf-8"))
            if meta["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['version']}")
            order = meta["param_order"]
            params = {name: Tensor(array(f"param/{name}"), requires_grad=True) for name in order}
            adam = AdamState.fresh(params)
            adam.t = meta["adam_t"]
            for name in order:
                adam.m[name][...] = array(f"adam_m/{name}")
                adam.v[name][...] = array(f"adam_v/{name}")
        meta["train_config"].pop("ipot_inner_k", None)  # removed knob; older v1 files carry it
        mask_rng = np.random.default_rng()
        mask_rng.bit_generator.state = meta["mask_rng"]
        return TrainState(
            config=TrainConfig(**meta["train_config"]),
            enc_config=EncoderConfig(**meta["enc_config"]),
            params=params,
            adam=adam,
            scheduler=SchedulerState.from_dict(meta["scheduler"]),
            mask_rng=mask_rng,
            vocab=Vocab({tok: i for i, tok in enumerate(meta["vocab"])}, meta["vocab"]),
            phrases=[tuple(p) for p in meta["phrases"]] if "phrases" in meta else None,
            stage1_iters_done=meta["stage1_iters_done"],
            stage2_iters_done=meta["stage2_iters_done"],
        )
    except Exception as exc:  # zip, npy-header, JSON and metadata faults alike
        detail = f"no {exc} in meta" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: not a readable domainlm checkpoint: {detail}") from exc
