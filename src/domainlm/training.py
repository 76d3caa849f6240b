"""Two-stage pre-training: hybrid masking alone, then jointly with alignment.

Stage 1 iterates the corpus with the adaptive word/phrase objective.
Stage 2 iterates associated entity pairs: the same hybrid objective on
the pair documents plus a weighted alignment loss (transport-based by
default, cross-attention triplet as the baseline variant) computed on
unmasked second passes that share parameters with the masked pass.

Determinism: parameter init, masking, data order and negative sampling
draw from separate streams derived from the config seed. Data order and
negatives are pure functions of (seed, stage, epoch), so a checkpoint
only needs the sequential masking stream plus counters to resume
bit-exactly.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Literal, Optional, get_args

import numpy as np

from . import crossattn, transport
from . import tensor as T
from .corpus import Document, EntityPairSet, MASK_ID, Vocab
from .encoder import EncoderConfig, forward, init_params, token_logits
from .hybrid import (PhraseLoss, SchedulerState, phrase_loss, scheduled_mode,
                     select_mode, update_alpha, word_loss)
from .masking import MaskedBatch, MaskedExample, collate, mask_phrases, mask_words
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
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.cea_weight < 0:
            raise ValueError("cea_weight must be >= 0")
        if self.cea_variant not in get_args(CeaVariant):
            raise ValueError(f"unknown cea_variant {self.cea_variant!r}")
        if self.force_alpha is not None and not 0.0 <= self.force_alpha <= 1.0:
            raise ValueError("force_alpha must lie in [0, 1]")


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
                  phrase_acc: Optional[float]) -> dict:
        rec = {"epoch": epoch, "stage": stage,
               "word_acc": word_acc, "phrase_acc": phrase_acc}
        self.epoch_records.append(rec)
        return rec

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            for rec in self.epoch_records:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"wall_time": self.wall_time}) + "\n")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def fresh(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def adam_step(params: dict[str, Tensor], adam: AdamState, lr: float) -> None:
    """One bias-corrected Adam update in parameter order; a non-finite gradient
    aborts it before anything changes."""
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NanGradientError(name)
    adam.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** adam.t
    bc2 = 1.0 - ADAM_BETA2 ** adam.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = adam.m[name]
        v = adam.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
                 ) -> tuple[Tensor, MaskedBatch, str, float, Optional[float], Optional[float]]:
    """Select a mode, mask, forward and compute the selected mode's loss."""
    cfg = state.config
    sched = state.scheduler
    if cfg.force_alpha is not None:
        sched.alpha = cfg.force_alpha
        alpha = cfg.force_alpha
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
    if mode == "word":
        loss = word_loss(batch, hidden, state.params)
        return loss, batch, mode, alpha, loss.item(), None
    out: PhraseLoss = phrase_loss(batch, hidden, state.params)
    return out.total, batch, mode, alpha, None, out.total.item()


def _doc_embeddings(state: TrainState, doc: Document) -> Tensor:
    """Unmasked contextual embeddings of one document as a (len, dim) tensor."""
    ids = np.asarray(doc.tokens, dtype=np.int64)[None, :]
    hidden = forward(ids, np.ones_like(ids, dtype=bool), state.params, state.enc_config)
    return T.reshape(hidden, (len(doc.tokens), state.enc_config.dim))


def _cea_pair_loss(state: TrainState, doc_a: Document, doc_b: Document,
                   neg_doc: Optional[Document]) -> Tensor:
    cfg = state.config
    emb_a = _doc_embeddings(state, doc_a)
    emb_b = _doc_embeddings(state, doc_b)
    if cfg.cea_variant == "ot":
        return transport.cea_loss(emb_a, emb_b, beta=cfg.ipot_beta,
                                  outer_iters=cfg.ipot_outer_iters)
    emb_neg = _doc_embeddings(state, neg_doc)
    return crossattn.triplet_loss(emb_a, emb_b, emb_neg)


def _step(state: TrainState, loss: Tensor) -> None:
    for p in state.params.values():
        p.zero_grad()
    T.backward(loss)
    adam_step(state.params, state.adam, state.config.learning_rate)


# ----------------------------------------------------------------- stage loops


def run_stage1(docs: list[Document], pool: PhrasePool, state: TrainState,
               progress: Optional[Callable[[dict], None]] = None) -> TrainState:
    """Hybrid masked training over the corpus; resumes from saved counters."""
    cfg = state.config
    if not docs:
        raise ValueError("stage 1 requires a non-empty corpus")
    started = time.perf_counter()
    batches_per_epoch = math.ceil(len(docs) / cfg.batch_size)
    total = cfg.stage1_epochs * batches_per_epoch
    while state.stage1_iters_done < total:
        epoch = state.stage1_iters_done // batches_per_epoch + 1
        offset = state.stage1_iters_done % batches_per_epoch
        order = _epoch_order(cfg.seed, 1, epoch, len(docs), cfg.shuffle)
        for b in range(offset, batches_per_epoch):
            chunk = [docs[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            state.scheduler.iteration += 1
            loss, _, mode, alpha, lw, lp = _hybrid_forward(state, chunk, pool)
            _step(state, loss)
            state.scheduler.record(mode, loss.item())
            rec = state.report.add_iteration(state.scheduler.iteration, 1, mode,
                                             lw, lp, None, alpha)
            if progress is not None:
                progress(rec)
            state.stage1_iters_done += 1
        if cfg.eval_docs > 0:
            word_acc, phrase_acc = _epoch_eval(state, docs, pool)
            state.report.add_epoch(1, epoch, word_acc, phrase_acc)
    state.report.wall_time += time.perf_counter() - started
    return state


def run_stage2(pair_set: EntityPairSet, pool: PhrasePool, state: TrainState,
               progress: Optional[Callable[[dict], None]] = None) -> TrainState:
    """Joint objective over entity pairs: hybrid masking + weighted alignment.

    The masked pass covers both pair documents; the alignment term runs on
    unmasked second passes of the same parameters. One optimizer step per
    iteration on the summed loss. With cea_weight = 0 the alignment pass
    is skipped entirely, reproducing stage-1 dynamics on the pair corpus.
    """
    cfg = state.config
    if len(pair_set) == 0:
        raise ValueError("stage 2 requires a non-empty pair set")
    started = time.perf_counter()
    if cfg.reset_scheduler_for_stage2:
        state.scheduler = _new_scheduler(cfg)
    batches_per_epoch = math.ceil(len(pair_set) / cfg.batch_size)
    total = cfg.stage2_epochs * batches_per_epoch
    attention = cfg.cea_variant == "attention"
    while state.stage2_iters_done < total:
        epoch = state.stage2_iters_done // batches_per_epoch + 1
        offset = state.stage2_iters_done % batches_per_epoch
        order = _epoch_order(cfg.seed, 2, epoch, len(pair_set), cfg.shuffle)
        negatives = _epoch_negatives(pair_set, cfg.seed, epoch) \
            if (attention and cfg.cea_weight > 0) else None
        for b in range(offset, batches_per_epoch):
            pair_idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            pairs = [pair_set.pairs[i] for i in pair_idx]
            docs: list[Document] = []
            for a, bb in pairs:
                docs.append(pair_set.content[a])
                docs.append(pair_set.content[bb])
            state.scheduler.iteration += 1
            hybrid_loss, _, mode, alpha, lw, lp = _hybrid_forward(state, docs, pool)
            if cfg.cea_weight > 0:
                parts = []
                for j, (a, bb) in zip(pair_idx, pairs):
                    neg_doc = pair_set.content[negatives[j]] if attention else None
                    parts.append(_cea_pair_loss(state, pair_set.content[a],
                                                pair_set.content[bb], neg_doc))
                cea_total = parts[0]
                for part in parts[1:]:
                    cea_total = cea_total + part
                cea_total = T.scale(cea_total, 1.0 / len(parts))
                l_cea = cea_total.item()
                loss = hybrid_loss + T.scale(cea_total, cfg.cea_weight)
            else:
                l_cea = None
                loss = hybrid_loss
            _step(state, loss)
            state.scheduler.record(mode, hybrid_loss.item())
            rec = state.report.add_iteration(state.scheduler.iteration, 2, mode,
                                             lw, lp, l_cea, alpha)
            if progress is not None:
                progress(rec)
            state.stage2_iters_done += 1
        if cfg.eval_docs > 0:
            docs_all = [pair_set.content[a] for a, _ in pair_set.pairs]
            word_acc, phrase_acc = _epoch_eval(state, docs_all, pool)
            state.report.add_epoch(2, epoch, word_acc, phrase_acc)
    state.report.wall_time += time.perf_counter() - started
    return state


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
        if pool.entries:
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
    rows = eval_reconstruction(state, docs, pool, span_lengths=(1, 2, 3, 4),
                               seed=state.config.seed,
                               max_docs=state.config.eval_docs)
    word_acc = rows[0]["accuracy"]
    multi = [r for r in rows[1:] if r["n_examples"] > 0]
    n = sum(r["n_examples"] for r in multi)
    phrase_acc = (sum(r["accuracy"] * r["n_examples"] for r in multi) / n) if n else None
    return word_acc, phrase_acc


# ---------------------------------------------------------------- checkpointing


def save_checkpoint(path, state: TrainState) -> None:
    """Single-file container: arrays bit-exact in npz, metadata as JSON."""
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
        "param_order": list(state.params.keys()),
    }
    arrays: dict[str, np.ndarray] = {}
    for name, p in state.params.items():
        arrays[f"param/{name}"] = p.data
        arrays[f"adam_m/{name}"] = state.adam.m[name]
        arrays[f"adam_v/{name}"] = state.adam.v[name]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:  # keep the caller's exact filename
        np.savez(fh, **arrays)


def load_checkpoint(path) -> TrainState:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        params: dict[str, Tensor] = {}
        adam_m: dict[str, np.ndarray] = {}
        adam_v: dict[str, np.ndarray] = {}
        for key in data.files:
            if key.startswith("param/"):
                name = key[len("param/"):]
                params[name] = Tensor(data[key].copy(), requires_grad=True)
                adam_m[name] = data[f"adam_m/{name}"].copy()
                adam_v[name] = data[f"adam_v/{name}"].copy()
    meta["train_config"].pop("ipot_inner_k", None)  # removed knob; older v1 files carry it
    config = TrainConfig(**meta["train_config"])
    enc_config = EncoderConfig(**meta["enc_config"])
    # preserve the deterministic parameter order used at init
    ordered = {name: params[name] for name in meta["param_order"]}
    mask_rng = np.random.default_rng()
    mask_rng.bit_generator.state = meta["mask_rng"]
    id_to_token = list(meta["vocab"])
    state = TrainState(
        config=config,
        enc_config=enc_config,
        params=ordered,
        adam=AdamState(m={n: adam_m[n] for n in ordered},
                       v={n: adam_v[n] for n in ordered},
                       t=meta["adam_t"]),
        scheduler=SchedulerState.from_dict(meta["scheduler"]),
        mask_rng=mask_rng,
        vocab=Vocab({tok: i for i, tok in enumerate(id_to_token)}, id_to_token),
        stage1_iters_done=meta["stage1_iters_done"],
        stage2_iters_done=meta["stage2_iters_done"],
    )
    return state
