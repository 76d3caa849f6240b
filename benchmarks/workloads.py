"""The four benchmark workloads: seeded set-up, one unit of fixed work, checks.

Every workload is a closed loop with one caller: each step starts when the
previous one has returned. A *plan* is the fixed unit of work a workload
repeats until its time is up:

- pretrain_phrase: a fresh model trained by ``run_stage1`` for a fixed
  number of epochs on the phrase world;
- pretrain_pairs_ot / pretrain_pairs_attention: a fresh model trained by
  ``run_stage2`` for a fixed number of epochs on the pair world;
- infer: ``eval_reconstruction`` over the phrase world, then the CLI align
  path over every pair, on a checkpoint reloaded during set-up.

Because a plan always starts from the same state, its losses are a pure
function of the seed, and every repeat must reproduce them bit for bit.

Right after every step the plan times a fixed yardstick (``yardstick_ms``)
that runs no library code. Its time tracks how fast the shared core runs at
that moment, so a step's time divided by it reads the same under a busy and
a quiet neighbour, while a change to domainlm moves only the step.
"""
from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from domainlm import corpus as C
from domainlm import hybrid as H
from domainlm import masking as M
from domainlm import phrases as P
from domainlm import training as TR
from domainlm import transport as OT
from domainlm.encoder import forward
from synthetic import build_pair_world, build_phrase_world

LEARNING_RATE = 3e-3
MAX_SEQ_LEN = 32
IPOT_BETA = 0.5
# Phrase-world sentences are 7 words, or 7 + L with one pool phrase of length L.
BASE_SENTENCE_WORDS = 7
SPAN_LENGTHS = (1, 2, 3, 4)
MARGIN_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Input and plan sizes; the benchmark's own test runs a smoke-size copy."""

    n_sentences: int = 2000
    n_pairs: int = 60
    stage1_batch: int = 16
    stage2_batch: int = 8
    stage1_epochs: int = 2
    stage2_epochs: int = 4
    ipot_outer_iters: int = 50      # training solves (TrainConfig default)
    align_outer_iters: int = 2000   # CLI `align --outer-iters` default
    eval_batch: int = 32
    quality_docs: int = 512         # docs scored for the infer quality loss
    setup_reps: int = 11


FULL = Sizes()
SMOKE = Sizes(n_sentences=160, n_pairs=12, stage1_epochs=1, stage2_epochs=1,
              align_outer_iters=50, quality_docs=64, setup_reps=1)


@dataclass
class Outcome:
    """What the timed loop measured and what its checks found."""

    plan_ms: list[list[float]] = field(default_factory=list)  # per plan, each step's ms
    yard_ms: list[list[float]] = field(default_factory=list)  # the yardstick after each
    plans: int = 0
    attempted: int = 0
    failed: int = 0
    final_loss: Optional[float] = None
    errors: list[str] = field(default_factory=list)

    def fail(self, detail: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(detail)


@dataclass
class Context:
    """Inputs produced by set-up; the loop reads nothing else."""

    seed: int
    sizes: Sizes
    vocab: C.Vocab
    pool: P.PhrasePool
    config: Optional[TR.TrainConfig] = None
    docs: list = field(default_factory=list)
    pair_set: Optional[C.EntityPairSet] = None
    state: Optional[TR.TrainState] = None
    expected_examples: dict[int, int] = field(default_factory=dict)
    tokens_per_plan: int = 0


# ------------------------------------------------------------------- set-up


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _phrase_inputs(seed: int, sizes: Sizes, work: Path):
    world = build_phrase_world(seed=seed, n_sentences=sizes.n_sentences)
    return (world, _write(work / "corpus.txt", world.corpus_lines),
            _write(work / "pool.tsv", world.pool_lines))


def _pair_inputs(seed: int, sizes: Sizes, work: Path):
    world = build_pair_world(seed=seed, n_pairs=sizes.n_pairs)
    return (world, _write(work / "pair_corpus.txt", world.corpus_lines),
            _write(work / "content.tsv", world.content_lines),
            _write(work / "pairs.tsv", world.pair_lines))


def _pair_tokens(pair_set: C.EntityPairSet) -> int:
    return sum(len(pair_set.content[a]) + len(pair_set.content[b])
               for a, b in pair_set.pairs)


def setup_phrase(seed: int, sizes: Sizes, work: Path) -> Context:
    _, corpus, pool_path = _phrase_inputs(seed, sizes, work)
    vocab = C.build_vocab(corpus)
    docs = C.load_corpus(corpus, vocab, MAX_SEQ_LEN)
    pool = P.load_pool(pool_path, vocab)
    config = TR.TrainConfig(stage1_epochs=sizes.stage1_epochs, stage2_epochs=0,
                            batch_size=sizes.stage1_batch, learning_rate=LEARNING_RATE,
                            seed=seed, warm_iters=1000, eval_docs=0,
                            max_seq_len=MAX_SEQ_LEN)
    state = TR.init_train_state(vocab, pool, config)
    return Context(seed=seed, sizes=sizes, vocab=vocab, pool=pool, config=config,
                   docs=docs, state=state,
                   tokens_per_plan=sizes.stage1_epochs * sum(len(d) for d in docs))


def _setup_pairs(variant: str, seed: int, sizes: Sizes, work: Path) -> Context:
    _, corpus, content, pairs = _pair_inputs(seed, sizes, work)
    vocab = C.build_vocab(corpus)
    pair_set = C.load_entity_pairs(pairs, content, vocab, MAX_SEQ_LEN)
    # The pair world has no phrase pool: phrase steps fall back to word fill.
    pool = P.PhrasePool(entries={}, phrase_ids={}, surface=[], max_phrase_len=0)
    config = TR.TrainConfig(stage1_epochs=0, stage2_epochs=sizes.stage2_epochs,
                            batch_size=sizes.stage2_batch, learning_rate=LEARNING_RATE,
                            seed=seed, warm_iters=1000, eval_docs=0,
                            max_seq_len=MAX_SEQ_LEN, cea_weight=1.0,
                            cea_variant=variant, ipot_beta=IPOT_BETA,
                            ipot_outer_iters=sizes.ipot_outer_iters)
    state = TR.init_train_state(vocab, pool, config)
    return Context(seed=seed, sizes=sizes, vocab=vocab, pool=pool, config=config,
                   pair_set=pair_set, state=state,
                   tokens_per_plan=sizes.stage2_epochs * _pair_tokens(pair_set))


def setup_infer(seed: int, sizes: Sizes, work: Path) -> Context:
    phrase_world, corpus, pool_path = _phrase_inputs(seed, sizes, work)
    pair_world, pair_corpus, content, pairs = _pair_inputs(seed, sizes, work)
    both = _write(work / "both_corpus.txt",
                  phrase_world.corpus_lines + pair_world.corpus_lines)
    vocab = C.build_vocab(both)
    docs = C.load_corpus(corpus, vocab, MAX_SEQ_LEN)
    pair_set = C.load_entity_pairs(pairs, content, vocab, MAX_SEQ_LEN)
    pool = P.load_pool(pool_path, vocab)
    config = TR.TrainConfig(stage1_epochs=0, stage2_epochs=0, seed=seed,
                            max_seq_len=MAX_SEQ_LEN)
    ckpt = work / "checkpoint.npz"
    TR.save_checkpoint(ckpt, TR.init_train_state(vocab, pool, config))
    state = TR.load_checkpoint(ckpt)

    lengths = [len(line.split()) for line in phrase_world.corpus_lines]
    expected = {1: len(lengths)}
    for span in SPAN_LENGTHS[1:]:
        expected[span] = sum(n == BASE_SENTENCE_WORDS + span for n in lengths)
    # Each eval example encodes one whole document; a phrase sentence yields two.
    eval_tokens = sum(n * (1 + (n > BASE_SENTENCE_WORDS)) for n in lengths)
    return Context(seed=seed, sizes=sizes, vocab=vocab, pool=pool, docs=docs,
                   pair_set=pair_set, state=state, expected_examples=expected,
                   tokens_per_plan=eval_tokens + _pair_tokens(pair_set))


# ------------------------------------------------------------------- plans

# yardstick_ms() in a tight loop on a quiet core of the host the benchmark
# was tuned on, a shared 2-vCPU x86 VM at 2.1 GHz; turns a set-up time in
# yardsticks into seconds.
YARDSTICK_NOMINAL_MS = 0.4

_YARD_X = np.random.default_rng(0).standard_normal((16, 32))
_YARD_W = np.random.default_rng(1).standard_normal((32, 32)) / 8


class _Link:
    __slots__ = ("weight", "prev")

    def __init__(self, weight: float, prev: Optional["_Link"]) -> None:
        self.weight, self.prev = weight, prev


_YARD_CHAIN: Optional[_Link] = None
for _i in range(80):
    _YARD_CHAIN = _Link(_i * 0.5, _YARD_CHAIN)


def yardstick_ms() -> float:
    """Wall time (ms) of a fixed piece of work, about 0.4 ms on a quiet core.

    Small matmuls and ufuncs, interpreter arithmetic and a walk over linked
    objects, like the library's steps, but no library code, so no change to
    domainlm moves it. It allocates no objects the garbage collector tracks,
    so it never triggers a collection of the library's garbage.
    """
    start = time.perf_counter()
    x = _YARD_X
    for _ in range(30):
        x = np.tanh(x @ _YARD_W) * 0.5 + x
        acc = 0.0
        for i in range(96):
            acc += i * 0.5
        link = _YARD_CHAIN
        while link is not None:
            acc += link.weight
            link = link.prev
    return (time.perf_counter() - start) * 1e3


def _train_plan(run_stage: Callable, data) -> Callable:
    def plan(ctx: Context, out: Outcome, on_step: Callable[[], None]) -> None:
        state, ctx.state = ctx.state, None
        if state is None:
            state = TR.init_train_state(ctx.vocab, ctx.pool, ctx.config)
        cfg = ctx.config
        epochs = cfg.stage1_epochs or cfg.stage2_epochs
        n_items = len(data(ctx))
        per_epoch = math.ceil(n_items / cfg.batch_size)
        planned = epochs * per_epoch
        losses: list[float] = []
        steps: list[float] = []
        yard: list[float] = []
        out.plan_ms.append(steps)
        out.yard_ms.append(yard)
        clock = time.perf_counter
        last = clock()

        def progress(rec: dict) -> None:
            nonlocal last
            steps.append((clock() - last) * 1e3)
            yard.append(yardstick_ms())
            masked = rec["L_w"] if rec["L_w"] is not None else rec["L_p"]
            losses.append(masked + cfg.cea_weight * (rec["L_cea"] or 0.0))
            on_step()
            last = clock()

        try:
            run_stage(data(ctx), ctx.pool, state, progress=progress)
        except Exception:  # a raised step counts as a failed operation
            out.fail(f"step {len(losses) + 1} raised:\n{traceback.format_exc()}")
        out.plans += 1
        out.attempted += planned

        bad = sum(not math.isfinite(x) for x in losses)
        if bad:
            out.fail(f"{bad} non-finite losses", bad)
        if len(losses) != planned:
            out.fail(f"{len(losses)} of {planned} planned steps ran",
                     planned - len(losses))
            return
        final = float(np.mean(losses[-per_epoch:]))
        if out.final_loss is None:
            out.final_loss = final
        elif final != out.final_loss:
            out.fail(f"plan {out.plans} final_loss {final!r} != {out.final_loss!r}")
    return plan


def _infer_plan(ctx: Context, out: Outcome, on_step: Callable[[], None]) -> None:
    """Step 0 is the eval pass; steps 1.. are one align call per pair."""
    clock = time.perf_counter
    state = ctx.state
    steps: list[float] = []
    yard: list[float] = []
    out.plan_ms.append(steps)
    out.yard_ms.append(yard)
    start = clock()
    try:
        rows = TR.eval_reconstruction(state, ctx.docs, ctx.pool, span_lengths=SPAN_LENGTHS,
                                      seed=ctx.seed, eval_batch=ctx.sizes.eval_batch)
    except Exception:
        rows = None
        out.fail(f"eval_reconstruction raised:\n{traceback.format_exc()}")
    steps.append((clock() - start) * 1e3)
    yard.append(yardstick_ms())
    out.attempted += 1
    if rows is not None:
        got = {r["span_len"]: r["n_examples"] for r in rows}
        if got != ctx.expected_examples:
            out.fail(f"eval n_examples {got} != expected {ctx.expected_examples}")
    on_step()

    outer = ctx.sizes.align_outer_iters
    for a, b in ctx.pair_set.pairs:
        doc_a, doc_b = ctx.pair_set.content[a], ctx.pair_set.content[b]
        out.attempted += 1
        start = clock()
        try:
            # The `domainlm align` path for one pair, minus the CSV write.
            emb_a = TR._doc_embeddings(state, doc_a)
            emb_b = TR._doc_embeddings(state, doc_b)
            plan = OT.ipot(OT.cost_matrix(emb_a, emb_b).values.data,
                           beta=IPOT_BETA, outer_iters=outer)
            matrix = OT.alignment_matrix(plan)
        except Exception:
            out.fail(f"align {a},{b} raised:\n{traceback.format_exc()}")
            continue
        finally:
            steps.append((clock() - start) * 1e3)
            yard.append(yardstick_ms())
            on_step()
        n = plan.values.shape[1]
        col_err = float(np.abs(plan.values.sum(axis=0) - 1.0 / n).max())
        row_err = float(np.abs(matrix.sum(axis=1) - 1.0).max())
        if not (col_err <= MARGIN_TOL and row_err <= MARGIN_TOL):
            out.fail(f"align {a},{b}: plan column error {col_err:.3e}, "
                     f"alignment row error {row_err:.3e}")
    out.plans += 1


def infer_quality_loss(ctx: Context) -> float:
    """Mean masked-token NLL of the reloaded checkpoint, one masked word per doc.

    Untimed and untraced; a pure function of the seed, it guards the
    numerics of the inference path the way training loss guards training.
    """
    rng = np.random.default_rng([ctx.seed, 0x0E7A])
    docs = ctx.docs[:ctx.sizes.quality_docs]
    state = ctx.state
    total, count = 0.0, 0
    for start in range(0, len(docs), ctx.sizes.eval_batch):
        chunk = docs[start:start + ctx.sizes.eval_batch]
        examples = []
        for doc in chunk:
            pos = int(rng.integers(len(doc)))
            ids = list(doc.tokens)
            ids[pos] = C.MASK_ID
            examples.append(M.MaskedExample(input_ids=ids, gold_ids=list(doc.tokens),
                                            masked_positions=[pos]))
        batch = M.collate(examples)
        hidden = forward(batch.input_ids, batch.pad_mask, state.params, state.enc_config)
        total += H.masked_token_nll(batch, hidden, state.params).item() * len(chunk)
        count += len(chunk)
    return total / count


# ---------------------------------------------------------------- registry


def _training_loss(ctx: Context, out: Outcome) -> float:
    return out.final_loss


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Sizes, Path], Context]
    plan: Callable[[Context, Outcome, Callable[[], None]], None]
    final_loss: Callable[[Context, Outcome], float]
    first_iter: int = 0  # steps before this index are not iterations (infer's eval)


WORKLOADS = {w.name: w for w in (
    Workload("pretrain_phrase", setup_phrase,
             _train_plan(TR.run_stage1, lambda ctx: ctx.docs), _training_loss),
    Workload("pretrain_pairs_ot", lambda s, z, w: _setup_pairs("ot", s, z, w),
             _train_plan(TR.run_stage2, lambda ctx: ctx.pair_set), _training_loss),
    Workload("pretrain_pairs_attention", lambda s, z, w: _setup_pairs("attention", s, z, w),
             _train_plan(TR.run_stage2, lambda ctx: ctx.pair_set), _training_loss),
    Workload("infer", setup_infer, _infer_plan, lambda ctx, out: infer_quality_loss(ctx),
             first_iter=1),
)}
