import json
import math
import re
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from domainlm import corpus as C
from domainlm import crossattn as CA
from domainlm import encoder as E
from domainlm import hybrid as H
from domainlm import tensor as T
from domainlm import training as TR
from domainlm import transport as OT
from domainlm.masking import MaskedExample, collate, pad
from domainlm.phrases import load_pool

from field_cases import as_params, bound_edges, refused, type_refusal
from synthetic import (ARENAS, CHECKPOINT_DAMAGE, build_pair_world, build_phrase_world,
                       corrupt_checkpoint, load_phrase_world, rewrite_checkpoint,
                       write_pair_world)

# Each TrainConfig bound, as README states it; a field not listed takes any value of its type.
TRAIN_BOUNDS = {
    "stage1_epochs": ">= 0", "stage2_epochs": ">= 0", "batch_size": ">= 1",
    "learning_rate": ">= 0", "cea_weight": ">= 0", "seed": ">= 0", "ipot_beta": "> 0",
    "ipot_outer_iters": ">= 1", "warm_iters": ">= 0", "warm_alpha": "[0, 1]",
    "ema_decay": "[0, 1]", "bootstrap_every": ">= 1", "force_alpha": "[0, 1]",
    "eval_docs": ">= 0"}


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("world")
    world = build_phrase_world(seed=0, n_sentences=160)
    return load_phrase_world(tmp, world)


def desk_config(**overrides):
    base = dict(stage1_epochs=1, stage2_epochs=0, batch_size=8, learning_rate=3e-3,
                seed=0, warm_iters=10, eval_docs=0, max_seq_len=32)
    base.update(overrides)
    return TR.TrainConfig(**base)


def params_bytes(state):
    return b"".join(p.data.tobytes() for p in state.params.values())


@pytest.fixture
def adam_steps(monkeypatch):
    """The step number each Adam update receives, in call order."""
    steps, adam_step = [], TR.adam_step

    def recording(params, adam, lr, t):
        steps.append(t)
        adam_step(params, adam, lr, t)

    monkeypatch.setattr(TR, "adam_step", recording)
    return steps


def adam_over(params):
    """A zero-moment Adam state whose arena holds ``params``, each parameter's data
    rebound to its view of the arena as in a run's state."""
    arena = np.concatenate([p.data.ravel() for p in params.values()])
    views = TR._views(arena, {k: p.data.shape for k, p in params.items()})
    for k, p in params.items():
        p.data = views[k]
    n = arena.size
    return TR.AdamState(arena, np.zeros(n), np.zeros(n), np.empty(n), np.empty(n))


class TestAdam:
    def make_params(self, values):
        return {"w": T.Tensor(np.array(values), requires_grad=True)}

    def test_zero_gradient_leaves_params_unchanged(self):
        params = self.make_params([1.0, -2.0])
        params["w"].grad = np.zeros(2)
        adam = adam_over(params)
        TR.adam_step(params, adam, lr=0.1, t=1)
        assert np.array_equal(params["w"].data, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        params = self.make_params([0.0, 0.0, 0.0])
        params["w"].grad = np.array([0.5, -3.0, 1e-4])
        adam = adam_over(params)
        TR.adam_step(params, adam, lr=0.01, t=1)
        assert np.allclose(params["w"].data, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_nan_gradient_aborts_with_name(self):
        params = self.make_params([1.0])
        params["w"].grad = np.array([np.nan])
        adam = adam_over(params)
        with pytest.raises(TR.NanGradientError, match="'w'"):
            TR.adam_step(params, adam, lr=0.1, t=1)

    def test_nan_in_last_parameter_leaves_state_untouched(self):
        params = {"a": T.Tensor(np.array([1.0, 2.0]), requires_grad=True),
                  "b": T.Tensor(np.array([3.0]), requires_grad=True)}
        adam = adam_over(params)
        params["a"].grad = np.array([0.5, -0.5])
        params["b"].grad = np.array([0.5])
        TR.adam_step(params, adam, lr=0.1, t=1)
        before = ({k: p.data.copy() for k, p in params.items()},
                  adam.arena_m.tobytes(), adam.arena_v.tobytes())
        params["b"].grad = np.array([np.nan])
        with pytest.raises(TR.NanGradientError, match="'b'"):
            TR.adam_step(params, adam, lr=0.1, t=2)
        for name in params:
            assert params[name].data.tobytes() == before[0][name].tobytes()
        assert adam.arena_m.tobytes() == before[1]
        assert adam.arena_v.tobytes() == before[2]

    def test_missing_gradient_skipped(self):
        params = self.make_params([1.0])
        adam = adam_over(params)
        TR.adam_step(params, adam, lr=0.1, t=1)
        assert params["w"].data[0] == 1.0

    @staticmethod
    def reference_step(params, m, v, t, lr):
        """The per-parameter loop the flat arena replaced, as update ``t``."""
        bc1 = 1.0 - TR.ADAM_BETA1 ** t
        bc2 = 1.0 - TR.ADAM_BETA2 ** t
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            m[name] *= TR.ADAM_BETA1
            m[name] += (1.0 - TR.ADAM_BETA1) * g
            v[name] *= TR.ADAM_BETA2
            v[name] += (1.0 - TR.ADAM_BETA2) * g * g
            p.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + TR.ADAM_EPS)

    def test_arena_matches_per_parameter_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 3), "d": (4,), "e": (6, 2)}
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: T.Tensor(init[k], requires_grad=True) for k in shapes}
        ref = {k: T.Tensor(init[k].copy(), requires_grad=True) for k in shapes}
        adam = adam_over(params)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        # no gradient: none; in the middle; at the end; both; neighbours
        for t, missing in enumerate([(), ("c",), ("e",), ("b", "e"), ("c", "d")], start=1):
            for k, s in shapes.items():
                g = None if k in missing else rng.standard_normal(s) * 10.0 ** rng.integers(-4, 3)
                params[k].grad, ref[k].grad = g, g
            TR.adam_step(params, adam, lr=3e-3, t=t)
            self.reference_step(ref, m, v, t, lr=3e-3)
            for k in shapes:
                assert params[k].data.tobytes() == ref[k].data.tobytes(), k
            for arena, moments in ((adam.arena_m, m), (adam.arena_v, v)):
                flat = np.concatenate([a.ravel() for a in moments.values()])
                assert arena.tobytes() == flat.tobytes()
        assert all(np.shares_memory(p.data, adam.arena) for p in params.values())


def assert_params_in_arena(state):
    """Every parameter is a view into the arena, in parameter order, and each
    moment arena is as long as the parameter arena."""
    adam = state.adam
    for name, p in state.params.items():
        assert np.shares_memory(p.data, adam.arena), name
    flat = np.concatenate([p.data.ravel() for p in state.params.values()])
    assert flat.tobytes() == adam.arena.tobytes()
    assert adam.arena_m.shape == adam.arena_v.shape == adam.arena.shape


class TestArena:
    def test_params_stay_views_after_init_load_and_training(self, small_world, tmp_path):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        assert_params_in_arena(state)
        TR.run_stage1(docs, pool, state)
        assert state.stage1_iters_done > 0
        assert_params_in_arena(state)
        TR.save_checkpoint(tmp_path / "model.npz", state)
        loaded = TR.load_checkpoint(tmp_path / "model.npz")
        assert_params_in_arena(loaded)
        assert loaded.adam.arena_m.tobytes() == state.adam.arena_m.tobytes()
        assert loaded.adam.arena_v.tobytes() == state.adam.arena_v.tobytes()
        loaded.config.stage1_epochs = 2
        TR.run_stage1(docs, pool, loaded)
        assert loaded.stage1_iters_done == 2 * state.stage1_iters_done
        assert_params_in_arena(loaded)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(stage1_epochs=-1)
        with pytest.raises(ValueError):
            TR.TrainConfig(cea_weight=-0.5)
        with pytest.raises(ValueError):
            TR.TrainConfig(cea_variant="nope")

    @pytest.mark.parametrize("key, value, message", as_params([
        *[(key, value, type_refusal(TR.TrainConfig, key, value)) for key, value in (
            ("batch_size", 8.0), ("seed", 0.5), ("eval_docs", 2.0), ("stage1_epochs", True),
            ("learning_rate", True), ("learning_rate", "1e-3"), ("shuffle", 1),
            ("force_alpha", "0.5"), ("force_alpha", False))],
        *refused(TR.TrainConfig, TRAIN_BOUNDS)]))
    def test_each_value_has_its_fields_type(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TR.TrainConfig(**{key: value})

    @pytest.mark.parametrize("key, value", bound_edges(TR.TrainConfig, TRAIN_BOUNDS))
    def test_each_bound_takes_its_edge(self, key, value):
        assert getattr(TR.TrainConfig(**{key: value}), key) == value

    def test_every_field_has_a_rule(self):
        # refused raises KeyError on a field of an annotation that no rule covers
        assert {key for key, _, _ in refused(TR.TrainConfig, {})} == \
            {f.name for f in fields(TR.TrainConfig)}

    def test_a_float_field_takes_an_int(self):
        TR.TrainConfig(learning_rate=1, warm_alpha=0, force_alpha=1)
        TR.TrainConfig(force_alpha=None)


class TestStage1:
    def test_iteration_count_bookkeeping(self, small_world):
        vocab, docs, pool, _, _ = small_world
        cfg = desk_config(stage1_epochs=2)
        state = TR.init_train_state(vocab, pool, cfg)
        records = []
        TR.run_stage1(docs, pool, state, progress=records.append)
        expected = 2 * math.ceil(len(docs) / cfg.batch_size)
        assert state.stage1_iters_done == expected
        assert len(records) == expected

    def test_alpha_trace_respects_warm_fix(self, small_world):
        vocab, docs, pool, _, _ = small_world
        cfg = desk_config(warm_iters=15, warm_alpha=0.6)
        state = TR.init_train_state(vocab, pool, cfg)
        records = []
        TR.run_stage1(docs, pool, state, progress=records.append)
        for rec in records:
            if rec["iter"] <= 15:
                assert rec["alpha"] == 0.6

    def test_exactly_one_loss_per_record(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        records = []
        TR.run_stage1(docs, pool, state, progress=records.append)
        for rec in records:
            assert (rec["L_w"] is None) != (rec["L_p"] is None)
            assert (rec["mode"] == "word") == (rec["L_p"] is None)

    def test_force_alpha_one_runs_word_only(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(force_alpha=1.0))
        records = []
        TR.run_stage1(docs, pool, state, progress=records.append)
        assert all(rec["mode"] == "word" for rec in records)
        assert math.isnan(state.scheduler.phrase_first)

    def test_determinism_same_seed(self, small_world):
        vocab, docs, pool, _, _ = small_world
        s1 = TR.init_train_state(vocab, pool, desk_config(seed=7))
        s2 = TR.init_train_state(vocab, pool, desk_config(seed=7))
        TR.run_stage1(docs, pool, s1)
        TR.run_stage1(docs, pool, s2)
        assert params_bytes(s1) == params_bytes(s2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smoothed_losses_fall_after_warm_up(self, small_world, seed):
        # an even warm split (bootstrap_every=2) keeps both eta scales
        # comparable, so both modes keep running after warm-up here
        vocab, docs, pool, _, _ = small_world
        cfg = desk_config(stage1_epochs=6, warm_iters=40, bootstrap_every=2,
                          seed=seed)
        state = TR.init_train_state(vocab, pool, cfg)
        at_warm_exit, records = {}, []

        def snap(rec):
            records.append(rec)
            if rec["iter"] == cfg.warm_iters:
                at_warm_exit["word"] = state.scheduler.word_curr
                at_warm_exit["phrase"] = state.scheduler.phrase_curr

        TR.run_stage1(docs, pool, state, progress=snap)
        post = [r["mode"] for r in records if r["iter"] > cfg.warm_iters]
        assert post.count("word") > 0 and post.count("phrase") > 0
        assert state.scheduler.word_curr < at_warm_exit["word"]
        assert state.scheduler.phrase_curr < at_warm_exit["phrase"]

    def test_empty_corpus_rejected(self, small_world):
        vocab, _, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        with pytest.raises(ValueError):
            TR.run_stage1([], pool, state)


@pytest.fixture(scope="module")
def pair_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pairs")
    world = build_pair_world(seed=0, n_pairs=24)
    corpus_path, content_path, pairs_path = write_pair_world(tmp, world)
    vocab = C.build_vocab(corpus_path)
    pair_set = C.load_entity_pairs(pairs_path, content_path, vocab, max_seq_len=32)
    return world, vocab, pair_set


@pytest.fixture(scope="module")
def pair_pool(pair_world, tmp_path_factory):
    """A pool read against the pair world's vocab: the first two words of each of
    its first eight documents, so phrase steps find phrases in pair documents."""
    world, vocab, _ = pair_world
    path = tmp_path_factory.mktemp("pair_pool") / "pool.tsv"
    path.write_text("".join(f"{' '.join(line.split()[:2])}\t0.9\n"
                            for line in world.corpus_lines[:8]))
    return load_pool(path, vocab)


@pytest.fixture(scope="module")
def random_pairs(pair_world):
    """Six pairs of random-token documents over the pair vocab: their triplet
    hinges are active, where the pair world's margin holds from the first step."""
    _, vocab, _ = pair_world
    rng = np.random.default_rng(0)
    content = {f"e{i}": C.Document(tokens=rng.integers(C.NUM_SPECIALS, len(vocab), n).tolist())
               for i, n in enumerate(rng.integers(2, 13, 12))}
    return C.EntityPairSet(pairs=[(f"e{i}", f"e{i + 1}") for i in range(0, 12, 2)],
                           content=content)


class TestStage2:
    def test_lambda_zero_matches_stage1_on_pair_corpus(self, pair_world, pair_pool):
        world, vocab, pair_set = pair_world
        pool = pair_pool
        cfg2 = TR.TrainConfig(stage1_epochs=0, stage2_epochs=2, batch_size=4,
                              learning_rate=3e-3, seed=3, warm_iters=5,
                              cea_weight=0.0, shuffle=False, eval_docs=0,
                              max_seq_len=32)
        s2 = TR.init_train_state(vocab, pool, cfg2)
        TR.run_stage2(pair_set, pool, s2)
        # stage-1 run over the flattened pair docs, same order, batch 2x
        flat_docs = []
        for a, b in pair_set.pairs:
            flat_docs.append(pair_set.content[a])
            flat_docs.append(pair_set.content[b])
        cfg1 = TR.TrainConfig(stage1_epochs=2, stage2_epochs=0, batch_size=8,
                              learning_rate=3e-3, seed=3, warm_iters=5,
                              shuffle=False, eval_docs=0, max_seq_len=32)
        s1 = TR.init_train_state(vocab, pool, cfg1)
        TR.run_stage1(flat_docs, pool, s1)
        assert params_bytes(s1) == params_bytes(s2)

    def test_cea_records_present_with_ot(self, pair_world, pair_pool):
        world, vocab, pair_set = pair_world
        pool = pair_pool
        cfg = TR.TrainConfig(stage1_epochs=0, stage2_epochs=1, batch_size=8,
                             learning_rate=3e-3, seed=0, warm_iters=2,
                             cea_weight=1.0, ipot_outer_iters=20, eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        records = []
        TR.run_stage2(pair_set, pool, state, progress=records.append)
        assert records
        assert all(rec["L_cea"] is not None for rec in records)
        assert all(rec["stage"] == 2 for rec in records)

    def test_attention_variant_produces_triplet_records(self, pair_world, pair_pool):
        world, vocab, pair_set = pair_world
        pool = pair_pool
        cfg = TR.TrainConfig(stage1_epochs=0, stage2_epochs=1, batch_size=8,
                             learning_rate=3e-3, seed=0, warm_iters=2,
                             cea_weight=1.0, cea_variant="attention", eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        records = []
        TR.run_stage2(pair_set, pool, state, progress=records.append)
        assert records
        assert all(rec["L_cea"] is not None for rec in records)
        assert all(rec["L_cea"] >= 0.0 for rec in records)

    def test_attention_variant_trains_through_an_active_hinge(self, pair_world, pair_pool,
                                                              random_pairs):
        # In the pair world the triplet margin holds from the first step, so
        # L_cea is 0 there; random-token pairs leave the hinge active.
        _, vocab, _ = pair_world
        pool, pair_set = pair_pool, random_pairs

        def run(cea_weight):
            state = TR.init_train_state(vocab, pool, desk_config(
                stage1_epochs=0, stage2_epochs=3, batch_size=4, warm_iters=2,
                cea_weight=cea_weight, cea_variant="attention"))
            records = []
            TR.run_stage2(pair_set, pool, state, progress=records.append)
            return records, params_bytes(state)

        records, trained = run(1.0)
        assert any(rec["L_cea"] > 0.0 for rec in records)
        assert trained != run(0.0)[1]

    def test_a_negative_is_never_the_pairs_own_entity(self):
        # every entity is associated with every other, so each pair falls back; a
        # negative equal to the partner would make the hinge 1 + d(a, b) - d(a, b)
        content = {e: C.Document(tokens=[4, 5]) for e in "abc"}
        pair_set = C.EntityPairSet(pairs=[("a", "b"), ("a", "c"), ("b", "c")], content=content)
        for epoch in range(3):
            assert TR._epoch_negatives(pair_set, seed=0, epoch=epoch) == ["c", "b", "a"]

    @pytest.mark.parametrize("variant, cea_weight, raises", [
        ("attention", 1.0, True), ("attention", 0.0, False), ("ot", 1.0, False)])
    def test_attention_needs_a_third_entity(self, pair_world, pair_pool, variant, cea_weight,
                                            raises):
        _, vocab, pair_set = pair_world
        a, b = pair_set.pairs[0]
        two = C.EntityPairSet(pairs=[(a, b)], content={e: pair_set.content[e] for e in (a, b)})
        state = TR.init_train_state(vocab, pair_pool, desk_config(
            stage1_epochs=0, stage2_epochs=1, cea_weight=cea_weight, cea_variant=variant))
        if raises:
            with pytest.raises(ValueError, match="third entity"):
                TR.run_stage2(two, pair_pool, state)
            assert state.stage2_iters_done == 0
        else:
            assert TR.run_stage2(two, pair_pool, state).stage2_iters_done == 1

    def test_cea_loss_mean_drops_from_first_epoch(self, pair_world, pair_pool):
        world, vocab, pair_set = pair_world
        pool = pair_pool
        cfg = TR.TrainConfig(stage1_epochs=1, stage2_epochs=4, batch_size=8,
                             learning_rate=3e-3, seed=1, warm_iters=10,
                             cea_weight=1.0, ipot_outer_iters=30, eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        docs = [d for pair in pair_set.pairs for d in
                (pair_set.content[pair[0]], pair_set.content[pair[1]])]
        records = []
        TR.run_stage1(docs, pool, state, progress=records.append)
        TR.run_stage2(pair_set, pool, state, progress=records.append)
        cea = [r["L_cea"] for r in records if r["L_cea"] is not None]
        per_epoch = math.ceil(len(pair_set) / cfg.batch_size)
        first = sum(cea[:per_epoch]) / per_epoch
        last = sum(cea[-per_epoch:]) / per_epoch
        assert last <= 0.9 * first

    def test_reset_scheduler_takes_config_hyperparameters(self, pair_world, pair_pool):
        _, vocab, pair_set = pair_world
        pool = pair_pool
        cfg = TR.TrainConfig(stage1_epochs=0, stage2_epochs=1, batch_size=8,
                             learning_rate=3e-3, warm_iters=3, warm_alpha=0.7,
                             ema_decay=0.5, bootstrap_every=2, cea_weight=0.0,
                             reset_scheduler_for_stage2=True, eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        state.scheduler = H.SchedulerState(warm_iters=99, warm_alpha=0.1,
                                           ema_decay=0.0, bootstrap_every=7)
        records = []
        TR.run_stage2(pair_set, pool, state, progress=records.append)
        sched = state.scheduler
        assert (sched.warm_iters, sched.warm_alpha, sched.ema_decay,
                sched.bootstrap_every) == (3, 0.7, 0.5, 2)
        assert sched.iteration == len(records)

    @pytest.mark.parametrize("stage1_epochs", [0, 1])
    def test_reset_scheduler_resume_mid_stage2_matches_uninterrupted(
            self, pair_world, small_world, tmp_path, stage1_epochs):
        _, vocab, pair_set = pair_world
        pool = load_pool(small_world[4], vocab)  # as a run reads it: against its own vocab
        docs = [pair_set.content[e] for pair in pair_set.pairs for e in pair]

        def config(stage2_epochs):
            return TR.TrainConfig(stage1_epochs=stage1_epochs, stage2_epochs=stage2_epochs,
                                  batch_size=8, learning_rate=3e-3, seed=2, warm_iters=5,
                                  cea_weight=1.0, ipot_outer_iters=10,
                                  reset_scheduler_for_stage2=True, eval_docs=0,
                                  max_seq_len=32)

        def run(state, progress=None):
            if stage1_epochs:
                TR.run_stage1(docs, pool, state, progress)
            TR.run_stage2(pair_set, pool, state, progress)

        full, records = TR.init_train_state(vocab, pool, config(6)), []
        run(full, records.append)
        partial = TR.init_train_state(vocab, pool, config(3))
        run(partial)
        path = tmp_path / "mid_stage2.npz"
        TR.save_checkpoint(path, partial)
        resumed = TR.load_checkpoint(path)
        resumed.config = config(6)
        run(resumed)
        assert params_bytes(resumed) == params_bytes(full)
        assert resumed.scheduler.to_dict() == full.scheduler.to_dict()
        assert full.scheduler.iteration == full.stage2_iters_done
        steps = [r["iter"] for r in records]
        assert steps == list(range(1, full.stage1_iters_done + full.stage2_iters_done + 1))

    def test_a_pool_read_against_another_vocab_is_rejected(self, pair_world, small_world):
        # the phrase world's pool holds ids past the pair vocab's 111 tokens
        _, vocab, _ = pair_world
        _, _, pool, _, _ = small_world
        with pytest.raises(ValueError, match=r"phrase 16 \(110, 111, 112, 113\) is no pool "
                                             r"phrase \(id\)"):
            TR.init_train_state(vocab, pool, desk_config(stage2_epochs=1))

    def test_empty_pair_set_rejected(self, pair_world, pair_pool):
        world, vocab, pair_set = pair_world
        pool = pair_pool
        state = TR.init_train_state(vocab, pool, desk_config(stage2_epochs=1))
        empty = C.EntityPairSet(pairs=[], content={})
        with pytest.raises(ValueError):
            TR.run_stage2(empty, pool, state)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_a_pool_with_other_phrase_ids_is_rejected_before_any_change(
            self, pair_world, pair_pool, stage):
        # the phrase head has one row per phrase id: another order trains each row
        # for another phrase
        _, vocab, pair_set = pair_world
        state = TR.init_train_state(vocab, pair_pool, desk_config(
            stage2_epochs=1, reset_scheduler_for_stage2=True))
        n = len(pair_pool)
        reversed_pool = replace(pair_pool, phrase_ids={
            phrase: n - 1 - i for phrase, i in pair_pool.phrase_ids.items()})
        assert reversed_pool.by_id() == state.phrases[::-1] != state.phrases
        scheduler = state.scheduler
        before = (params_bytes(state), state.adam.arena_m.tobytes(), scheduler.to_dict(),
                  state.mask_rng.bit_generator.state)
        with pytest.raises(ValueError, match="phrase ids"):
            if stage == 1:
                TR.run_stage1([pair_set.content[a] for a, _ in pair_set.pairs], reversed_pool,
                              state)
            else:
                TR.run_stage2(pair_set, reversed_pool, state)
        assert state.scheduler is scheduler  # not even the stage-2 reset ran
        assert (params_bytes(state), state.adam.arena_m.tobytes(), state.scheduler.to_dict(),
                state.mask_rng.bit_generator.state) == before
        assert state.stage1_iters_done == state.stage2_iters_done == 0


class TestStepCount:
    """Adam's step number is the run's: the sum of the stage counters, plus one."""

    def test_a_fresh_run_counts_from_one_through_both_stages(self, pair_world, pair_pool,
                                                             adam_steps):
        _, vocab, pair_set = pair_world
        docs = [pair_set.content[e] for pair in pair_set.pairs for e in pair]
        state = TR.init_train_state(vocab, pair_pool, desk_config(stage2_epochs=1,
                                                                  ipot_outer_iters=5))
        TR.run_stage1(docs, pair_pool, state)
        TR.run_stage2(pair_set, pair_pool, state)
        assert state.stage1_iters_done > 0 and state.stage2_iters_done > 0
        assert adam_steps == list(range(1, state.stage1_iters_done
                                        + state.stage2_iters_done + 1))

    def test_a_resumed_run_continues_the_count_bit_for_bit(self, small_world, tmp_path,
                                                           adam_steps):
        vocab, docs, pool, _, _ = small_world
        full = TR.init_train_state(vocab, pool, desk_config(stage1_epochs=3, seed=5))
        TR.run_stage1(docs, pool, full)
        partial = TR.init_train_state(vocab, pool, desk_config(stage1_epochs=1, seed=5))
        TR.run_stage1(docs, pool, partial)
        k = partial.stage1_iters_done
        TR.save_checkpoint(tmp_path / "partial.npz", partial)
        resumed = TR.load_checkpoint(tmp_path / "partial.npz")
        resumed.config.stage1_epochs = 3
        adam_steps.clear()
        TR.run_stage1(docs, pool, resumed)
        assert adam_steps == list(range(k + 1, full.stage1_iters_done + 1))
        assert resumed.adam.arena.tobytes() == full.adam.arena.tobytes()


@pytest.fixture(scope="module")
def ragged_docs(pair_world, pair_pool):
    """A state factory and six documents of different lengths, so a batch pads."""
    _, vocab, _ = pair_world
    pool = pair_pool

    def state(variant="ot"):
        return TR.init_train_state(vocab, pool, desk_config(
            stage2_epochs=1, cea_variant=variant, ipot_outer_iters=20, seed=4))

    rng = np.random.default_rng(7)
    docs = [C.Document(tokens=rng.integers(C.NUM_SPECIALS, len(vocab), n).tolist())
            for n in (1, 3, 5, 6, 9, 12)]
    return state, docs


def _grads_of(state, loss):
    for p in state.params.values():
        p.zero_grad()
    T.backward(loss)
    return {k: p.grad.copy() for k, p in state.params.items() if p.grad is not None}


def _padded_embeddings(state, docs):
    """Each document's (len, dim) rows of one padded unmasked forward, in input order."""
    ids, pad_mask = pad([doc.tokens for doc in docs])
    hidden = TR.forward(ids, pad_mask, state.params, state.enc_config)
    return [TR.gather_positions(hidden, i, np.arange(len(doc))) for i, doc in enumerate(docs)]


def _functional(embs, weights):
    terms = [T.tensor_sum(T.mul(e, T.Tensor(w))) for e, w in zip(embs, weights)]
    return sum(terms[1:], terms[0])


class TestAlignmentPass:
    def test_padded_pass_matches_per_document_passes(self, ragged_docs):
        make_state, docs = ragged_docs
        state = make_state()
        batched = _padded_embeddings(state, docs)
        single = [_padded_embeddings(state, [d])[0] for d in docs]
        for doc, got, want in zip(docs, batched, single):
            assert got.shape == (len(doc), state.enc_config.dim)
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        weights = [np.random.default_rng(i).normal(size=e.shape) for i, e in enumerate(single)]
        got = _grads_of(state, _functional(_padded_embeddings(state, docs), weights))
        want = _grads_of(state, _functional(single, weights))
        largest = max(np.abs(g).max() for g in want.values())
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-12 * largest, err_msg=name)

    @pytest.mark.parametrize("force_alpha", [1.0, 0.0])  # a word step, then a phrase step
    def test_stacked_step_matches_the_two_pass_path(self, ragged_docs, pair_pool,
                                                    monkeypatch, force_alpha):
        make_state, docs = ragged_docs
        pool = pair_pool
        if not force_alpha:  # a pool phrase in every document, so phrase_loss reads groups
            docs = [C.Document(tokens=d.tokens + list(pool.by_id()[0])) for d in docs]
        content = {f"e{i}": d for i, d in enumerate(docs)}
        pair_set = C.EntityPairSet(pairs=[("e0", "e5"), ("e3", "e1"), ("e4", "e2")],
                                   content=content)
        costs, pooled, drawn, masked_at = [], [], [], []
        ipot = OT.ipot
        monkeypatch.setattr(OT, "ipot", lambda c, **kw: costs.append(np.array(c)) or ipot(c, **kw))
        pool_logits = H.phrase_logits  # the phrase head, as the loss calls it
        monkeypatch.setattr(H, "phrase_logits", lambda read, groups, params: pooled.append(
            [masked_at[i] for group in groups for i in group])
            or pool_logits(read, groups, params))
        phrase_loss = TR.phrase_loss

        def spy_phrase_loss(batch, *args):  # the (row, position) of each row the loss reads
            masked_at[:] = zip(*(index.tolist() for index in batch.masked_at))
            drawn.append([(row, pos) for row, matches in enumerate(batch.phrases)
                          for m in matches for pos in range(m.start, m.end)])
            return phrase_loss(batch, *args)
        monkeypatch.setattr(TR, "phrase_loss", spy_phrase_loss)

        def fresh():
            state = make_state()
            state.config.force_alpha, state.config.shuffle = force_alpha, False
            return state

        # The step under test: one stacked forward, read by both losses.
        state, records = fresh(), []
        TR.run_stage2(pair_set, pool, state, progress=records.append)
        got = {k: p.grad for k, p in state.params.items() if p.grad is not None}
        assert len(records) == 1
        got_costs, costs[:] = costs[:], []

        # Reference: the masked pass, then one padded unmasked pass and a
        # one-pair loss per pair, as stage 2 ran before the passes were stacked.
        ref = fresh()
        ref.scheduler.iteration += 1
        pair_docs = [content[e] for pair in pair_set.pairs for e in pair]
        hybrid_loss, mode, _, _ = TR._hybrid_forward(ref, pair_docs, pool)
        emb = _padded_embeddings(ref, pair_docs)
        parts = []
        for k in range(len(pair_set)):
            cm = OT.cost_matrix(emb[2 * k], emb[2 * k + 1])
            plan = OT.ipot(cm.values.data, beta=ref.config.ipot_beta,
                           outer_iters=ref.config.ipot_outer_iters)
            parts.append((T.Tensor(plan.values) * cm.values).sum())
        cea = T.scale(sum(parts[1:], parts[0]), 1.0 / len(parts))
        want = _grads_of(ref, hybrid_loss + T.scale(cea, ref.config.cea_weight))

        assert records[0]["mode"] == mode == ("word" if force_alpha else "phrase")
        # the phrase head pools exactly the masked phrases' tokens, in both paths
        assert pooled == drawn and len(drawn) == (0 if force_alpha else 2)
        assert all(drawn) and drawn[:1] == drawn[1:]
        assert all(row < len(pair_docs) for tokens in drawn for row, _ in tokens)
        masked = records[0]["L_w"] if mode == "word" else records[0]["L_p"]
        assert masked == pytest.approx(hybrid_loss.item(), rel=1e-12, abs=0)
        assert records[0]["L_cea"] == pytest.approx(cea.item(), rel=1e-12, abs=0)
        assert [c.shape for c in got_costs] == [(len(content[a]), len(content[b]))
                                                for a, b in pair_set.pairs]
        for got_cost, want_cost in zip(got_costs, costs):
            np.testing.assert_allclose(got_cost, want_cost, rtol=0, atol=1e-12)
        assert got.keys() == want.keys() and ("phrase_head" in want) == (mode == "phrase")
        whole = np.sqrt(sum(np.sum(g * g) for g in want.values()))
        for name in want:
            # A key bias's true gradient is 0 (the softmax ignores it), so its
            # values are rounding noise: judge it against the whole gradient.
            norm = whole if name.endswith(".attn.bk") else np.linalg.norm(want[name])
            assert np.linalg.norm(got[name] - want[name]) <= 1e-12 * norm, name

    @pytest.mark.parametrize("variant", ["ot", "attention"])
    def test_alignment_loss_matches_per_pair_reference(self, ragged_docs, variant):
        make_state, docs = ragged_docs
        state = make_state(variant)
        content = {f"e{i}": d for i, d in enumerate(docs)}
        pair_set = C.EntityPairSet(pairs=[("e0", "e5"), ("e1", "e4"), ("e2", "e3")],
                                   content=content)
        negatives = ["e3", "e2", "e0"]
        docs = [content[e] for j in (2, 0, 1) for e in pair_set.pairs[j]]
        negative_docs = [content[negatives[j]] for j in (2, 0, 1)] if variant == "attention" else []
        ids, pad_mask = pad([doc.tokens for doc in docs * 2])  # rows len(docs).. unmasked
        hidden = TR.forward(ids, pad_mask, state.params, state.enc_config)
        got = TR._alignment_loss(state, docs, negative_docs, hidden)
        cfg = state.config
        parts = []
        for j in (2, 0, 1):
            a, b = (TR._doc_embeddings(state, content[e]) for e in pair_set.pairs[j])
            if variant == "ot":
                parts.append(OT.cea_loss(T.Tensor(a.data[None]), T.Tensor(b.data[None]),
                                         [(a.shape[0], b.shape[0])], beta=cfg.ipot_beta,
                                         outer_iters=cfg.ipot_outer_iters))
            else:
                neg = TR._doc_embeddings(state, content[negatives[j]])
                parts.append(CA.triplet_loss(a, b, neg))
        want = T.scale(sum(parts[1:], parts[0]), 1.0 / len(parts))
        assert got.item() == pytest.approx(want.item(), rel=1e-12, abs=0)

    @pytest.mark.parametrize("cea_weight, passes, variant",
                             [(1.0, 1, "ot"), (1.0, 2, "attention"),
                              (0.0, 1, "ot"), (0.0, 1, "attention")])
    def test_stage2_step_runs_one_masked_and_one_alignment_pass(
            self, pair_world, pair_pool, monkeypatch, cea_weight, passes, variant):
        # ot stacks its unmasked pass into the masked forward; attention runs its own.
        _, vocab, pair_set = pair_world
        pool = pair_pool
        calls = []
        forward = TR.forward
        monkeypatch.setattr(TR, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
        state = TR.init_train_state(vocab, pool, desk_config(
            stage1_epochs=0, stage2_epochs=1, cea_weight=cea_weight, cea_variant=variant,
            ipot_outer_iters=5))
        records = []
        TR.run_stage2(pair_set, pool, state, progress=records.append)
        assert len(records) == state.stage2_iters_done > 1
        assert len(calls) == passes * state.stage2_iters_done


def _always_taped_attention_loss(state, docs, negatives, hidden):
    """The attention alignment loss with its one unmasked pass always on the tape."""
    ids, pad_mask = pad([doc.tokens for doc in docs + negatives])
    unmasked = TR.forward(ids, pad_mask, state.params, state.enc_config)
    pairs = len(negatives)
    rows = np.c_[np.arange(2 * pairs).reshape(-1, 2), 2 * pairs + np.arange(pairs)].T
    masks = [pad_mask[side, :pad_mask[side].sum(axis=1).max()] for side in rows]
    sides = [TR.gather_positions(unmasked, side[:, None], np.arange(mask.shape[1]))
             for side, mask in zip(rows, masks)]
    return T.scale(CA.triplet_loss(*sides, *masks), 1.0 / pairs)


class TestOffTapeTripletPass:
    """The attention step computes its loss off the tape first, and builds the
    taped graph only when a hinge is active."""

    @staticmethod
    def train(vocab, pool, pair_set):
        state = TR.init_train_state(vocab, pool, desk_config(
            stage1_epochs=0, stage2_epochs=3, batch_size=4, warm_iters=2,
            cea_variant="attention"))
        records = []
        TR.run_stage2(pair_set, pool, state, progress=records.append)
        return records, state

    @pytest.mark.parametrize("world", ["pair world", "random pairs"])
    def test_matches_the_always_taped_step_bit_for_bit(self, pair_world, pair_pool,
                                                        random_pairs, monkeypatch, world):
        _, vocab, pair_set = pair_world
        if world == "random pairs":
            pair_set = random_pairs
        records, state = self.train(vocab, pair_pool, pair_set)
        monkeypatch.setattr(TR, "_alignment_loss", _always_taped_attention_loss)
        want_records, want = self.train(vocab, pair_pool, pair_set)
        hinges = [rec["L_cea"] for rec in records]
        if world == "random pairs":
            assert any(h > 0.0 for h in hinges)
        else:
            assert hinges == [0.0] * len(records)
        assert records == want_records
        for arena in ("arena", "arena_m", "arena_v"):
            assert getattr(state.adam, arena).tobytes() == getattr(want.adam, arena).tobytes()

    def test_an_inactive_step_tapes_only_the_masked_forward(self, pair_world, pair_pool,
                                                             monkeypatch):
        _, vocab, pair_set = pair_world
        taped = []
        forward = TR.forward
        monkeypatch.setattr(TR, "forward", lambda ids, mask, params, config, *read: taped.append(
            params["tok_emb"].requires_grad) or forward(ids, mask, params, config, *read))
        records, state = self.train(vocab, pair_pool, pair_set)
        assert all(rec["L_cea"] == 0.0 for rec in records)
        assert taped == [True, False] * state.stage2_iters_done

    def test_a_hinge_sum_that_underflows_once_scaled_is_taped(self, ragged_docs, monkeypatch):
        make_state, docs = ragged_docs
        tiny = 5e-324  # the least subnormal: a third of it rounds to 0.0
        assert tiny > 0.0 and tiny / 3 == 0.0
        monkeypatch.setattr(CA, "triplet_loss", lambda a, *rest: T.scale(a.sum(), 0.0)
                            + T.Tensor(np.asarray(tiny)))
        got = TR._alignment_loss(make_state("attention"), docs[:6], docs[3:], None)
        assert got.item() == 0.0 and got.requires_grad


def _full_forward(ids, mask, params, config, *at):
    """The reference read: the whole forward, then its rows at ``at`` if given."""
    hidden = E.forward(ids, mask, params, config)
    return TR.gather_positions(hidden, *at) if at else hidden


@pytest.fixture(scope="module")
def read_path_runs(small_world):
    """A 20-step stage-1 run through the read path and one through the full
    forward, each with the arg-max tokens its trained state's eval predicts."""
    vocab, docs, pool, _, _ = small_world
    runs = []
    for forward in (TR.forward, _full_forward):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TR, "forward", forward)
            state, records, predicted = TR.init_train_state(vocab, pool, desk_config()), [], []
            TR.run_stage1(docs, pool, state, progress=records.append)
            predict = TR._predict_masked
            patch.setattr(TR, "_predict_masked",
                          lambda *args: predicted.append(predict(*args)) or predicted[-1])
            TR.eval_reconstruction(state, docs, pool)
        runs.append(([rec["L_w"] if rec["mode"] == "word" else rec["L_p"] for rec in records],
                     predicted))
    return runs


class TestReadPath:
    """The loss's forward runs its last layer's LN1, FFN and LN2 only at the
    masked rows. That matches the full forward read there within rounding, not
    bit for bit: BLAS's GEMM rounds a row by the row count, and the bias and
    LN gradients sum over fewer rows."""

    @pytest.mark.parametrize("force_alpha", [1.0, 0.0])  # a word step, then a phrase step
    def test_step_matches_the_full_forward_read(self, small_world, monkeypatch, force_alpha):
        vocab, docs, pool, _, _ = small_world
        steps = []
        for forward in (TR.forward, _full_forward):
            monkeypatch.setattr(TR, "forward", forward)
            state = TR.init_train_state(vocab, pool, desk_config(force_alpha=force_alpha))
            loss, mode, _, read = TR._hybrid_forward(state, docs[:8], pool)
            steps.append((mode, read.data, _grads_of(state, loss)))
        (mode, got_read, got), (ref_mode, want_read, want) = steps
        assert mode == ref_mode == ("word" if force_alpha else "phrase")
        assert got_read.shape == want_read.shape == (got_read.shape[0], state.enc_config.dim)
        assert np.abs(got_read - want_read).max() <= 1e-12 * np.abs(want_read).max()
        assert got.keys() == want.keys() and ("phrase_head" in want) == (mode == "phrase")
        whole = np.sqrt(sum(np.sum(g * g) for g in want.values()))
        for name in want:
            # a key bias's true gradient is 0: judge its rounding noise by the whole
            norm = whole if name.endswith(".attn.bk") else np.linalg.norm(want[name])
            assert np.linalg.norm(got[name] - want[name]) <= 1e-12 * norm, name

    def test_stage1_losses_match_the_full_forward_run(self, read_path_runs):
        (losses, _), (want, _) = read_path_runs
        assert len(losses) == len(want) == 20
        np.testing.assert_allclose(losses, want, rtol=1e-12, atol=0)

    def test_eval_predicts_the_tokens_of_the_full_forward(self, read_path_runs):
        (_, predicted), (_, want) = read_path_runs
        assert predicted and predicted == want

    def test_a_word_step_records_one_node_per_op(self, small_world, monkeypatch):
        # A change of count names the op: two nodes per affine map add 6 `add`
        # nodes a layer; a full last layer with the read after it moves the rows.
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(force_alpha=1.0))
        nodes = []
        make = T._make
        monkeypatch.setattr(T, "_make", lambda data, parents, grad_fn: nodes.append(
            (grad_fn.__qualname__.partition(".")[0], data.shape))
            or make(data, parents, grad_fn))
        _, mode, _, read = TR._hybrid_forward(state, docs[:8], pool)
        ops = Counter(op for op, _ in nodes)
        assert mode == "word" and state.enc_config.layers == 2
        # embedding: tok, pos and the read; add: the embeddings' sum, and a layer's key
        # mask and two residuals; matmul: 8 a layer and the token head; reshape: a
        # layer's q, k, v heads and context, and the read's flat view; transpose: a
        # layer's q, k, v heads, k^T and context
        assert ops == {"embedding": 3, "add": 7, "layer_norm": 5, "matmul": 17,
                       "reshape": 9, "transpose": 10, "scale": 2, "softmax": 2, "gelu": 2,
                       "cross_entropy": 1}
        b, length = len(docs[:8]), max(len(doc) for doc in docs[:8])
        ffn = state.enc_config.ffn_dim
        assert [shape for op, shape in nodes if op == "gelu"] == [(b, length, ffn),
                                                                 (read.shape[0], ffn)]

    def test_a_phrase_step_records_one_node_per_op(self, small_world, monkeypatch):
        # The word step's 58 nodes, then the phrase head's 7, which end the tape: the
        # read's (1, n, d) view and its flat view, the gather of the phrases' tokens,
        # the pooling and head matmuls, the phrase term and the sum of the two terms.
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(force_alpha=0.0))
        nodes = []
        make = T._make
        monkeypatch.setattr(T, "_make", lambda data, parents, grad_fn: nodes.append(
            (grad_fn.__qualname__.partition(".")[0], data.shape))
            or make(data, parents, grad_fn))
        _, mode, _, read = TR._hybrid_forward(state, docs[:8], pool)
        assert mode == "phrase" and len(nodes) == 65
        assert Counter(op for op, _ in nodes) == {
            "embedding": 4, "add": 8, "layer_norm": 5, "matmul": 19, "reshape": 11,
            "transpose": 10, "scale": 2, "softmax": 2, "gelu": 2, "cross_entropy": 2}
        assert nodes[-7:-5] == [("reshape", (1,) + read.shape), ("reshape", read.shape)]
        assert [op for op, _ in nodes[-5:]] == ["embedding", "matmul", "matmul",
                                                "cross_entropy", "add"]


class TestForwardOnlyInference:
    def test_eval_and_align_record_no_tape(self, small_world, monkeypatch):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        outputs = []
        forward = TR.forward
        monkeypatch.setattr(TR, "forward",
                            lambda *a, **k: outputs.append(forward(*a, **k)) or outputs[-1])
        TR.eval_reconstruction(state, docs[:40], pool)
        n_eval = len(outputs)
        for variant in ("ot", "attention"):
            TR.align_pairs(state, [(docs[0], docs[1]), (docs[2], docs[3])], variant, 5, 0.5)
        assert n_eval > 0 and len(outputs) == n_eval + 8
        assert not any(hidden.requires_grad for hidden in outputs)
        assert all(p.requires_grad and p.grad is None for p in state.params.values())
        assert_params_in_arena(state)

    @pytest.mark.parametrize("variant", ["ot", "attention"])
    def test_align_pairs_matches_the_tape_path(self, ragged_docs, variant):
        make_state, docs = ragged_docs
        state = make_state(variant)
        pairs = [(docs[0], docs[5]), (docs[3], docs[1]), (docs[4], docs[2]), (docs[5], docs[5])]
        got = TR.align_pairs(state, pairs, variant, 30, 0.5)
        assert len(got) == len(pairs)
        for (doc_a, doc_b), matrix in zip(pairs, got):
            emb_a, emb_b = (_padded_embeddings(state, [doc])[0] for doc in (doc_a, doc_b))
            if variant == "ot":
                plan = OT.ipot(OT.cost_matrix(emb_a, emb_b).values.data, beta=0.5,
                               outer_iters=30)
                want = OT.alignment_matrix(plan)
            else:
                want = CA.cross_attention(emb_a, emb_b).alpha.data
            assert matrix.shape == (len(doc_a), len(doc_b))
            assert np.array_equal(matrix, want)

    def test_unknown_variant_raises(self, ragged_docs):
        make_state, docs = ragged_docs
        with pytest.raises(ValueError, match="cosine"):
            TR.align_pairs(make_state(), [(docs[0], docs[1])], "cosine", 5, 0.5)


class TestEvalReconstruction:
    def test_oracle_predictor_scores_one(self, small_world, monkeypatch):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())

        def oracle(params, enc_config, batch):
            return [[int(batch.gold_ids[row, pos]) for pos in positions]
                    for row, positions in enumerate(batch.masked_positions)]

        monkeypatch.setattr(TR, "_predict_masked", oracle)
        rows = TR.eval_reconstruction(state, docs, pool)
        for row in rows:
            if row["n_examples"]:
                assert row["accuracy"] == 1.0

    def test_untrained_model_at_chance_level(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(seed=11))
        rows = TR.eval_reconstruction(state, docs, pool, span_lengths=(1,))
        n = rows[0]["n_examples"]
        acc = rows[0]["accuracy"]
        p = 1.0 / len(vocab)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(acc - p) <= 3 * sigma + 1e-12

    def test_exact_match_bounded_by_per_token_accuracy(self, small_world):
        vocab, docs, pool, _, _ = small_world
        cfg = desk_config(stage1_epochs=2)
        state = TR.init_train_state(vocab, pool, cfg)
        TR.run_stage1(docs, pool, state)
        rows = TR.eval_reconstruction(state, docs, pool, span_lengths=(2,))
        if rows[0]["n_examples"] == 0:
            pytest.skip("no spans of length 2 detected")
        # independent per-token tally over the same spans
        from domainlm.masking import MaskedExample, collate
        from domainlm.phrases import detect
        token_hits = token_total = 0
        for doc in docs:
            for match in detect(doc, pool):
                if match.end - match.start != 2:
                    continue
                ids = list(doc.tokens)
                for p_ in range(match.start, match.end):
                    ids[p_] = C.MASK_ID
                ex = MaskedExample(input_ids=ids, gold_ids=list(doc.tokens),
                                   masked_positions=list(range(match.start, match.end)))
                preds = TR._predict_masked(state.params, state.enc_config, collate([ex]))[0]
                for pred, pos in zip(preds, ex.masked_positions):
                    token_total += 1
                    token_hits += pred == doc.tokens[pos]
        per_token = token_hits / token_total
        assert rows[0]["accuracy"] <= per_token + 1e-12

    def test_predictions_are_the_argmax_of_the_full_logits(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(stage1_epochs=2))
        TR.run_stage1(docs, pool, state)
        rng = np.random.default_rng(3)
        examples = []
        for k, doc in enumerate(docs[:16]):
            positions = sorted(rng.choice(len(doc), size=1 + k % 3, replace=False).tolist())
            ids = [C.MASK_ID if i in positions else t for i, t in enumerate(doc.tokens)]
            examples.append(MaskedExample(ids, list(doc.tokens), positions))
        batch = collate(examples)
        assert not batch.pad_mask.all()  # ragged documents: the batch pads
        hidden = E.forward(batch.input_ids, batch.pad_mask, state.params, state.enc_config)
        logits = E.token_logits(hidden, state.params).data
        want = [[int(np.argmax(logits[row, pos])) for pos in positions]
                for row, positions in enumerate(batch.masked_positions)]
        got = TR._predict_masked(state.params, state.enc_config, batch)
        assert got == want
        assert any(pred == [doc.tokens[p] for p in ex.masked_positions]
                   for pred, doc, ex in zip(got, docs, examples))  # a trained model

    def test_absent_length_is_none_not_zero(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        rows = TR.eval_reconstruction(state, docs, pool, span_lengths=(1, 9))
        assert rows[1]["n_examples"] == 0
        assert rows[1]["accuracy"] is None

    def test_deterministic_given_seed(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        r1 = TR.eval_reconstruction(state, docs, pool, seed=5)
        r2 = TR.eval_reconstruction(state, docs, pool, seed=5)
        assert r1 == r2

    @pytest.mark.parametrize("eval_batch", [0, -1])
    def test_non_positive_eval_batch_rejected(self, small_world, eval_batch):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        with pytest.raises(ValueError, match="eval_batch"):
            TR.eval_reconstruction(state, docs, pool, eval_batch=eval_batch)


# What the error names for a file that is readable but damaged. An entry from
# "checkpoint: " on is the whole message after the path.
DAMAGE_NAMED = {
    "no-stage2_iters_done": "'stage2_iters_done'", "version-1": "version 1 checkpoints",
    "version-2": "version 2 checkpoints", "version-3.0": "version must be an int, got 3.0",
    "version-true": "version must be an int, got True",
    "no-warm_iters": "train_config has no 'warm_iters'", "no-heads": "shape has no 'heads'",
    "vocab-5-int": "vocab id 5: vocab entries must be strings, got 7",
    "vocab-repeated-token": "vocab id 5: repeated vocab token",
    "vocab-specials-swapped": "vocab: does not start with the special tokens [PAD] [UNK]",
    **{f"{key}-{how}": f"{key!r} is float64" for key in ARENAS for how in ("short", "long")},
    **{damage: f"{damage.partition('-')[0]!r} holds a non-finite value"
       for damage in ("arena-nan", "arena-inf", "adam_m-nan")},
    "adam_v-negative": "'adam_v' holds a negative value",
    "tok_emb-10-rows": "'arena' is float64",
    "vocab_size-changed": "multiple values for keyword argument 'vocab_size'",
    "shape-carries-max_seq_len": "multiple values for keyword argument 'max_seq_len'",
    "dim-float": "checkpoint: dim must be of type int, got 32.0",
    "vocab-3-longer": "'arena' is float64", "phrases-1-shorter": "'arena' is float64",
    "stage1_iters_done-float": "counters must be integers",
    "batch_size-string": "batch_size must be of type int, got '8'",
    "batch_size-float": "batch_size must be of type int, got 8.0",
    "seed-float": "seed must be of type int, got 0.5",
    "eval_docs-float": "eval_docs must be of type int, got 2.0",
    "stage1_epochs-true": "stage1_epochs must be of type int, got True",
    "warm_alpha-2": "warm_alpha must lie in [0, 1]",
    "bootstrap_every-0": "bootstrap_every must be >= 1",
    "scheduler-iteration-string": "checkpoint: iteration must be of type int, got '0'",
    "scheduler-iteration-null": "checkpoint: iteration must be of type int, got nan",
    "scheduler-bootstrap_every-0": "scheduler fields must be ['alpha', 'iteration', ",
    "scheduler-alpha-2": "checkpoint: alpha must lie in [0, 1]",
    "scheduler-iteration-negative": "checkpoint: iteration must be >= 0",
    "scheduler-word_first-inf": "checkpoint: word_first must be finite, got inf",
    "phrases-0-float-ids": "phrase 0 [1.5, 2.0] is no pool phrase (id)",
    "phrases-0-string-ids": "phrase 0 ['5', '6'] is no pool phrase (id)",
    "phrases-0-bool-ids": "phrase 0 [True, True] is no pool phrase (id)",
    "phrases-0-string": "phrase 0 'ab' is no pool phrase (list)",
    "phrases-0-empty": "phrase 0 [] is no pool phrase (short)",
    "phrases-0-ids-outside-vocab": "phrase 0 [-5, 99999] is no pool phrase (id)",
    "phrases-0-unk": "is no pool phrase (oov)",
    "phrases-1-repeated": "phrases must be distinct and in phrase-id order",
}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, small_world, tmp_path):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        TR.run_stage1(docs, pool, state)
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, state)
        loaded = TR.load_checkpoint(path)
        assert params_bytes(loaded) == params_bytes(state)
        assert list(loaded.params.keys()) == list(state.params.keys())
        assert (loaded.stage1_iters_done, loaded.stage2_iters_done) == \
            (state.stage1_iters_done, state.stage2_iters_done)
        assert loaded.adam.arena_m.tobytes() == state.adam.arena_m.tobytes()
        assert loaded.adam.arena_v.tobytes() == state.adam.arena_v.tobytes()
        assert loaded.scheduler.to_dict() == state.scheduler.to_dict()
        assert loaded.mask_rng.bit_generator.state == state.mask_rng.bit_generator.state
        assert loaded.vocab.id_to_token == vocab.id_to_token

    def test_save_load_resume_matches_uninterrupted(self, small_world, tmp_path):
        vocab, docs, pool, _, _ = small_world
        cfg = desk_config(stage1_epochs=3, seed=4)
        # uninterrupted run
        full = TR.init_train_state(vocab, pool, cfg)
        TR.run_stage1(docs, pool, full)
        # interrupted halfway through an epoch
        partial = TR.init_train_state(vocab, pool, desk_config(stage1_epochs=1, seed=4))
        TR.run_stage1(docs, pool, partial)
        half_cfg = desk_config(stage1_epochs=3, seed=4)
        partial.config = half_cfg  # extend the budget, then resume
        path = tmp_path / "mid.npz"
        TR.save_checkpoint(path, partial)
        resumed = TR.load_checkpoint(path)
        TR.run_stage1(docs, pool, resumed)
        assert params_bytes(resumed) == params_bytes(full)

    def test_failed_save_keeps_previous_checkpoint(self, small_world, tmp_path,
                                                   monkeypatch):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, state)
        before = path.read_bytes()
        TR.run_stage1(docs, pool, state)

        def broken_savez(fh, **arrays):
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(TR.np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            TR.save_checkpoint(path, state)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert TR.load_checkpoint(path).stage1_iters_done == 0
        assert list(tmp_path.iterdir()) == [path]

    def test_stores_the_phrase_pool_in_phrase_id_order(self, small_world, tmp_path):
        vocab, _, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, state)
        phrases = TR.load_checkpoint(path).phrases
        assert phrases and [pool.phrase_ids[p] for p in phrases] == list(range(len(pool)))

    def test_holds_exactly_the_arenas_and_meta(self, small_world, tmp_path):
        vocab, _, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, state)
        with np.load(path) as data:
            assert sorted(data.files) == ["adam_m", "adam_v", "arena", "meta"]
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            assert data["arena"].tobytes() == state.adam.arena.tobytes()
        assert meta["version"] == TR.CHECKPOINT_VERSION == 3
        # each fact once: what a run derives from these is not stored
        assert sorted(meta) == ["mask_rng", "phrases", "scheduler", "shape",
                                "stage1_iters_done", "stage2_iters_done", "train_config",
                                "version", "vocab"]
        assert sorted(meta["shape"]) == ["dim", "ffn_dim", "heads", "layers"]
        assert sorted(meta["scheduler"]) == sorted([
            "alpha", "iteration", "word_first", "word_prev", "word_curr",
            "phrase_first", "phrase_prev", "phrase_curr"])
        assert sorted(meta["train_config"]) == sorted(f.name for f in fields(TR.TrainConfig))

    def test_a_loaded_run_derives_what_a_fresh_run_derives(self, small_world, tmp_path):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(warm_iters=3, ema_decay=0.5,
                                                             bootstrap_every=2, max_seq_len=24))
        TR.run_stage1(docs, pool, state)
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, state)
        loaded = TR.load_checkpoint(path)
        assert loaded.enc_config == state.enc_config
        assert loaded.config.max_seq_len == loaded.enc_config.max_seq_len == 24
        assert (loaded.enc_config.vocab_size, loaded.enc_config.phrase_vocab_size) == \
            (len(loaded.vocab), len(loaded.phrases))
        assert [getattr(loaded.scheduler, k) for k in TR.SCHEDULER_KEYS] == [3, 0.6, 0.5, 2]
        assert (loaded.stage1_iters_done, loaded.stage2_iters_done) == \
            (state.stage1_iters_done, 0) != (0, 0)

    def test_a_stored_step_count_is_not_read(self, small_world, tmp_path, adam_steps):
        # Adam's step count is the sum of the stage counters; a stray copy cannot drift
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        TR.run_stage1(docs, pool, state)
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, state)

        def edit(arrays):
            meta = json.loads(arrays["meta"])
            meta["adam_t"] = state.stage1_iters_done + 100
            arrays["meta"] = json.dumps(meta).encode("utf-8")

        rewrite_checkpoint(path, path, edit)
        loaded = TR.load_checkpoint(path)
        loaded.config.stage1_epochs = 2
        adam_steps.clear()
        TR.run_stage1(docs, pool, loaded)
        assert adam_steps[0] == state.stage1_iters_done + 1

    @pytest.mark.parametrize("drop", ["meta", "arena", "adam_v"])
    def test_missing_array_raises_value_error_naming_path(self, small_world, tmp_path,
                                                          drop):
        vocab, _, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, state)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != drop}
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=str(path)) as exc:
            TR.load_checkpoint(path)
        assert drop in str(exc.value)

    @pytest.mark.parametrize("damage", CHECKPOINT_DAMAGE)
    def test_corrupt_file_raises_value_error_naming_path(self, small_world, tmp_path,
                                                        damage):
        vocab, _, pool, _, _ = small_world
        path = tmp_path / "model.npz"
        TR.save_checkpoint(path, TR.init_train_state(vocab, pool, desk_config()))
        corrupt_checkpoint(path, path, damage)
        with pytest.raises(ValueError, match=str(path)) as exc:
            TR.load_checkpoint(path)
        named = DAMAGE_NAMED.get(damage, "")
        assert named in str(exc.value)
        if named.startswith("checkpoint: "):
            assert str(exc.value) == f"{path}: not a readable domainlm {named}"
