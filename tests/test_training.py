import json
import math

import numpy as np
import pytest

from domainlm import corpus as C
from domainlm import crossattn as CA
from domainlm import hybrid as H
from domainlm import tensor as T
from domainlm import training as TR
from domainlm import transport as OT

from synthetic import (CHECKPOINT_DAMAGE, build_pair_world, build_phrase_world,
                       corrupt_checkpoint, load_phrase_world, write_pair_world)


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


class TestAdam:
    def make_params(self, values):
        return {"w": T.Tensor(np.array(values), requires_grad=True)}

    def test_zero_gradient_leaves_params_unchanged(self):
        params = self.make_params([1.0, -2.0])
        params["w"].grad = np.zeros(2)
        adam = TR.AdamState.fresh(params)
        TR.adam_step(params, adam, lr=0.1)
        assert np.array_equal(params["w"].data, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        params = self.make_params([0.0, 0.0, 0.0])
        params["w"].grad = np.array([0.5, -3.0, 1e-4])
        adam = TR.AdamState.fresh(params)
        TR.adam_step(params, adam, lr=0.01)
        assert np.allclose(params["w"].data, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_nan_gradient_aborts_with_name(self):
        params = self.make_params([1.0])
        params["w"].grad = np.array([np.nan])
        adam = TR.AdamState.fresh(params)
        with pytest.raises(TR.NanGradientError, match="'w'"):
            TR.adam_step(params, adam, lr=0.1)

    def test_nan_in_last_parameter_leaves_state_untouched(self):
        params = {"a": T.Tensor(np.array([1.0, 2.0]), requires_grad=True),
                  "b": T.Tensor(np.array([3.0]), requires_grad=True)}
        adam = TR.AdamState.fresh(params)
        params["a"].grad = np.array([0.5, -0.5])
        params["b"].grad = np.array([0.5])
        TR.adam_step(params, adam, lr=0.1)
        before = ({k: p.data.copy() for k, p in params.items()},
                  {k: m.copy() for k, m in adam.m.items()},
                  {k: v.copy() for k, v in adam.v.items()}, adam.t)
        params["b"].grad = np.array([np.nan])
        with pytest.raises(TR.NanGradientError, match="'b'"):
            TR.adam_step(params, adam, lr=0.1)
        for name in params:
            assert params[name].data.tobytes() == before[0][name].tobytes()
            assert adam.m[name].tobytes() == before[1][name].tobytes()
            assert adam.v[name].tobytes() == before[2][name].tobytes()
        assert adam.t == before[3] == 1

    def test_missing_gradient_skipped(self):
        params = self.make_params([1.0])
        adam = TR.AdamState.fresh(params)
        TR.adam_step(params, adam, lr=0.1)
        assert params["w"].data[0] == 1.0

    @staticmethod
    def reference_step(params, m, v, t, lr):
        """The per-parameter loop the flat arena replaced; returns the new t."""
        t += 1
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
        return t

    def test_arena_matches_per_parameter_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 3), "d": (4,), "e": (6, 2)}
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: T.Tensor(init[k], requires_grad=True) for k in shapes}
        ref = {k: T.Tensor(init[k].copy(), requires_grad=True) for k in shapes}
        adam = TR.AdamState.fresh(params)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        t = 0
        # no gradient: none; in the middle; at the end; both; neighbours
        for missing in [(), ("c",), ("e",), ("b", "e"), ("c", "d")]:
            for k, s in shapes.items():
                g = None if k in missing else rng.standard_normal(s) * 10.0 ** rng.integers(-4, 3)
                params[k].grad, ref[k].grad = g, g
            TR.adam_step(params, adam, lr=3e-3)
            t = self.reference_step(ref, m, v, t, lr=3e-3)
            assert adam.t == t
            for k in shapes:
                assert params[k].data.tobytes() == ref[k].data.tobytes(), k
                assert adam.m[k].tobytes() == m[k].tobytes(), k
                assert adam.v[k].tobytes() == v[k].tobytes(), k
        assert all(np.shares_memory(p.data, adam.arena) for p in params.values())


def assert_params_in_arena(state):
    """Every parameter and moment is a view into its arena, in parameter order."""
    adam = state.adam
    for name, p in state.params.items():
        assert np.shares_memory(p.data, adam.arena), name
        assert np.shares_memory(adam.m[name], adam.arena_m), name
        assert np.shares_memory(adam.v[name], adam.arena_v), name
    flat = np.concatenate([p.data.ravel() for p in state.params.values()])
    assert flat.tobytes() == adam.arena.tobytes()


class TestArena:
    def test_params_stay_views_after_init_load_and_training(self, small_world, tmp_path):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        assert_params_in_arena(state)
        TR.run_stage1(docs, pool, state)
        assert state.adam.t > 0
        assert_params_in_arena(state)
        TR.save_checkpoint(tmp_path / "model.npz", state)
        loaded = TR.load_checkpoint(tmp_path / "model.npz")
        assert_params_in_arena(loaded)
        assert loaded.adam.arena_m.tobytes() == state.adam.arena_m.tobytes()
        assert loaded.adam.arena_v.tobytes() == state.adam.arena_v.tobytes()
        loaded.config.stage1_epochs = 2
        TR.run_stage1(docs, pool, loaded)
        assert loaded.adam.t == 2 * state.adam.t
        assert_params_in_arena(loaded)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(stage1_epochs=-1).validate()
        with pytest.raises(ValueError):
            TR.TrainConfig(cea_weight=-0.5).validate()
        with pytest.raises(ValueError):
            TR.TrainConfig(cea_variant="nope").validate()


class TestStage1:
    def test_iteration_count_bookkeeping(self, small_world):
        vocab, docs, pool, _, _ = small_world
        cfg = desk_config(stage1_epochs=2)
        state = TR.init_train_state(vocab, pool, cfg)
        TR.run_stage1(docs, pool, state)
        expected = 2 * math.ceil(len(docs) / cfg.batch_size)
        assert state.stage1_iters_done == expected
        assert len(state.report.records) == expected

    def test_alpha_trace_respects_warm_fix(self, small_world):
        vocab, docs, pool, _, _ = small_world
        cfg = desk_config(warm_iters=15, warm_alpha=0.6)
        state = TR.init_train_state(vocab, pool, cfg)
        TR.run_stage1(docs, pool, state)
        for rec in state.report.records:
            if rec["iter"] <= 15:
                assert rec["alpha"] == 0.6

    def test_exactly_one_loss_per_record(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        TR.run_stage1(docs, pool, state)
        for rec in state.report.records:
            assert (rec["L_w"] is None) != (rec["L_p"] is None)
            assert (rec["mode"] == "word") == (rec["L_p"] is None)

    def test_force_alpha_one_runs_word_only(self, small_world):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(force_alpha=1.0))
        TR.run_stage1(docs, pool, state)
        assert all(rec["mode"] == "word" for rec in state.report.records)
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
        at_warm_exit = {}

        def snap(rec):
            if rec["iter"] == cfg.warm_iters:
                at_warm_exit["word"] = state.scheduler.word_curr
                at_warm_exit["phrase"] = state.scheduler.phrase_curr

        TR.run_stage1(docs, pool, state, progress=snap)
        post = [r["mode"] for r in state.report.records if r["iter"] > cfg.warm_iters]
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


class TestStage2:
    def test_lambda_zero_matches_stage1_on_pair_corpus(self, pair_world, small_world):
        world, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world  # no pool phrases occur in pair docs
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

    def test_cea_records_present_with_ot(self, pair_world, small_world):
        world, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world
        cfg = TR.TrainConfig(stage1_epochs=0, stage2_epochs=1, batch_size=8,
                             learning_rate=3e-3, seed=0, warm_iters=2,
                             cea_weight=1.0, ipot_outer_iters=20, eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        TR.run_stage2(pair_set, pool, state)
        assert all(rec["L_cea"] is not None for rec in state.report.records)
        assert all(rec["stage"] == 2 for rec in state.report.records)

    def test_attention_variant_produces_triplet_records(self, pair_world, small_world):
        world, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world
        cfg = TR.TrainConfig(stage1_epochs=0, stage2_epochs=1, batch_size=8,
                             learning_rate=3e-3, seed=0, warm_iters=2,
                             cea_weight=1.0, cea_variant="attention", eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        TR.run_stage2(pair_set, pool, state)
        assert all(rec["L_cea"] is not None for rec in state.report.records)
        assert all(rec["L_cea"] >= 0.0 for rec in state.report.records)

    def test_cea_loss_mean_drops_from_first_epoch(self, pair_world, small_world):
        world, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world
        cfg = TR.TrainConfig(stage1_epochs=1, stage2_epochs=4, batch_size=8,
                             learning_rate=3e-3, seed=1, warm_iters=10,
                             cea_weight=1.0, ipot_outer_iters=30, eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        docs = [d for pair in pair_set.pairs for d in
                (pair_set.content[pair[0]], pair_set.content[pair[1]])]
        TR.run_stage1(docs, pool, state)
        TR.run_stage2(pair_set, pool, state)
        cea = [r["L_cea"] for r in state.report.records if r["L_cea"] is not None]
        per_epoch = math.ceil(len(pair_set) / cfg.batch_size)
        first = sum(cea[:per_epoch]) / per_epoch
        last = sum(cea[-per_epoch:]) / per_epoch
        assert last <= 0.9 * first

    def test_reset_scheduler_takes_config_hyperparameters(self, pair_world, small_world):
        _, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world
        cfg = TR.TrainConfig(stage1_epochs=0, stage2_epochs=1, batch_size=8,
                             learning_rate=3e-3, warm_iters=3, warm_alpha=0.7,
                             ema_decay=0.5, bootstrap_every=2, cea_weight=0.0,
                             reset_scheduler_for_stage2=True, eval_docs=0,
                             max_seq_len=32)
        state = TR.init_train_state(vocab, pool, cfg)
        state.scheduler = H.SchedulerState(warm_iters=99, warm_alpha=0.1,
                                           ema_decay=0.0, bootstrap_every=7)
        TR.run_stage2(pair_set, pool, state)
        sched = state.scheduler
        assert (sched.warm_iters, sched.warm_alpha, sched.ema_decay,
                sched.bootstrap_every) == (3, 0.7, 0.5, 2)
        assert sched.iteration == len(state.report.records)

    @pytest.mark.parametrize("stage1_epochs", [0, 1])
    def test_reset_scheduler_resume_mid_stage2_matches_uninterrupted(
            self, pair_world, small_world, tmp_path, stage1_epochs):
        _, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world
        docs = [pair_set.content[e] for pair in pair_set.pairs for e in pair]

        def config(stage2_epochs):
            return TR.TrainConfig(stage1_epochs=stage1_epochs, stage2_epochs=stage2_epochs,
                                  batch_size=8, learning_rate=3e-3, seed=2, warm_iters=5,
                                  cea_weight=1.0, ipot_outer_iters=10,
                                  reset_scheduler_for_stage2=True, eval_docs=0,
                                  max_seq_len=32)

        def run(state):
            if stage1_epochs:
                TR.run_stage1(docs, pool, state)
            TR.run_stage2(pair_set, pool, state)

        full = TR.init_train_state(vocab, pool, config(6))
        run(full)
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
        steps = [r["iter"] for r in full.report.records]
        assert steps == list(range(1, full.stage1_iters_done + full.stage2_iters_done + 1))

    def test_empty_pair_set_rejected(self, pair_world, small_world):
        world, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config(stage2_epochs=1))
        empty = C.EntityPairSet(pairs=[], content={})
        with pytest.raises(ValueError):
            TR.run_stage2(empty, pool, state)


@pytest.fixture(scope="module")
def ragged_docs(pair_world, small_world):
    """A state factory and six documents of different lengths, so a batch pads."""
    _, vocab, _ = pair_world
    _, _, pool, _, _ = small_world

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


def _functional(embs, weights):
    terms = [T.tensor_sum(T.mul(e, T.Tensor(w))) for e, w in zip(embs, weights)]
    return sum(terms[1:], terms[0])


class TestAlignmentPass:
    def test_padded_pass_matches_per_document_passes(self, ragged_docs):
        make_state, docs = ragged_docs
        state = make_state()
        batched = TR._embed_docs(state, docs)
        single = [TR._doc_embeddings(state, d) for d in docs]
        for doc, got, want in zip(docs, batched, single):
            assert got.shape == (len(doc), state.enc_config.dim)
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        weights = [np.random.default_rng(i).normal(size=e.shape) for i, e in enumerate(single)]
        got = _grads_of(state, _functional(TR._embed_docs(state, docs), weights))
        want = _grads_of(state, _functional(single, weights))
        largest = max(np.abs(g).max() for g in want.values())
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-12 * largest, err_msg=name)

    @pytest.mark.parametrize("variant", ["ot", "attention"])
    def test_alignment_loss_matches_per_pair_reference(self, ragged_docs, variant):
        make_state, docs = ragged_docs
        state = make_state(variant)
        content = {f"e{i}": d for i, d in enumerate(docs)}
        pair_set = C.EntityPairSet(pairs=[("e0", "e5"), ("e1", "e4"), ("e2", "e3")],
                                   content=content)
        negatives = ["e3", "e2", "e0"]
        got = TR._alignment_loss(state, pair_set, np.array([2, 0, 1]), negatives)
        cfg = state.config
        parts = []
        for j in (2, 0, 1):
            a, b = (TR._doc_embeddings(state, content[e]) for e in pair_set.pairs[j])
            if variant == "ot":
                parts.append(OT.cea_loss(a, b, beta=cfg.ipot_beta,
                                         outer_iters=cfg.ipot_outer_iters))
            else:
                neg = TR._doc_embeddings(state, content[negatives[j]])
                parts.append(CA.triplet_loss(a, b, neg))
        want = T.scale(sum(parts[1:], parts[0]), 1.0 / len(parts))
        assert got.item() == pytest.approx(want.item(), rel=1e-12, abs=0)

    @pytest.mark.parametrize("variant", ["ot", "attention"])
    @pytest.mark.parametrize("cea_weight, passes", [(1.0, 2), (0.0, 1)])
    def test_stage2_step_runs_one_masked_and_one_alignment_pass(
            self, pair_world, small_world, monkeypatch, variant, cea_weight, passes):
        _, vocab, pair_set = pair_world
        _, _, pool, _, _ = small_world
        calls = []
        forward = TR.forward
        monkeypatch.setattr(TR, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
        state = TR.init_train_state(vocab, pool, desk_config(
            stage1_epochs=0, stage2_epochs=1, cea_weight=cea_weight, cea_variant=variant,
            ipot_outer_iters=5))
        TR.run_stage2(pair_set, pool, state)
        assert len(state.report.records) == state.stage2_iters_done > 1
        assert len(calls) == passes * state.stage2_iters_done


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
        assert loaded.adam.t == state.adam.t
        for name in state.adam.m:
            assert loaded.adam.m[name].tobytes() == state.adam.m[name].tobytes()
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

    def test_checkpoint_carrying_ipot_inner_k_loads_and_resumes(self, small_world, tmp_path):
        # v1 checkpoints written before the knob was removed store it in
        # train_config, right after ipot_outer_iters.
        vocab, docs, pool, _, _ = small_world
        full = TR.init_train_state(vocab, pool, desk_config(stage1_epochs=2, seed=6))
        TR.run_stage1(docs, pool, full)
        partial = TR.init_train_state(vocab, pool, desk_config(stage1_epochs=1, seed=6))
        TR.run_stage1(docs, pool, partial)
        partial.config = desk_config(stage1_epochs=2, seed=6)
        path = tmp_path / "old.npz"
        TR.save_checkpoint(path, partial)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        train_config = {}
        for key, value in meta["train_config"].items():
            train_config[key] = value
            if key == "ipot_outer_iters":
                train_config["ipot_inner_k"] = 1
        meta["train_config"] = train_config
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)

        resumed = TR.load_checkpoint(path)
        assert not hasattr(resumed.config, "ipot_inner_k")
        TR.run_stage1(docs, pool, resumed)
        assert params_bytes(resumed) == params_bytes(full)
        TR.save_checkpoint(path, resumed)
        with np.load(path) as data:
            saved = json.loads(bytes(data["meta"]).decode("utf-8"))
        assert "ipot_inner_k" not in saved["train_config"]


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

    @pytest.mark.parametrize("drop", ["meta", "adam_v/tok_emb"])
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
        with pytest.raises(ValueError, match=str(path)):
            TR.load_checkpoint(path)


class TestReport:
    def test_jsonl_stable_key_order(self, small_world, tmp_path):
        vocab, docs, pool, _, _ = small_world
        state = TR.init_train_state(vocab, pool, desk_config())
        TR.run_stage1(docs, pool, state)
        out = tmp_path / "report.jsonl"
        state.report.write_jsonl(out)
        lines = out.read_text().strip().splitlines()
        for line in lines[:-1]:
            rec = json.loads(line)
            if "iter" in rec:
                assert list(rec.keys()) == ["iter", "stage", "mode", "L_w", "L_p",
                                            "L_cea", "alpha"]
        assert "wall_time" in json.loads(lines[-1])

    def test_monotone_iteration_enforced(self):
        rep = TR.TrainReport()
        rep.add_iteration(1, 1, "word", 1.0, None, None, 0.6)
        with pytest.raises(ValueError):
            rep.add_iteration(1, 1, "word", 1.0, None, None, 0.6)
