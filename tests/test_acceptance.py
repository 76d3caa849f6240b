"""Acceptance gate: one test per criterion, each printing its verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Training-based criteria (7-9) use the synthetic worlds from synthetic.py
and desk-scale configs; tolerances are stated inline next to each check.
"""
import math
import time

import numpy as np
import pytest

from domainlm import corpus as C
from domainlm import crossattn as CA
from domainlm import encoder as E
from domainlm import hybrid as H
from domainlm import masking as M
from domainlm import phrases as P
from domainlm import tensor as T
from domainlm import training as TR
from domainlm import transport as OT

from gradcheck import check_grads
from lp_oracle import exact_ot_oracle
from synthetic import build_pair_world, build_phrase_world, write_pair_world

ARTANH_HALF = 0.5 * math.log(3.0)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------- criteria 1-3


def random_instances(n=20, max_side=6):
    rng = np.random.default_rng(20240001)
    out = []
    for _ in range(n):
        m, n_ = rng.integers(2, max_side + 1, size=2)
        out.append(rng.uniform(size=(int(m), int(n_))))
    return out


def test_criterion_01_ipot_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    for c in random_instances():
        _, lp_cost = exact_ot_oracle(c)
        plan = OT.ipot(c, beta=0.5, outer_iters=2000)
        worst = max(worst, abs(plan.cost - lp_cost))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 5.0
    report(1, "IPOT-oracle agreement", ok,
           f"(max |cost gap| {worst:.2e}, {elapsed:.2f}s for 20 instances)")


def test_criterion_02_ipot_marginals():
    rng = np.random.default_rng(20240002)
    worst_fresh = 0.0
    for _ in range(5):
        m, n = rng.integers(2, 7, size=2)
        c = rng.uniform(size=(int(m), int(n)))
        # the sigma update is the final inner update: the formed plan's
        # column marginal must be exact after every outer iteration
        for outer in (1, 2, 3, 5, 10, 50, 200):
            plan = OT.ipot(c, beta=0.5, outer_iters=outer)
            gap = np.abs(plan.values.sum(axis=0) - 1.0 / n).max()
            worst_fresh = max(worst_fresh, gap)
    # opposite marginal converges
    worst_conv = 0.0
    for c in random_instances(10):
        plan = OT.ipot(c, beta=0.5, outer_iters=2000)
        worst_conv = max(worst_conv,
                         np.abs(plan.values.sum(axis=1) - 1.0 / c.shape[0]).max())
    ok = worst_fresh <= 1e-12 and worst_conv <= 1e-3
    report(2, "IPOT marginal exactness", ok,
           f"(just-updated {worst_fresh:.2e} <= 1e-12, opposite {worst_conv:.2e} <= 1e-3)")


def test_criterion_03_plan_sparsity():
    rng = np.random.default_rng(20240003)
    worst = 1.0
    for c in random_instances():
        m, n = c.shape
        perturbed = c + rng.uniform(0, 1e-4, size=c.shape)  # unique optimum
        plan = OT.ipot(perturbed, beta=0.5, outer_iters=4000)
        flat = np.sort(plan.values.reshape(-1))[::-1]
        share = flat[: m + n - 1].sum() / plan.values.sum()
        worst = min(worst, share)
    ok = worst >= 0.99
    report(3, "transport plan sparsity", ok,
           f"(min mass share on m+n-1 largest entries {worst:.4f} >= 0.99)")


# ------------------------------------------------------------------ criterion 4


def test_criterion_04_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240004)

    def rt(shape, scale=1.0):
        return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

    worst_op = 0.0
    # individual ops at 1e-6
    a, b = rt((3, 4)), rt((4, 5))
    worst_op = max(worst_op, check_grads(lambda: T.matmul(a, b).sum(), [a, b], tol=1e-6))
    x, bias = rt((2, 3, 6)), rt((6,))
    worst_op = max(worst_op, check_grads(lambda: (x + bias).sum(), [x, bias], tol=1e-6))
    u, v = rt((4, 4)), rt((4, 4))
    worst_op = max(worst_op, check_grads(lambda: T.scale(u * v, 0.3).sum(), [u, v], tol=1e-6))
    w = rt((3, 7))
    probe = T.Tensor(rng.standard_normal((3, 7)))
    worst_op = max(worst_op, check_grads(lambda: (T.softmax(w) * probe).sum(), [w], tol=1e-6))
    xn, g_, b_ = rt((4, 5)), rt((5,)), rt((5,))
    pr2 = T.Tensor(rng.standard_normal((4, 5)))
    worst_op = max(worst_op,
                   check_grads(lambda: (T.layer_norm(xn, g_, b_) * pr2).sum(),
                               [xn, g_, b_], tol=1e-6))
    ge = rt((5, 5))
    worst_op = max(worst_op, check_grads(lambda: T.gelu(ge).sum(), [ge], tol=1e-6))
    lg = rt((5, 8))
    worst_op = max(worst_op,
                   check_grads(lambda: T.cross_entropy(lg, [0, 3, 7, 1, 2]), [lg], tol=1e-6))
    tb = rt((6, 4))
    ids = np.array([[0, 5, 5], [2, 1, 0]])
    worst_op = max(worst_op,
                   check_grads(lambda: (T.embedding(tb, ids) * T.embedding(tb, ids)).sum(),
                               [tb], tol=1e-6))
    ca, cb = rt((4, 6)), rt((3, 6))
    pr3 = T.Tensor(rng.standard_normal((4, 3)))
    worst_op = max(worst_op,
                   check_grads(lambda: (T.cosine_similarity(ca, cb) * pr3).sum(),
                               [ca, cb], tol=1e-6))

    # full tiny model at 1e-4
    cfg = E.EncoderConfig(vocab_size=20, phrase_vocab_size=5, layers=2, dim=16,
                          heads=2, ffn_dim=32, max_seq_len=8)
    params = E.init_params(cfg, np.random.default_rng(7))
    ids2 = np.random.default_rng(8).integers(4, 20, size=(2, 5))
    pad = np.ones((2, 5), dtype=bool)
    pad[1, 4] = False
    ids2[1, 4] = 0
    probe_tok = T.Tensor(np.random.default_rng(9).standard_normal((2, 5, 20)))
    probe_phr = T.Tensor(np.random.default_rng(10).standard_normal((2, 5)))

    def model_loss():
        hidden = E.forward(ids2, pad, params, cfg)
        tok = (E.token_logits(hidden, params) * probe_tok).sum()
        read = E.gather_positions(hidden, [0, 0, 1, 1], [0, 1, 1, 2])
        phr = (E.phrase_logits(read, [[0, 1], [2, 3]], params) * probe_phr).sum()
        return tok + phr

    worst_model = check_grads(model_loss, list(params.values()), tol=1e-4)
    elapsed = time.perf_counter() - start
    ok = worst_op <= 1e-6 and worst_model <= 1e-4 and elapsed < 60.0
    report(4, "gradient suite", ok,
           f"(ops {worst_op:.2e} <= 1e-6, model {worst_model:.2e} <= 1e-4, {elapsed:.1f}s)")


# ------------------------------------------------------------------ criterion 5


def test_criterion_05_masking_statistics():
    vocab_size = 60
    # exact counts for every length 1..200
    counts_ok = True
    rng = np.random.default_rng(20240005)
    for length in range(1, 201):
        doc = C.Document(tokens=[4 + i % 40 for i in range(length)])
        ex = M.mask_words(doc, vocab_size, rng)
        if len(ex.masked_positions) != max(1, math.ceil(0.15 * length)):
            counts_ok = False
            break

    # 80/10/10 over 10^4 masked positions
    n_mask = n_rand = n_keep = total = 0
    doc = C.Document(tokens=[4 + i % 40 for i in range(40)])
    while total < 10_000:
        ex = M.mask_words(doc, vocab_size, rng)
        for pos in ex.masked_positions:
            total += 1
            if ex.input_ids[pos] == C.MASK_ID:
                n_mask += 1
            elif ex.input_ids[pos] == ex.gold_ids[pos]:
                n_keep += 1
            else:
                n_rand += 1
    prop_ok = (abs(n_mask / total - 0.8) <= 0.02 and
               abs(n_rand / total - 0.1) <= 0.02 and
               abs(n_keep / total - 0.1) <= 0.02)

    # selection frequencies proportional to softmax of quality scores
    scores = [0.55, 0.8, 0.95]
    tokens = list(range(4, 24))
    doc = C.Document(tokens=tokens)
    matches = [P.PhraseMatch(start=0, end=2, score=scores[0], phrase_id=0),
               P.PhraseMatch(start=5, end=7, score=scores[1], phrase_id=1),
               P.PhraseMatch(start=10, end=12, score=scores[2], phrase_id=2)]
    weights = np.exp(scores) / np.exp(scores).sum()
    first = np.zeros(3)
    trials = 10_000
    for _ in range(trials):
        _, sampled = P.sample_phrase_tokens(matches, math.ceil(0.15 * len(doc)), rng)
        first[sampled[0].phrase_id] += 1
    freq_gap = np.abs(first / trials - weights).max()
    freq_ok = freq_gap <= 0.02

    ok = counts_ok and prop_ok and freq_ok
    report(5, "masking statistics", ok,
           f"(counts exact: {counts_ok}, 80/10/10 gaps "
           f"{abs(n_mask/total-0.8):.3f}/{abs(n_rand/total-0.1):.3f}/{abs(n_keep/total-0.1):.3f}, "
           f"selection gap {freq_gap:.3f})")


# ------------------------------------------------------------------ criterion 6


def test_criterion_06_scheduler_law():
    # mode law over an eta ratio grid
    law_ok = True
    for ratio in np.concatenate([np.linspace(0.05, 3.0, 100), [0.54, 0.55, 0.5493]]):
        s = H.SchedulerState(warm_iters=0)
        s.iteration = 1
        s.word_first, s.word_prev, s.word_curr = 10.0, 5.0 + ratio, 5.0
        s.phrase_first, s.phrase_prev, s.phrase_curr = 10.0, 6.0, 5.0
        H.update_alpha(s)
        expected = "word" if ratio > ARTANH_HALF else "phrase"
        if H.scheduled_mode(s) != expected:
            law_ok = False

    # warm fix: alpha exactly 0.6 for the first 1000 iterations
    warm_ok = True
    s = H.SchedulerState(warm_iters=1000, warm_alpha=0.6)
    s.word_first, s.word_prev, s.word_curr = 10.0, 1.0, 0.5
    s.phrase_first, s.phrase_prev, s.phrase_curr = 10.0, 9.9, 9.8
    for it in range(1, 1001):
        s.iteration = it
        if H.update_alpha(s) != 0.6:
            warm_ok = False
    s.iteration = 1001
    adaptive_alpha = H.update_alpha(s)
    warm_ok = warm_ok and adaptive_alpha != 0.6

    # invariance under joint positive rescaling of (eta_w, eta_p)
    scale_ok = True
    rng = np.random.default_rng(20240006)
    for _ in range(50):
        dw, dp = rng.uniform(0.1, 2.0, size=2)
        alphas = []
        for k in (1.0, 3.7, 120.0):
            s = H.SchedulerState(warm_iters=0)
            s.iteration = 1
            s.word_first, s.word_prev, s.word_curr = 10.0, 5.0 + k * dw / 2, 5.0
            s.phrase_first, s.phrase_prev, s.phrase_curr = 10.0, 5.0 + k * dp / 2, 5.0
            # joint rescaling of numerators with shared denominators scales
            # both etas by k, leaving the ratio fixed
            alphas.append(H.update_alpha(s))
        if max(alphas) - min(alphas) > 1e-12:
            scale_ok = False
    ok = law_ok and warm_ok and scale_ok
    report(6, "scheduler law", ok,
           f"(threshold law {law_ok}, warm fix {warm_ok}, scale invariance {scale_ok})")


# -------------------------------------------------------------- criteria 7 + 8


@pytest.fixture(scope="module")
def trained_pair(tmp_path_factory):
    """Word-only and hybrid models per seed, matched 1000-step budgets.

    The schedule is the documented warm-fix applied at desk scale: the
    1000-iteration run sits entirely inside the fixed-alpha window, so
    the hybrid run interleaves word and phrase steps 4:1 throughout.
    """
    tmp = tmp_path_factory.mktemp("accept78")
    world = build_phrase_world(seed=0, n_sentences=2000)
    corpus = tmp / "corpus.txt"
    corpus.write_text("\n".join(world.corpus_lines) + "\n")
    poolf = tmp / "pool.tsv"
    poolf.write_text("\n".join(world.pool_lines) + "\n")
    vocab = C.build_vocab(corpus)
    docs = C.load_corpus(corpus, vocab, 32)
    pool = P.load_pool(poolf, vocab)
    assert len(vocab) >= 150 and len(pool) == 30

    start = time.perf_counter()
    results = {}
    for seed in (0, 1, 2):
        for kind in ("word", "hybrid"):
            cfg = TR.TrainConfig(stage1_epochs=8, stage2_epochs=0, batch_size=16,
                                 learning_rate=3e-3, seed=seed, warm_iters=1000,
                                 warm_alpha=0.6, bootstrap_every=5, eval_docs=0,
                                 max_seq_len=32,
                                 force_alpha=1.0 if kind == "word" else None)
            state = TR.init_train_state(vocab, pool, cfg)
            TR.run_stage1(docs, pool, state)
            rows = TR.eval_reconstruction(state, docs, pool, span_lengths=(1, 2, 3, 4),
                                          seed=seed, max_docs=2000)
            results[(seed, kind)] = rows
    results["elapsed"] = time.perf_counter() - start
    return results


def _pooled_phrase_acc(rows):
    multi = [r for r in rows[1:] if r["n_examples"]]
    n = sum(r["n_examples"] for r in multi)
    return sum(r["accuracy"] * r["n_examples"] for r in multi) / n


def test_criterion_07_reconstruction_trend(trained_pair):
    details = []
    ok = True
    for seed in (0, 1, 2):
        rows = trained_pair[(seed, "word")]
        a1, a2, a3 = (rows[i]["accuracy"] for i in range(3))
        strict = a1 > a2 > a3
        ok = ok and strict
        details.append(f"seed {seed}: {a1:.3f} > {a2:.3f} > {a3:.3f} ({strict})")
    report(7, "word-only accuracy falls with span length", ok, "; ".join(details))


def test_criterion_08_hybrid_benefit(trained_pair):
    details = []
    ok = True
    for seed in (0, 1, 2):
        word_rows = trained_pair[(seed, "word")]
        ahm_rows = trained_pair[(seed, "hybrid")]
        phrase_gain = _pooled_phrase_acc(ahm_rows) - _pooled_phrase_acc(word_rows)
        word_delta = ahm_rows[0]["accuracy"] - word_rows[0]["accuracy"]
        seed_ok = phrase_gain >= 0.0 and word_delta >= -0.02
        ok = ok and seed_ok
        details.append(f"seed {seed}: phrase {phrase_gain:+.3f}, word {word_delta:+.3f}")
    elapsed = trained_pair["elapsed"]
    ok = ok and elapsed < 600.0
    report(8, "hybrid masking benefit at matched budgets", ok,
           f"{'; '.join(details)}; {elapsed:.0f}s < 600s")


# ------------------------------------------------------------------ criterion 9


def test_criterion_09_cea_alignment_recovery(tmp_path):
    world = build_pair_world(seed=0, n_pairs=60, n_syn=20)
    corpus_path, content_path, pairs_path = write_pair_world(tmp_path, world)
    vocab = C.build_vocab(corpus_path)
    docs = C.load_corpus(corpus_path, vocab, 32)
    pair_set = C.load_entity_pairs(pairs_path, content_path, vocab, 32)
    pool = P.PhrasePool(entries={}, phrase_ids={}, surface=[], max_phrase_len=0)

    cfg = TR.TrainConfig(stage1_epochs=1, stage2_epochs=5, batch_size=8,
                         learning_rate=3e-3, seed=0, warm_iters=50, eval_docs=0,
                         max_seq_len=32, cea_weight=1.0, ipot_outer_iters=50)
    state = TR.init_train_state(vocab, pool, cfg)
    TR.run_stage1(docs, pool, state)
    TR.run_stage2(pair_set, pool, state)

    hits = 0
    for ida, idb, wa, wb in world.planted:
        da, db = pair_set.content[ida], pair_set.content[idb]
        ia = da.tokens.index(vocab.token_to_id[wa])
        ib = db.tokens.index(vocab.token_to_id[wb])
        ea = TR._doc_embeddings(state, da)
        eb = TR._doc_embeddings(state, db)
        plan = OT.ipot(OT.cost_matrix(ea, eb).values.data, beta=0.5, outer_iters=2000)
        align = OT.alignment_matrix(plan)
        hits += align[ia, ib] >= 0.5
    recovery = hits / len(world.planted)

    # cross-attention baseline: margin satisfied on >= 90% of training pairs
    cfg2 = TR.TrainConfig(stage1_epochs=1, stage2_epochs=5, batch_size=8,
                          learning_rate=3e-3, seed=0, warm_iters=50, eval_docs=0,
                          max_seq_len=32, cea_weight=1.0, cea_variant="attention")
    state2 = TR.init_train_state(vocab, pool, cfg2)
    TR.run_stage1(docs, pool, state2)
    TR.run_stage2(pair_set, pool, state2)
    negatives = TR._epoch_negatives(pair_set, seed=991, epoch=1)
    zero = 0
    for k, (a, b) in enumerate(pair_set.pairs):
        ea = TR._doc_embeddings(state2, pair_set.content[a])
        eb = TR._doc_embeddings(state2, pair_set.content[b])
        en = TR._doc_embeddings(state2, pair_set.content[negatives[k]])
        zero += CA.triplet_loss(ea, eb, en).item() == 0.0
    zero_frac = zero / len(pair_set)

    ok = recovery >= 0.7 and zero_frac >= 0.9
    report(9, "CEA alignment recovery", ok,
           f"(planted-synonym recovery {recovery:.2f} >= 0.70, "
           f"triplet margin satisfied {zero_frac:.2f} >= 0.90)")


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_determinism_and_checkpointing(tmp_path):
    world = build_phrase_world(seed=5, n_sentences=400)
    corpus = tmp_path / "c.txt"
    corpus.write_text("\n".join(world.corpus_lines) + "\n")
    poolf = tmp_path / "p.tsv"
    poolf.write_text("\n".join(world.pool_lines) + "\n")
    vocab = C.build_vocab(corpus)
    docs = C.load_corpus(corpus, vocab, 32)
    pool = P.load_pool(poolf, vocab)

    def config(epochs):
        return TR.TrainConfig(stage1_epochs=epochs, stage2_epochs=0, batch_size=8,
                              learning_rate=3e-3, seed=11, warm_iters=30,
                              eval_docs=0, max_seq_len=32)

    # identical seeds -> bitwise-identical checkpoint files
    paths = []
    for tag in ("a", "b"):
        st = TR.init_train_state(vocab, pool, config(2))
        TR.run_stage1(docs, pool, st)
        path = tmp_path / f"ck_{tag}.npz"
        TR.save_checkpoint(path, st)
        paths.append(path)
    bitwise = paths[0].read_bytes() == paths[1].read_bytes()

    # save/load/resume matches the uninterrupted run for 100 iterations
    batches_per_epoch = math.ceil(len(docs) / 8)
    extra_epochs = math.ceil(100 / batches_per_epoch)
    full = TR.init_train_state(vocab, pool, config(2 + extra_epochs))
    TR.run_stage1(docs, pool, full)
    resumed = TR.load_checkpoint(paths[0])
    resumed.config = config(2 + extra_epochs)
    TR.run_stage1(docs, pool, resumed)
    resumed_iters = resumed.stage1_iters_done - 2 * batches_per_epoch
    match = all(full.params[k].data.tobytes() == resumed.params[k].data.tobytes()
                for k in full.params)
    ok = bitwise and match and resumed_iters >= 100
    report(10, "determinism and checkpointing", ok,
           f"(bitwise checkpoints {bitwise}, resume match over "
           f"{resumed_iters} iterations {match})")
