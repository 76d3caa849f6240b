import numpy as np
import pytest

from domainlm import crossattn as CA
from domainlm import tensor as T

from gradcheck import check_grads


def rand(shape, seed):
    return T.Tensor(np.random.default_rng(seed).standard_normal(shape))


class TestCrossAttention:
    def test_equal_scores_give_uniform_rows(self):
        a = T.Tensor(np.zeros((3, 4)))
        b = T.Tensor(np.ones((5, 4)))
        align = CA.cross_attention(a, b)
        assert np.allclose(align.alpha.data, 1.0 / 5.0)
        assert np.allclose(align.beta_t.data, 1.0 / 3.0)

    def test_single_token_each_side(self):
        align = CA.cross_attention(rand((1, 4), 0), rand((1, 4), 1))
        assert np.allclose(align.alpha.data, [[1.0]])
        assert np.allclose(align.beta_t.data, [[1.0]])

    def test_dominant_pair_saturates(self):
        a = T.Tensor([[10.0, 0.0], [0.0, 0.1]])
        b = T.Tensor([[10.0, 0.0], [0.0, 0.1]])
        align = CA.cross_attention(a, b)
        assert align.alpha.data[0, 0] >= 1.0 - 1e-12

    def test_rows_stochastic(self):
        align = CA.cross_attention(rand((4, 6), 2), rand((7, 6), 3))
        assert np.abs(align.alpha.data.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(align.beta_t.data.sum(axis=1) - 1.0).max() <= 1e-12
        assert (align.alpha.data > 0).all() and (align.alpha.data < 1).all()


class TestReconstruct:
    def test_single_b_row_forces_copy(self):
        a, b = rand((4, 3), 6), rand((1, 3), 7)
        a_rec = CA.cross_attention(a, b).alpha @ b
        assert np.allclose(a_rec.data, np.broadcast_to(b.data, (4, 3)), atol=1e-12)

    def test_one_hot_alpha_selects_rows(self):
        b = rand((3, 4), 8)
        onehot = np.zeros((2, 3))
        onehot[0, 2] = 1.0
        onehot[1, 0] = 1.0
        align = CA.AttentionAlignment(alpha=T.Tensor(onehot), beta_t=T.Tensor(np.zeros((3, 2))))
        a_rec = align.alpha @ b
        assert np.allclose(a_rec.data, b.data[[2, 0]])

    def test_rows_stay_in_convex_hull(self):
        # convex combinations cannot exceed the largest source row norm
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = T.Tensor(rng.standard_normal((4, 5)))
            b = T.Tensor(rng.standard_normal((6, 5)))
            align = CA.cross_attention(a, b)
            a_rec, b_rec = align.alpha @ b, align.beta_t @ a
            assert np.linalg.norm(a_rec.data, axis=1).max() <= \
                np.linalg.norm(b.data, axis=1).max() + 1e-12
            assert np.linalg.norm(b_rec.data, axis=1).max() <= \
                np.linalg.norm(a.data, axis=1).max() + 1e-12


class TestReconstructionDistance:
    def test_identical_singletons(self):
        a = T.Tensor([[0.3, -0.7]])
        assert CA.reconstruction_distance(a, T.Tensor([[0.3, -0.7]])).item() <= 1e-12

    def test_forced_cross_reconstruction(self):
        # 1x1 pair: a' = b and b' = a exactly, so distance = 2 ||a - b||^2.
        a = T.Tensor([[1.0, 0.0]])
        b = T.Tensor([[0.0, 1.0]])
        assert np.isclose(CA.reconstruction_distance(a, b).item(), 4.0, atol=1e-12)

    def test_matches_loop_summation_oracle(self):
        rng = np.random.default_rng(10)
        a = T.Tensor(rng.standard_normal((3, 4)))
        b = T.Tensor(rng.standard_normal((5, 4)))
        fast = CA.reconstruction_distance(a, b).item()
        # independent oracle: explicit loops over Eq.-style sums
        scores = a.data @ b.data.T
        alpha = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        beta = np.exp(scores) / np.exp(scores).sum(axis=0, keepdims=True)
        total = 0.0
        for i in range(3):
            a_rec = sum(alpha[i, j] * b.data[j] for j in range(5))
            total += ((a.data[i] - a_rec) ** 2).sum()
        for j in range(5):
            b_rec = sum(beta[i, j] * a.data[i] for i in range(3))
            total += ((b.data[j] - b_rec) ** 2).sum()
        assert abs(fast - total) <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        a = T.Tensor(rng.standard_normal((4, 6)))
        b_rows = rng.standard_normal((5, 6))
        d1 = CA.reconstruction_distance(a, T.Tensor(b_rows)).item()
        d2 = CA.reconstruction_distance(a, T.Tensor(b_rows[[3, 1, 4, 0, 2]])).item()
        assert np.isclose(d1, d2, atol=1e-10)

    def test_gradient_end_to_end(self):
        a = T.Tensor(np.random.default_rng(12).standard_normal((3, 4)), requires_grad=True)
        b = T.Tensor(np.random.default_rng(13).standard_normal((4, 4)), requires_grad=True)
        check_grads(lambda: CA.reconstruction_distance(a, b), [a, b], tol=1e-6)


class TestTripletLoss:
    def test_direct_arithmetic(self, monkeypatch):
        # distances 0.2 (positive) and 0.5 (negative) -> 1 + 0.2 - 0.5 = 0.7
        vals = iter([0.2, 0.5])
        monkeypatch.setattr(CA, "reconstruction_distance",
                            lambda *a, **k: T.Tensor(np.asarray(next(vals))))
        dummy = T.Tensor([[0.0]])
        out = CA.triplet_loss(dummy, dummy, dummy)
        assert np.isclose(out.item(), 0.7, atol=1e-15)

    def test_margin_satisfied_clamps_to_zero(self):
        a = T.Tensor([[1.0, 0.0]])
        b = T.Tensor([[1.0, 0.0]])        # perfect reconstruction, d = 0
        b_neg = T.Tensor([[-1.0, 0.0]])   # d = 2 ||a - b_neg||^2 = 8 > 1
        assert CA.triplet_loss(a, b, b_neg).item() == 0.0

    def test_active_hinge_value(self):
        a = T.Tensor([[1.0, 0.0]])
        b = T.Tensor([[0.0, 1.0]])        # d(a, b) = 4
        b_neg = T.Tensor([[1.0, 0.0]])    # d(a, b_neg) = 0
        # 1 + 4 - 0 = 5
        assert np.isclose(CA.triplet_loss(a, b, b_neg).item(), 5.0, atol=1e-12)

    def test_gradient_zero_iff_hinge_inactive(self):
        rng = np.random.default_rng(14)
        a = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        good = T.Tensor(a.data.copy())
        bad = T.Tensor(rng.standard_normal((2, 3)) * 3)
        # inactive hinge: loss 0, gradient absent
        a.zero_grad()
        loss = CA.triplet_loss(a, good, bad)
        T.backward(loss)
        assert loss.item() == 0.0 and a.grad is None
        # active hinge: positive loss, nonzero gradient
        a.zero_grad()
        loss = CA.triplet_loss(a, bad, good)
        T.backward(loss)
        assert loss.item() > 0.0
        assert a.grad is not None and np.abs(a.grad).max() > 0

    def test_nonnegative_always(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = T.Tensor(rng.standard_normal((3, 4)))
            b = T.Tensor(rng.standard_normal((4, 4)))
            b_neg = T.Tensor(rng.standard_normal((2, 4)))
            assert CA.triplet_loss(a, b, b_neg).item() >= 0.0


# ------------------------------------------------- the batched path against the loop


def _reference_cross_attention(a, b):
    """cross_attention as it was before it took a batch axis: one pair, no masks."""
    scores = a @ T.transpose(b, -2, -1)
    return T.softmax(scores), T.softmax(T.transpose(scores, -2, -1))


def _reference_distance(a, b):
    alpha, beta_t = _reference_cross_attention(a, b)
    da = a - alpha @ b
    db = b - beta_t @ a
    return (da * da).sum() + (db * db).sum()


def _reference_triplet(a, b, b_neg):
    z = T.Tensor(np.asarray(1.0)) + _reference_distance(a, b) - _reference_distance(a, b_neg)
    return z if float(z.data) > 0.0 else T.Tensor(np.asarray(0.0))


def _triples(seed, lengths, active):
    """(a, b, b_neg) embeddings of each pair, (len_a, d), (len_b, d), (len_neg, d):
    a hinge is active where ``active`` holds (b far from a, b_neg near a) and
    inactive elsewhere (the roles swapped). Each pair has its own scale, so
    the hinges span orders of magnitude and the order of their sum shows."""
    rng = np.random.default_rng(seed)
    triples = []
    for (la, lb, ln), on in zip(lengths, active):
        scale = 10.0 ** rng.uniform(-0.3, 1.5)
        a = scale * rng.standard_normal((la, 4))
        near_b, near_n = (a[np.arange(n) % la] + 0.01 * scale * rng.standard_normal((n, 4))
                          for n in (lb, ln))
        far_b, far_n = (3.0 * scale * rng.standard_normal((n, 4)) for n in (lb, ln))
        triples.append((a, far_b, near_n) if on else (a, near_b, far_n))
    return triples


def _loop(triples):
    """The per-pair loop: each pair's hinge, the loss summed in pair order, the
    gradients of every pair's three embeddings, and each pair's two distances."""
    leaves = [tuple(T.Tensor(x, requires_grad=True) for x in t) for t in triples]
    parts = [_reference_triplet(*t) for t in leaves]
    loss = sum(parts[1:], parts[0])
    T.backward(loss)
    grads = [[np.zeros_like(x.data) if x.grad is None else x.grad for x in t] for t in leaves]
    dists = [(_reference_distance(a, b).item(), _reference_distance(a, n).item())
             for a, b, n in leaves]
    return [p.item() for p in parts], loss.item(), grads, dists


def _batched(triples):
    """The same through one batched call on padded (B, L, d) sides and their masks."""
    sides, masks = [], []
    for s in range(3):
        longest = max(t[s].shape[0] for t in triples)
        padded = np.full((len(triples), longest, 4), 7.0)  # padding holds junk, not zeros
        for k, t in enumerate(triples):
            padded[k, :len(t[s])] = t[s]
        sides.append(T.Tensor(padded, requires_grad=True))
        masks.append(np.arange(longest) < np.array([len(t[s]) for t in triples])[:, None])
    loss = CA.triplet_loss(*sides, *masks)
    T.backward(loss)
    pos = CA.reconstruction_distance(sides[0], sides[1], masks[0], masks[1]).data
    neg = CA.reconstruction_distance(sides[0], sides[2], masks[0], masks[2]).data
    grads = [np.zeros_like(x.data) if x.grad is None else x.grad for x in sides]
    return loss.item(), grads, masks, pos, neg


class TestBatchedTripletLoss:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_active", range(8))
    def test_bitwise_the_loop_on_equal_lengths(self, n_active, seed):
        pairs = 11
        rng = np.random.default_rng([n_active, seed])
        active = np.isin(np.arange(pairs), rng.permutation(pairs)[:n_active])
        triples = _triples(rng, [(5, 5, 5)] * pairs, active)
        hinges, want, want_grads, dists = _loop(triples)
        got, grads, _, pos, neg = _batched(triples)
        assert [h > 0 for h in hinges] == active.tolist()
        assert pos.tolist() == [p for p, _ in dists] and neg.tolist() == [n for _, n in dists]
        assert np.maximum(1.0 + pos - neg, 0.0).tolist() == hinges
        assert got == want
        for k in range(pairs):
            for side in range(3):
                assert grads[side][k].tobytes() == want_grads[k][side].tobytes(), (k, side)

    @pytest.mark.parametrize("n_active", [8, 11])
    def test_eight_or_more_active_hinges_within_1e_14(self, n_active):
        # NumPy sums 8 or more terms pairwise, not in pair order: only the
        # loss's last bits may move; each hinge and every gradient stay exact
        triples = _triples(40 + n_active, [(5, 5, 5)] * 11, np.arange(11) < n_active)
        hinges, want, want_grads, _ = _loop(triples)
        got, grads, _, pos, neg = _batched(triples)
        assert sum(h > 0 for h in hinges) == n_active
        assert np.maximum(1.0 + pos - neg, 0.0).tolist() == hinges
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        for k in range(11):
            for side in range(3):
                assert grads[side][k].tobytes() == want_grads[k][side].tobytes(), (k, side)

    @pytest.mark.parametrize("seed", range(4))
    def test_ragged_within_1e_12(self, seed):
        rng = np.random.default_rng(seed)
        lengths = [tuple(int(n) for n in rng.integers(1, 9, 3)) for _ in range(6)]
        triples = _triples(60 + seed, lengths, rng.random(6) < 0.5)
        hinges, want, want_grads, dists = _loop(triples)
        got, grads, masks, pos, neg = _batched(triples)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        np.testing.assert_allclose(np.c_[pos, neg], dists, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.maximum(1.0 + pos - neg, 0.0), hinges, rtol=1e-12, atol=0)
        for side in range(3):
            assert not grads[side][~masks[side]].any()  # padded rows get no gradient
            for k, t in enumerate(want_grads):
                np.testing.assert_allclose(grads[side][k, :len(t[side])], t[side],
                                           rtol=0, atol=1e-12 * np.abs(t[side]).max())

    def test_no_active_hinge_is_the_constant_zero(self):
        triples = _triples(80, [(4, 6, 3)] * 5, [False] * 5)
        got, grads, *_ = _batched(triples)
        assert got == 0.0 and not any(g.any() for g in grads)


class TestTwoDimensionalFormsUnchanged:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_the_pre_batch_code(self, seed):
        rng = np.random.default_rng(seed)
        la, lb, ln = (int(n) for n in rng.integers(1, 10, 3))
        triples = _triples(seed, [(la, lb, ln)], [bool(seed % 2)])[0]
        got, want = ([T.Tensor(x, requires_grad=True) for x in triples] for _ in range(2))
        align = CA.cross_attention(got[0], got[1])
        alpha, beta_t = _reference_cross_attention(want[0], want[1])
        assert align.alpha.data.tobytes() == alpha.data.tobytes()
        assert align.beta_t.data.tobytes() == beta_t.data.tobytes()
        for fn, ref in ((lambda a, b, n: CA.reconstruction_distance(a, b),
                         lambda a, b, n: _reference_distance(a, b)),
                        (CA.triplet_loss, _reference_triplet)):
            for x in got + want:
                x.zero_grad()
            out, ref_out = fn(*got), ref(*want)
            assert out.shape == ref_out.shape == ()
            assert out.data.tobytes() == ref_out.data.tobytes()
            T.backward(out)
            T.backward(ref_out)
            for x, y in zip(got, want):
                assert (x.grad is None) == (y.grad is None)
                assert x.grad is None or x.grad.tobytes() == y.grad.tobytes()
