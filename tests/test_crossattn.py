import numpy as np

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
