import numpy as np
import pytest

from domainlm import tensor as T

from gradcheck import check_grads, numeric_grad, rel_error


def rand(shape, seed, scale=1.0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


# ----------------------------------------------------------------- forward math


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_one_by_one(self):
        out = T.matmul(T.Tensor([[2.0]]), T.Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_hand_expanded_2x2(self):
        # [[1,2],[3,4]] @ [[5,6],[7,8]] expanded by hand.
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a, b = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(a, b)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=0)

    def test_analytic_ln2(self):
        out = T.softmax(T.Tensor([np.log(2.0), 0.0]))
        assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_stability_large_gap(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]))
        assert abs(out.data[0] - 1.0) <= 1e-12
        assert abs(out.data[1]) <= 1e-12

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = T.Tensor(rng.standard_normal((4, 7)) * 30)
            y = T.softmax(x).data
            assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-12)
            assert np.all(y > 0)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = T.Tensor([[3.0, 3.0, 3.0]])
        g, b = T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))
        assert np.allclose(T.layer_norm(x, g, b).data, 0.0, atol=0)

    def test_two_point_closed_form(self):
        # mean 0, var 1 -> entries scaled by 1/sqrt(1 + eps).
        x = T.Tensor([[1.0, -1.0]])
        g, b = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        out = T.layer_norm(x, g, b).data
        assert np.allclose(out, [[expected, -expected]], atol=1e-15)

    def test_zero_gain_broadcasts_bias(self):
        x = rand((2, 5), 1, requires_grad=False)
        g = T.Tensor(np.zeros(5))
        b = T.Tensor(np.arange(5.0))
        out = T.layer_norm(x, g, b).data
        assert np.array_equal(out, np.broadcast_to(np.arange(5.0), (2, 5)))

    @pytest.mark.parametrize("shape", [(2, 3, 7), (4, 12, 32), (3, 5, 33)])
    def test_bitwise_equal_to_mean_var_formulation(self, shape):
        rng = np.random.default_rng(sum(shape))
        xv = rng.standard_normal(shape) * 3 + 1
        gv, bv = rng.standard_normal(shape[-1:]), rng.standard_normal(shape[-1:])
        up = rng.standard_normal(shape)  # upstream gradient
        # reference: np.mean / np.var forward, .mean backward
        mu = xv.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(xv.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (xv - mu) * inv
        gxhat = up * gv
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        expected = [xhat * gv + bv, (gxhat - m1 - xhat * m2) * inv,
                    (up * xhat).sum(axis=(0, 1)), up.sum(axis=(0, 1))]

        x, g, b = (T.Tensor(v, requires_grad=True) for v in (xv, gv, bv))
        out = T.layer_norm(x, g, b)
        T.backward((out * T.Tensor(up)).sum())  # delivers exactly `up` to layer_norm
        for got, want in zip([out.data, x.grad, g.grad, b.grad], expected):
            assert got.tobytes() == want.tobytes()


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = T.Tensor(np.zeros((3, 8)))
        out = T.cross_entropy(logits, [0, 3, 7])
        assert np.isclose(out.item(), np.log(8.0), atol=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = T.Tensor([[50.0, 0.0, 0.0]])
        assert T.cross_entropy(logits, [0]).item() < 1e-12

    def test_scalar_evaluation(self):
        # -ln(e / (e + 1)) = ln(1 + e^-1)
        out = T.cross_entropy(T.Tensor([[1.0, 0.0]]), [0])
        assert np.isclose(out.item(), np.log1p(np.exp(-1.0)), atol=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(T.Tensor(np.zeros((1, 4))), [4])


class TestCosine:
    def test_identical(self):
        x = T.Tensor([[1.0, 0.0]])
        assert np.isclose(T.cosine_similarity(x, x).data[0, 0], 1.0)

    def test_orthogonal_and_antipodal(self):
        a = T.Tensor([[1.0, 0.0]])
        assert np.isclose(T.cosine_similarity(a, T.Tensor([[0.0, 1.0]])).data[0, 0], 0.0)
        assert np.isclose(T.cosine_similarity(a, T.Tensor([[-1.0, 0.0]])).data[0, 0], -1.0)

    def test_zero_row_stays_finite(self):
        a = T.Tensor([[0.0, 0.0]])
        b = T.Tensor([[1.0, 0.0]])
        assert np.isfinite(T.cosine_similarity(a, b).data).all()


# -------------------------------------------------------------------- backward


class TestBackward:
    def test_sum_of_squares(self):
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        loss = (x * x).sum()
        T.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.GraphError):
            T.backward(x * x)

    def test_accumulation_until_zero_grad(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            T.backward((x * x).sum())
        assert np.array_equal(x.grad, [4.0, 8.0])
        x.zero_grad()
        T.backward((x * x).sum())
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_detached_tensor_gets_no_grad(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = T.Tensor((x * x).data)
        loss = (y * y).sum()
        T.backward(loss)
        assert x.grad is None

    def test_gradients_add_up_in_reverse_construction_order(self):
        # Float addition is not associative: x's three contributions sum to
        # 1.0 only as (-1e16 + 1e16) + 1.0, newest first.
        x = T.Tensor(2.0, requires_grad=True)
        loss = (T.scale(x, 1.0) + T.scale(x, 1e16)) + T.scale(x, -1e16)
        T.backward(loss)
        assert x.grad == 1.0

    def test_shared_subexpression(self):
        # loss = (x + x) . x = 2 * sum(x^2) -> grad 4x
        x = T.Tensor([1.0, -2.0], requires_grad=True)
        y = x + x
        T.backward((y * x).sum())
        assert np.array_equal(x.grad, [4.0, -8.0])

    def test_symbolic_chain_rule_depth_3(self):
        # loss = sum(((x * 2) + x) * x) = 3 sum(x^2); symbolic grad 6x.
        x = T.Tensor([0.5, -1.5, 2.0], requires_grad=True)
        loss = ((T.scale(x, 2.0) + x) * x).sum()
        T.backward(loss)
        assert np.allclose(x.grad, 6.0 * x.data, atol=1e-15)


# ----------------------------------------------------- finite-difference oracle


class TestGradOracle:
    """Every differentiable op against central differences (rel err <= 1e-6)."""

    def test_matmul_chain(self):
        a, b, c = rand((3, 4), 10), rand((4, 5), 11), rand((5, 2), 12)
        check_grads(lambda: T.matmul(T.matmul(a, b), c).sum(), [a, b, c])

    def test_batched_matmul(self):
        a, b = rand((2, 3, 4, 5), 13), rand((2, 3, 5, 4), 14)
        check_grads(lambda: T.matmul(a, b).sum(), [a, b])

    def test_matmul_broadcast_2d_rhs(self):
        a, w = rand((2, 3, 4), 15), rand((4, 6), 16)
        check_grads(lambda: T.matmul(a, w).sum(), [a, w])

    def test_add_bias_broadcast(self):
        x, b = rand((3, 4, 5), 17), rand((5,), 18)
        check_grads(lambda: T.scale(T.tensor_sum(x + b), 1 / x.size), [x, b])

    def test_mul_and_scale(self):
        a, b = rand((4, 4), 19), rand((4, 4), 20)
        check_grads(lambda: T.scale(a * b, 0.7).sum(), [a, b])

    def test_transpose_reshape_concat(self):
        a, b = rand((3, 4), 21), rand((3, 2), 22)
        check_grads(
            lambda: T.concat([T.reshape(T.transpose(a), (3, 4)), b]).sum(),
            [a, b],
        )

    def test_embedding_gather(self):
        table = rand((7, 3), 23)
        ids = np.array([[0, 2, 2], [6, 1, 0]])
        check_grads(lambda: (T.embedding(table, ids) * T.embedding(table, ids)).sum(), [table])

    def test_softmax(self):
        x = rand((4, 6), 24)
        w = T.Tensor(np.random.default_rng(25).standard_normal((4, 6)))
        check_grads(lambda: (T.softmax(x) * w).sum(), [x])

    def test_layer_norm(self):
        x, g, b = rand((3, 8), 26), rand((8,), 27), rand((8,), 28)
        w = T.Tensor(np.random.default_rng(29).standard_normal((3, 8)))
        check_grads(lambda: (T.layer_norm(x, g, b) * w).sum(), [x, g, b])

    def test_gelu(self):
        x = rand((5, 5), 30)
        check_grads(lambda: T.gelu(x).sum(), [x])

    def test_cross_entropy(self):
        logits = rand((6, 9), 31)
        targets = [0, 8, 3, 3, 1, 5]
        check_grads(lambda: T.cross_entropy(logits, targets), [logits])

    def test_sum_axes(self):
        x = rand((3, 4, 5), 32)
        check_grads(lambda: x.sum(axis=1).sum(), [x])
        check_grads(lambda: x.sum(axis=0).sum(), [x])

    def test_cosine_similarity(self):
        a, b = rand((4, 6), 33), rand((3, 6), 34)
        w = T.Tensor(np.random.default_rng(35).standard_normal((4, 3)))
        check_grads(lambda: (T.cosine_similarity(a, b) * w).sum(), [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_small_compositions(self, seed):
        # Random <=64-element tensors through a mixed pipeline.
        x = rand((4, 8), 100 + seed)
        g, b = rand((8,), 200 + seed), rand((8,), 300 + seed)
        w = rand((8, 4), 400 + seed)
        probe = T.Tensor(np.random.default_rng(500 + seed).standard_normal((4, 4)))

        def loss_fn():
            h = T.layer_norm(T.gelu(x), g, b)
            out = T.softmax(T.matmul(h, w)) * probe
            return T.scale(T.tensor_sum(out), 1 / out.size)

        check_grads(loss_fn, [x, g, b, w])


def test_numeric_oracle_sanity():
    # The oracle itself measures d(sum x^2)/dx = 2x.
    x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    num = numeric_grad(lambda: (x * x).sum(), x)
    assert rel_error(2.0 * x.data, num) <= 1e-9


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.standard_normal((4, 6)) * 100)
    g, b = T.Tensor(np.ones(6)), T.Tensor(np.zeros(6))
    for out in (T.softmax(x), T.layer_norm(x, g, b), T.gelu(x)):
        assert np.isfinite(out.data).all()
