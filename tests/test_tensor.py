import warnings

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

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

    def test_bias_is_bitwise_the_product_plus_the_bias(self):
        # one affine node, the same numbers as its two-node form
        values = [np.random.default_rng(seed).standard_normal(shape)
                  for seed, shape in ((70, (2, 3, 4)), (71, (4, 5)), (72, (5,)))]
        probe = T.Tensor(np.random.default_rng(73).standard_normal((2, 3, 5)))
        fused, split = ([T.Tensor(v, requires_grad=True) for v in values] for _ in range(2))
        got, want = T.matmul(*fused), T.matmul(*split[:2]) + split[2]
        T.backward((got * probe).sum())
        T.backward((want * probe).sum())
        assert got.data.tobytes() == want.data.tobytes()
        for a, b in zip(fused, split):
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_a_constant_bias_gets_no_gradient(self):
        x, w = rand((2, 3, 4), 74), rand((4, 5), 75)
        bias = rand((5,), 76, requires_grad=False)
        out = T.matmul(x, w, bias)
        assert out._grad_fn(np.ones(out.shape))[2] is None
        T.backward(out.sum())
        assert bias.grad is None and x.grad is not None and w.grad is not None

    def test_bias_that_does_not_fit_the_rows_raises(self):
        with pytest.raises(T.ShapeError, match="bias"):
            T.matmul(rand((3, 4), 77), rand((4, 5), 78), rand((4,), 79))


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


def _erf_samples(kind):
    rng = np.random.default_rng(61)
    if kind == "near":  # |x| <= 1, with the branch edge, signed zeros and subnormals
        return np.concatenate([rng.uniform(-1.0, 1.0, 20_000),
                               [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324]])
    if kind == "far":  # 1 < |x| <= 30, across both Cephes tables and the exp underflow
        return rng.uniform(np.nextafter(1.0, 2.0), 30.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    return np.array([np.inf, -np.inf, np.nan, 8.0, -8.0, 26.6, -26.6, 1e300, -1e300])


class TestErf:
    @pytest.mark.parametrize("kind", ["near", "far", "special"])
    def test_bitwise_scipy_without_warnings(self, kind):
        # The far branch calls libm's exp as Cephes does; np.exp would move
        # some far samples by 1 ulp (1.1e-16).
        x = _erf_samples(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T._erf(x)
        assert got.tobytes() == scipy_erf(x).tobytes()

    def test_keeps_the_shape(self):
        x = _erf_samples("special")
        assert T._erf(x.reshape(3, 3)).tobytes() == scipy_erf(x).tobytes()
        assert T._erf(np.float64(-2.0)).shape == ()
        assert T._erf(np.zeros((2, 0))).shape == (2, 0)


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

    def test_backward_repeats_bytes_and_matches_the_two_pass_formula(self):
        x = np.random.default_rng(3).standard_normal((6, 9)) * 4
        t = np.array([0, 8, 3, 3, 1, 5])
        # reference: the row max taken twice, exp recomputed in the backward
        shifted = x - x.max(axis=1, keepdims=True)
        want_loss = (np.log(np.exp(shifted).sum(axis=1)) + x.max(axis=1)
                     - x[np.arange(6), t]).mean()
        want = np.exp(shifted)
        want /= want.sum(axis=1, keepdims=True)
        want[np.arange(6), t] -= 1.0
        want = 0.5 * want / 6
        out = T.cross_entropy(T.Tensor(x, requires_grad=True), t)
        assert out.data.tobytes() == np.asarray(want_loss).tobytes()
        for _ in range(2):  # the closure must not write into what it keeps
            assert out._grad_fn(np.asarray(0.5))[0].tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("shape_a, shape_b", [((2, 3, 4), (3, 3, 4)), ((3, 4), (2, 3, 4)),
                                                  ((3, 4), (4,)), ((2, 3, 4), (2, 3, 5))])
    def test_leading_axes_and_width_must_match(self, shape_a, shape_b):
        with pytest.raises(T.ShapeError):
            T.cosine_similarity(T.Tensor(np.ones(shape_a)), T.Tensor(np.ones(shape_b)))


# -------------------------------------------------------------------- backward


def _cosine_2d_reference(a, b, g, eps):
    """cosine_similarity's output and gradients for 2-D inputs and output
    gradient ``g``, in the 2-D-only formula it used before it took a batch axis."""
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    ca = np.maximum(na, eps)
    cb = np.maximum(nb, eps)
    ah = a / ca
    bh = b / cb
    gah = g @ bh
    proj_a = (gah * ah).sum(axis=1, keepdims=True) * (na > eps)
    gbh = g.T @ ah
    proj_b = (gbh * bh).sum(axis=1, keepdims=True) * (nb > eps)
    return ah @ bh.T, (gah - proj_a * ah) / ca, (gbh - proj_b * bh) / cb


def _matmul_batched_reference(a, b, g):
    """matmul's output and gradients for output gradient ``g``, with the weight
    gradient as one product per leading index of ``a``, summed afterwards."""
    gb = np.swapaxes(a, -1, -2) @ g
    while gb.ndim > b.ndim:
        gb = gb.sum(axis=0)
    return a @ b, g @ np.swapaxes(b, -1, -2), gb


class TestMatmulWeightGradient:
    @pytest.mark.parametrize("shape_a, shape_b", [((16, 12, 32), (32, 32)),
                                                  ((16, 12, 32), (32, 64)),
                                                  ((16, 12, 64), (64, 32)),
                                                  ((2, 3, 4, 5), (5, 6))])
    def test_one_gemm_matches_the_batched_products(self, shape_a, shape_b):
        a, b = rand(shape_a, 50), rand(shape_b, 51)
        g = np.random.default_rng(52).standard_normal(shape_a[:-1] + shape_b[-1:])
        out = T.matmul(a, b)
        ga, gb = out._grad_fn(g)
        want_out, want_ga, want_gb = _matmul_batched_reference(a.data, b.data, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert ga.tobytes() == want_ga.tobytes()
        assert gb.shape == b.shape
        assert np.linalg.norm(gb - want_gb) <= 1e-12 * np.linalg.norm(want_gb)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_2d_products_stay_bitwise(self, transposed):
        rng = np.random.default_rng(53)
        a_data = rng.standard_normal((32, 12)).T if transposed else rng.standard_normal((12, 32))
        a, b = T.Tensor(a_data, requires_grad=True), rand((32, 64), 54)
        g = rng.standard_normal((12, 64))
        out = T.matmul(a, b)
        for got, want in zip((out.data, *out._grad_fn(g)),
                             _matmul_batched_reference(a.data, b.data, g)):
            assert got.tobytes() == want.tobytes()


class TestConstantOperands:
    """An operand that needs no gradient gets none; its partner's is unchanged."""

    @pytest.mark.parametrize("op, shape_a, shape_b", [
        (T.matmul, (4, 3, 5), (5, 6)),           # rows x weight
        (T.matmul, (2, 3, 4, 5), (2, 3, 5, 4)),  # stacked, as q @ k^T
        (T.add, (2, 3, 4, 4), (2, 1, 1, 4)),     # attention scores + key mask
        (T.mul, (3, 5), (3, 5)),
        (T.mul, (3, 4, 5), (5,)),
    ])
    @pytest.mark.parametrize("const", [0, 1])
    def test_constant_operand_gets_no_gradient(self, op, shape_a, shape_b, const):
        rng = np.random.default_rng(60)
        values = [rng.standard_normal(shape_a), rng.standard_normal(shape_b)]
        both = [T.Tensor(v, requires_grad=True) for v in values]
        mixed = [T.Tensor(v, requires_grad=i != const) for i, v in enumerate(values)]
        out_both, out_mixed = op(*both), op(*mixed)
        g = rng.standard_normal(out_both.shape)
        grads_both, grads_mixed = out_both._grad_fn(g), out_mixed._grad_fn(g)
        assert grads_mixed[const] is None
        assert grads_mixed[1 - const].tobytes() == grads_both[1 - const].tobytes()
        T.backward((out_mixed * T.Tensor(g)).sum())
        assert mixed[const].grad is None
        assert mixed[1 - const].grad.tobytes() == grads_both[1 - const].tobytes()


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


# Each of the 14 primitives on operands of its own: (op, operand shapes).
PRIMITIVE_CASES = {
    "matmul-affine": (T.matmul, [(2, 3, 4), (4, 5), (5,)]),
    "matmul-batched": (T.matmul, [(2, 3, 4), (2, 4, 5)]),
    "add": (T.add, [(3, 4), (4,)]),
    "mul": (T.mul, [(3, 4), (3, 4)]),
    "scale": (lambda a: T.scale(a, 0.5), [(3, 4)]),
    "transpose": (T.transpose, [(2, 3, 4)]),
    "reshape": (lambda a: T.reshape(a, (4, 3)), [(3, 4)]),
    "concat": (lambda a, b: T.concat([a, b]), [(3, 4), (3, 2)]),
    "embedding": (lambda a: T.embedding(a, np.array([[0, 2], [2, 1]])), [(3, 4)]),
    "softmax": (T.softmax, [(2, 3, 4)]),
    "layer_norm": (T.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "gelu": (T.gelu, [(3, 4)]),  # scale 2: both erf branches
    "cross_entropy": (lambda a: T.cross_entropy(a, [0, 3, 1]), [(3, 4)]),
    "sum": (lambda a: T.tensor_sum(a, 1), [(3, 4)]),
    "cosine_similarity": (T.cosine_similarity, [(2, 3, 4), (2, 5, 4)]),
}


class TestNoWritesIntoSharedArrays:
    """The kernels write only into arrays they allocated: never into an operand's
    data, the incoming gradient, or an array a backward closure keeps."""

    @pytest.mark.parametrize("name", PRIMITIVE_CASES)
    def test_read_only_inputs_and_a_repeated_backward(self, name):
        op, shapes = PRIMITIVE_CASES[name]
        rng = np.random.default_rng(70)
        operands = [T.Tensor(rng.standard_normal(s) * 2.0, requires_grad=True) for s in shapes]
        for t in operands:
            t.data.flags.writeable = False  # numpy raises on any write
        out = op(*operands)
        g = rng.standard_normal(out.shape)
        g.flags.writeable = False
        forward = out.data.tobytes()
        direct = [pg.tobytes() for pg in out._grad_fn(g)]
        assert [pg.tobytes() for pg in out._grad_fn(g)] == direct
        loss = T.tensor_sum(out * T.Tensor(g))
        grads = []
        for _ in range(2):
            T.backward(loss)
            grads.append([t.grad.tobytes() for t in operands])
            for t in operands:
                t.zero_grad()
        assert grads[0] == grads[1]
        assert out.data.tobytes() == forward


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

    def test_matmul_4d_lhs_2d_rhs(self):
        a, w = rand((2, 3, 4, 5), 44), rand((5, 6), 45)
        probe = T.Tensor(np.random.default_rng(46).standard_normal((2, 3, 4, 6)))
        check_grads(lambda: (T.matmul(a, w) * probe).sum(), [a, w])

    def test_matmul_bias(self):
        x, w, b = rand((2, 3, 4), 80), rand((4, 5), 81), rand((5,), 82)
        probe = T.Tensor(np.random.default_rng(83).standard_normal((2, 3, 5)))
        check_grads(lambda: (T.matmul(x, w, b) * probe).sum(), [x, w, b])

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

    def test_gelu_across_both_erf_branches(self):
        # |x| / sqrt(2) > 1 past |x| = 1.414: the far branch meets the analytic pdf
        x = T.Tensor(np.linspace(-6.0, 6.0, 30).reshape(5, 6), requires_grad=True)
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

    def test_cosine_similarity_on_a_ragged_batch(self):
        # Pair 0 uses 4 x 2 rows, pair 1 uses 2 x 3; the weights are 0 past
        # each pair's rows, as a transport plan is. eps = 0.5 keeps the zero
        # row clamped under the 1e-5 perturbation; every other row's norm is
        # near 2 * sqrt(6), far from it.
        a, b = rand((2, 4, 6), 36, scale=2.0), rand((2, 3, 6), 37, scale=2.0)
        a.data[0, 1] = 0.0
        w = np.random.default_rng(38).standard_normal((2, 4, 3))
        w[0, :, 2:] = 0.0
        w[1, 2:, :] = 0.0
        assert np.linalg.norm(np.delete(a.data.reshape(-1, 6), 1, axis=0), axis=1).min() > 1.0
        assert np.linalg.norm(b.data, axis=-1).min() > 1.0
        weights = T.Tensor(w)
        check_grads(lambda: (T.cosine_similarity(a, b, eps=0.5) * weights).sum(), [a, b])

    def test_cosine_similarity_2d_is_bitwise_the_2d_formula(self):
        a, b = rand((5, 6), 39), rand((4, 6), 40)
        a.data[2] = 0.0
        g = np.random.default_rng(41).standard_normal((5, 4))
        out = T.cosine_similarity(a, b)
        T.backward((out * T.Tensor(g)).sum())
        for got, want in zip((out.data, a.grad, b.grad),
                             _cosine_2d_reference(a.data, b.data, g, 1e-8)):
            assert got.tobytes() == want.tobytes()

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
