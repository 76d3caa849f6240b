import time
from itertools import islice

import numpy as np
import pytest

from domainlm import tensor as T
from domainlm import transport as OT

from gradcheck import numeric_grad, rel_error
from lp_oracle import exact_ot_oracle
from synthetic import read_alignment_csv


class TestCostMatrix:
    def test_identical_vector(self):
        x = T.Tensor([[1.0, 0.0]])
        cm = OT.cost_matrix(x, T.Tensor([[1.0, 0.0]]))
        assert np.isclose(cm.values.data[0, 0], 0.0, atol=1e-15)

    def test_orthogonal_and_antipodal(self):
        x = T.Tensor([[1.0, 0.0]])
        assert np.isclose(OT.cost_matrix(x, T.Tensor([[0.0, 1.0]])).values.data[0, 0], 1.0)
        assert np.isclose(OT.cost_matrix(x, T.Tensor([[-1.0, 0.0]])).values.data[0, 0], 2.0)

    def test_range_and_self_diagonal(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.standard_normal((5, 8)))
        cm = OT.cost_matrix(x, x)
        assert (cm.values.data >= -1e-12).all() and (cm.values.data <= 2.0 + 1e-12).all()
        assert np.allclose(np.diag(cm.values.data), 0.0, atol=1e-12)

    def test_zero_norm_row_flagged(self):
        x = T.Tensor([[0.0, 0.0], [1.0, 0.0]])
        with pytest.warns(OT.DegenerateInputWarning):
            cm = OT.cost_matrix(x, T.Tensor([[1.0, 0.0]]))
        assert np.isfinite(cm.values.data).all()


def _divide_marginal(size, qs):
    """IPOT's scaling, the marginal 1/size over Q sigma (or Q^T delta)."""
    return (1.0 / size) / qs


def _reciprocal_of_product(size, qs):
    """The scaling ipot used before it divided by the marginal: 1 / (size Q sigma)."""
    return 1.0 / (size * qs)


def _q_times_outer(delta, q, sigma):
    """IPOT's plan Q ⊙ (δσᵀ): the outer product of the scalings, then one multiply."""
    return q * (delta[:, None] * sigma[None, :])


def _scaled_rows_then_columns(delta, q, sigma):
    """The plan as ipot formed it before it took the outer product: diag(δ) Q, then the columns."""
    return delta[:, None] * q * sigma[None, :]


def _ipot_plans(c, beta, scale=_divide_marginal, product=_q_times_outer):
    """ipot's plan after each iteration, in the expression loop it ran before
    its loop became in place: a fresh array for every term of every iteration."""
    m, n = c.shape
    a = np.clip(np.exp(-c / beta), 1e-300, 1e300)
    sigma = np.full(n, 1.0 / n)
    t = np.ones((m, n))
    while True:
        q = a * t
        delta = scale(m, q @ sigma)
        sigma = scale(n, q.T @ delta)
        t = product(delta, q, sigma)
        yield t


def _ipot_reference(c, beta, outer_iters, scale=_divide_marginal, product=_q_times_outer):
    """The reference's plan after ``outer_iters`` iterations, and its cost history."""
    history = []
    for t in islice(_ipot_plans(c, beta, scale, product), outer_iters):
        history.append(float((t * c).sum()))
    return t, history


SHAPES = [(1, 1), (1, 6), (5, 1), (7, 7), (20, 29), (64, 128)]
OUTER_ITERS = [1, 50, 63, 64, 65, 128, 129, 2000, 2001, 47, 48, 49]


def _period_after_1000(c):
    """The least period, up to 6, of the reference's plans over iterations 1000-1012."""
    plans = [t.tobytes() for t in islice(_ipot_plans(c, 0.5), 999, 1012)]
    return next(p for p in range(1, 7) if plans[p:] == plans[:-p])


class TestIpot:
    def test_symmetric_zero_diagonal_instance(self):
        plan = OT.ipot(np.array([[0.0, 1.0], [1.0, 0.0]]), beta=0.5, outer_iters=200)
        assert np.allclose(plan.values, [[0.5, 0.0], [0.0, 0.5]], atol=1e-4)
        assert plan.cost <= 1e-4

    def test_single_cell(self):
        plan = OT.ipot(np.array([[0.7]]), outer_iters=5)
        assert np.isclose(plan.values[0, 0], 1.0, atol=1e-12)
        assert np.isclose(plan.cost, 0.7, atol=1e-12)

    def test_two_by_two_lp_family(self):
        # Plans are [[t, .5-t], [.5-t, t]] with cost 0.7 - 0.8t -> t = 0.5.
        c = np.array([[0.2, 0.8], [0.6, 0.4]])
        plan = OT.ipot(c, beta=0.5, outer_iters=500)
        assert abs(plan.cost - 0.3) <= 1e-3
        assert np.allclose(plan.values, np.diag([0.5, 0.5]), atol=1e-3)

    @pytest.mark.parametrize("outer", [1, 2, 5, 50, 200])
    def test_column_marginal_exact_every_outer_iteration(self, outer):
        rng = np.random.default_rng(3)
        c = rng.uniform(size=(4, 6))
        plan = OT.ipot(c, outer_iters=outer)
        col = plan.values.sum(axis=0)
        assert np.abs(col - 1.0 / 6.0).max() <= 1e-12

    def test_row_marginal_converges(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(size=(5, 4))
        plan = OT.ipot(c, outer_iters=2000)
        rows = plan.values.sum(axis=1)
        assert np.abs(rows - 1.0 / 5.0).max() <= 1e-3

    def test_delta_update_row_exactness_one_step(self):
        # Algebra of the first inner round: right after the delta scaling
        # (sigma still at its previous value) rows sum to exactly 1/m.
        rng = np.random.default_rng(5)
        c = rng.uniform(size=(3, 4))
        m, n = c.shape
        a = np.exp(-c / 0.5)
        sigma = np.full(n, 1.0 / n)
        q = a * np.ones((m, n))
        delta = (1.0 / m) / (q @ sigma)
        t_mid = delta[:, None] * q * sigma[None, :]
        assert np.abs(t_mid.sum(axis=1) - 1.0 / m).max() <= 1e-12

    def test_monotone_cost_improvement_square_k1(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            side = rng.integers(2, 7)
            c = rng.uniform(size=(side, side))
            # a solve of k iterations is bit for bit the first k of a longer one
            costs = [OT.ipot(c, outer_iters=k).cost for k in range(1, 301)]
            assert (np.diff(costs) <= 1e-9).all()

    def test_nonnegative_entries(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(size=(5, 5))
        assert (OT.ipot(c, outer_iters=100).values >= 0).all()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            OT.ipot(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            OT.ipot(np.array([[0.1]]), beta=0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_beta_not_finite_and_positive_rejected(self, beta):
        # nan slipped past a `beta <= 0` guard into an all-NaN plan, and inf
        # gives the all-ones kernel, i.e. the uniform plan whatever the cost
        with pytest.raises(ValueError, match="beta"):
            OT.ipot(np.array([[0.1, 0.9], [0.9, 0.1]]), beta=beta)

    @pytest.mark.parametrize("outer_iters", [0, -5])
    def test_no_outer_iteration_rejected(self, outer_iters):
        # zero iterations would return the all-ones start, which is no plan
        with pytest.raises(ValueError, match="outer_iters"):
            OT.ipot(np.array([[0.1, 0.2]]), outer_iters=outer_iters)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_cost_rejected(self, shape):
        with pytest.raises(ValueError, match="no cells"):
            OT.ipot(np.zeros(shape))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("outer_iters", OUTER_ITERS)
    def test_bitwise_the_expression_loop(self, shape, outer_iters):
        c = np.random.default_rng(sum(shape)).uniform(0.0, 2.0, size=shape)
        plan = OT.ipot(c, beta=0.5, outer_iters=outer_iters)
        want, history = _ipot_reference(c, 0.5, outer_iters)
        assert plan.values.tobytes() == want.tobytes()
        assert plan.cost == history[-1]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("outer_iters", OUTER_ITERS)
    def test_within_tolerance_of_the_reciprocal_scaling(self, shape, outer_iters):
        # dividing the marginal by Q sigma rounds differently from taking the
        # reciprocal of size * Q sigma; the plans stay within 1e-14 of the
        # largest entry (7.8e-16 at most over these cases, at (64, 128))
        c = np.random.default_rng(sum(shape)).uniform(0.0, 2.0, size=shape)
        plan = OT.ipot(c, beta=0.5, outer_iters=outer_iters)
        before, _ = _ipot_reference(c, 0.5, outer_iters, scale=_reciprocal_of_product,
                                    product=_scaled_rows_then_columns)
        assert np.abs(plan.values - before).max() <= 1e-14 * np.abs(before).max()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("outer_iters", OUTER_ITERS)
    def test_within_tolerance_of_scaling_rows_then_columns(self, shape, outer_iters):
        # Q * (delta sigma^T) rounds differently from (delta Q) * sigma; the
        # plans stay within 1e-14 of the largest entry (7.8e-16 at most over
        # these cases, at (64, 128))
        c = np.random.default_rng(sum(shape)).uniform(0.0, 2.0, size=shape)
        plan = OT.ipot(c, beta=0.5, outer_iters=outer_iters)
        before, _ = _ipot_reference(c, 0.5, outer_iters, product=_scaled_rows_then_columns)
        assert np.abs(plan.values - before).max() <= 1e-14 * np.abs(before).max()

    @pytest.mark.parametrize("seed, shape, period", [(35, (2, 3), 2), (43, (2, 2), 1),
                                                     (13, (3, 2), 1), (570, (2, 3), 1),
                                                     (395, (3, 2), 3), (104, (2, 3), 6)])
    @pytest.mark.parametrize("outer_iters", [63, 64, 65, 128, 129, 2001, 47, 48, 49])
    def test_bitwise_the_expression_loop_once_the_state_repeats(self, seed, shape, period,
                                                                outer_iters):
        # these plans cycle with the given period within 1000 iterations, so a
        # long solve skips whole chunks of its loop; the period of a seed
        # depends on how the plan rounds, so the product form can change it
        c = np.random.default_rng(seed).uniform(0.0, 2.0, size=shape)
        assert _period_after_1000(c) == period
        plan = OT.ipot(c, beta=0.5, outer_iters=outer_iters)
        want, history = _ipot_reference(c, 0.5, outer_iters)
        assert plan.values.tobytes() == want.tobytes()
        assert plan.cost == history[-1]

    def test_a_fixed_solve_skips_the_rest_of_its_loop(self):
        # a 1 x 1 plan is fixed after its first iteration: a million
        # iterations cost about two chunks
        start = time.perf_counter()
        plan = OT.ipot(np.array([[0.7]]), outer_iters=10**6)
        assert time.perf_counter() - start < 1.0
        want, history = _ipot_reference(np.array([[0.7]]), 0.5, 1000)
        assert plan.values.tobytes() == want.tobytes()
        assert plan.cost == history[-1]

    @pytest.mark.parametrize("seed, shape, period", [(395, (3, 2), 3), (104, (2, 3), 6)])
    def test_a_periodic_solve_skips_the_rest_of_its_loop(self, seed, shape, period):
        # a plan that cycles with period 3 or 6, which divide the chunk
        # length: a million iterations cost about a thousand
        c = np.random.default_rng(seed).uniform(0.0, 2.0, size=shape)
        assert _period_after_1000(c) == period
        start = time.perf_counter()
        plan = OT.ipot(c, outer_iters=10**6)
        assert time.perf_counter() - start < 1.0
        want, history = _ipot_reference(c, 0.5, 1000 + (10**6 - 1000) % period)
        assert plan.values.tobytes() == want.tobytes()
        assert plan.cost == history[-1]

    def test_clamped_kernel_bitwise_the_expression_loop(self):
        c = np.array([[0.0, 800.0, 3.0], [800.0, 0.0, 1.0]])
        with pytest.warns(OT.ConditioningWarning):
            plan = OT.ipot(c, beta=0.5, outer_iters=50)
        want, history = _ipot_reference(c, 0.5, 50)
        assert plan.values.tobytes() == want.tobytes()
        assert plan.cost == history[-1]

    def test_each_call_returns_a_fresh_plan(self):
        # cea_loss copies every plan and align keeps it: no buffer may outlive its call
        c = np.random.default_rng(2).uniform(size=(4, 5))
        first = OT.ipot(c, outer_iters=3)
        kept = first.values.copy()
        second = OT.ipot(c, outer_iters=3)
        assert not np.shares_memory(first.values, second.values)
        assert first.values.tobytes() == kept.tobytes()

    def test_conditioning_warning_on_extreme_costs(self):
        c = np.array([[0.0, 800.0], [800.0, 0.0]])
        with pytest.warns(OT.ConditioningWarning):
            plan = OT.ipot(c, beta=0.5, outer_iters=10)
        assert np.isfinite(plan.values).all()


class TestOracle:
    def test_zero_cost_matrix(self):
        plan, cost = exact_ot_oracle(np.zeros((3, 4)))
        assert cost == 0.0
        assert np.allclose(plan.sum(axis=1), 1.0 / 3.0, atol=1e-9)
        assert np.allclose(plan.sum(axis=0), 1.0 / 4.0, atol=1e-9)

    def test_two_by_two_family(self):
        _, cost = exact_ot_oracle(np.array([[0.2, 0.8], [0.6, 0.4]]))
        assert np.isclose(cost, 0.3, atol=1e-12)

    def test_permutation_structure(self):
        perm = [2, 0, 3, 1]
        c = np.ones((4, 4))
        for i, j in enumerate(perm):
            c[i, j] = 0.0
        plan, cost = exact_ot_oracle(c)
        assert np.isclose(cost, 0.0, atol=1e-12)
        expected = np.zeros((4, 4))
        for i, j in enumerate(perm):
            expected[i, j] = 0.25
        assert np.allclose(plan, expected, atol=1e-9)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_ot_oracle(np.zeros((9, 3)))

    def test_vertex_sparsity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m, n = rng.integers(2, 7, size=2)
            plan, _ = exact_ot_oracle(rng.uniform(size=(m, n)))
            assert (plan > 1e-12).sum() <= m + n - 1

    def test_ipot_agrees_with_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            m, n = rng.integers(2, 7, size=2)
            c = rng.uniform(size=(m, n))
            _, lp_cost = exact_ot_oracle(c)
            plan = OT.ipot(c, beta=0.5, outer_iters=2000)
            assert abs(plan.cost - lp_cost) <= 1e-3


def one_pair_loss(x, y, **kwargs):
    """cea_loss on a batch of one (m, d) x (n, d) pair."""
    return OT.cea_loss(T.Tensor(x.data[None]), T.Tensor(y.data[None]),
                       [(x.shape[0], y.shape[0])], **kwargs)


class TestCeaLoss:
    def test_identical_sets_go_to_zero(self):
        rng = np.random.default_rng(10)
        x = T.Tensor(rng.standard_normal((4, 6)))
        loss = one_pair_loss(x, T.Tensor(x.data.copy()), outer_iters=500)
        assert loss.item() <= 1e-3
        # exact oracle agrees: zero-diagonal cost admits a diagonal plan
        cm = OT.cost_matrix(x, x)
        _, lp_cost = exact_ot_oracle(cm.values.data)
        assert abs(loss.item() - lp_cost) <= 1e-3

    def test_single_token_pair_is_cosine_distance(self):
        x = T.Tensor([[1.0, 2.0, 0.5]])
        y = T.Tensor([[0.3, -1.0, 2.0]])
        loss = one_pair_loss(x, y, outer_iters=10)
        expected = 1.0 - (x.data[0] @ y.data[0]) / (
            np.linalg.norm(x.data[0]) * np.linalg.norm(y.data[0]))
        assert np.isclose(loss.item(), expected, atol=1e-12)

    def test_symmetry(self):
        # Cost symmetry + plan transpose at convergence; partially
        # converged runs can differ by ~1e-8 because the first scaling
        # always starts from the column side.
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.standard_normal((4, 5)))
        y = T.Tensor(rng.standard_normal((6, 5)))
        a = one_pair_loss(x, y, outer_iters=2000).item()
        b = one_pair_loss(y, x, outer_iters=2000).item()
        assert abs(a - b) <= 1e-9

    def test_gradient_flows_through_cost_only(self):
        # Against finite differences of <T*, C(X)> with the plan frozen.
        rng = np.random.default_rng(12)
        x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = T.Tensor(rng.standard_normal((3, 4)))
        frozen = OT.ipot(OT.cost_matrix(x, y).values.data, outer_iters=200)

        def frozen_loss():
            cm = OT.cost_matrix(x, y)
            return (T.Tensor(frozen.values) * cm.values).sum()

        x.zero_grad()
        T.backward(frozen_loss())
        analytic = x.grad.copy()
        numeric = numeric_grad(frozen_loss, x)
        assert rel_error(analytic, numeric) <= 1e-5

    def test_degenerate_flag_propagates(self):
        x = T.Tensor([[0.0, 0.0], [1.0, 0.0]])
        y = T.Tensor([[0.0, 1.0], [1.0, 1.0]])
        with pytest.warns(OT.DegenerateInputWarning):
            loss = one_pair_loss(x, y, outer_iters=20)
        assert np.isfinite(loss.item())

    def test_ragged_batch_is_the_mean_of_its_pairs(self):
        # Reference: each pair's one-pair loss <T*, C> built from cost_matrix
        # and ipot on its own rows. Padded rows are zero: they must neither
        # warn (warnings are errors here) nor take a gradient.
        rng = np.random.default_rng(16)
        lengths = [(2, 5), (4, 1), (3, 3)]
        x = T.Tensor(np.zeros((3, 4, 6)), requires_grad=True)
        y = T.Tensor(np.zeros((3, 5, 6)), requires_grad=True)
        for k, (m, n) in enumerate(lengths):
            x.data[k, :m] = rng.standard_normal((m, 6))
            y.data[k, :n] = rng.standard_normal((n, 6))
        loss = OT.cea_loss(x, y, lengths, outer_iters=30)
        T.backward(loss)
        want = 0.0
        for k, (m, n) in enumerate(lengths):
            xk = T.Tensor(x.data[k, :m].copy(), requires_grad=True)
            yk = T.Tensor(y.data[k, :n].copy(), requires_grad=True)
            cm = OT.cost_matrix(xk, yk)
            plan = OT.ipot(cm.values.data, outer_iters=30)
            part = T.scale((T.Tensor(plan.values) * cm.values).sum(), 1.0 / len(lengths))
            T.backward(part)
            want += part.item()
            for got, ref, real in ((x.grad[k], xk.grad, m), (y.grad[k], yk.grad, n)):
                np.testing.assert_allclose(got[:real], ref, rtol=0, atol=1e-12)
                assert not got[real:].any()
        assert loss.item() == pytest.approx(want, rel=1e-12, abs=0)

    def test_zero_norm_real_row_warns_in_a_batch(self):
        x = T.Tensor(np.ones((2, 3, 2)))
        x.data[1, 1] = 0.0  # a real row of the second pair
        with pytest.warns(OT.DegenerateInputWarning):
            OT.cea_loss(x, T.Tensor(np.ones((2, 2, 2))), [(1, 2), (2, 2)], outer_iters=5)

    def test_converged_plan_mass_concentrates(self):
        # m+n-1 largest entries carry nearly all mass at a unique optimum.
        rng = np.random.default_rng(13)
        for _ in range(5):
            m, n = rng.integers(3, 7, size=2)
            c = rng.uniform(size=(m, n)) + rng.uniform(0, 1e-3, size=(m, n))
            plan = OT.ipot(c, outer_iters=3000)
            flat = np.sort(plan.values.reshape(-1))[::-1]
            top = flat[: m + n - 1].sum()
            assert top >= 0.99 * plan.values.sum()


class TestAlignmentMatrix:
    def test_diagonal_plan_gives_identity(self):
        plan = OT.TransportPlan(values=np.diag([0.25] * 4), cost=0.0)
        assert np.allclose(OT.alignment_matrix(plan), np.eye(4))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        plan = OT.TransportPlan(values=rng.uniform(0.01, 1, size=(5, 7)), cost=0.0)
        rows = OT.alignment_matrix(plan).sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-12

    def test_uniform_plan(self):
        plan = OT.TransportPlan(values=np.full((3, 5), 1.0 / 15), cost=0.0)
        assert np.allclose(OT.alignment_matrix(plan), 1.0 / 5.0)

    def test_zero_row_rejected(self):
        plan = OT.TransportPlan(values=np.array([[0.0, 0.0], [1.0, 0.0]]), cost=0.0)
        with pytest.raises(ValueError):
            OT.alignment_matrix(plan)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        mat = rng.uniform(size=(3, 4))
        mat /= mat.sum(axis=1, keepdims=True)
        path = tmp_path / "align.csv"
        OT.write_alignment_csv(path, ["a", "b", "c"], ["w", "x", "y", "z"], mat)
        row_toks, col_toks, back = read_alignment_csv(path)
        assert row_toks == ["a", "b", "c"]
        assert col_toks == ["w", "x", "y", "z"]
        assert np.abs(back.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.array_equal(back, mat)  # repr round-trips float64
