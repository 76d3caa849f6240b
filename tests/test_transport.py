import numpy as np
import pytest

from domainlm import tensor as T
from domainlm import transport as OT

from gradcheck import numeric_grad, rel_error


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
        delta = 1.0 / (m * (q @ sigma))
        t_mid = delta[:, None] * q * sigma[None, :]
        assert np.abs(t_mid.sum(axis=1) - 1.0 / m).max() <= 1e-12

    def test_monotone_cost_improvement(self):
        # Monotone descent holds when the proximal subproblem is solved
        # well (K=5 here); the practical K=1 shortcut can wiggle ~1e-4 on
        # rectangular instances while still converging.
        rng = np.random.default_rng(6)
        for _ in range(5):
            c = rng.uniform(size=(rng.integers(2, 7), rng.integers(2, 7)))
            plan = OT.ipot(c, outer_iters=300, inner_k=5, track_costs=True)
            diffs = np.diff(plan.cost_history)
            assert (diffs <= 1e-9).all()

    def test_monotone_cost_improvement_square_k1(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            side = rng.integers(2, 7)
            c = rng.uniform(size=(side, side))
            plan = OT.ipot(c, outer_iters=300, track_costs=True)
            assert (np.diff(plan.cost_history) <= 1e-9).all()

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

    def test_conditioning_warning_on_extreme_costs(self):
        c = np.array([[0.0, 800.0], [800.0, 0.0]])
        with pytest.warns(OT.ConditioningWarning):
            plan = OT.ipot(c, beta=0.5, outer_iters=10)
        assert np.isfinite(plan.values).all()


class TestOracle:
    def test_zero_cost_matrix(self):
        plan, cost = OT.exact_ot_oracle(np.zeros((3, 4)))
        assert cost == 0.0
        assert np.allclose(plan.sum(axis=1), 1.0 / 3.0, atol=1e-9)
        assert np.allclose(plan.sum(axis=0), 1.0 / 4.0, atol=1e-9)

    def test_two_by_two_family(self):
        _, cost = OT.exact_ot_oracle(np.array([[0.2, 0.8], [0.6, 0.4]]))
        assert np.isclose(cost, 0.3, atol=1e-12)

    def test_permutation_structure(self):
        perm = [2, 0, 3, 1]
        c = np.ones((4, 4))
        for i, j in enumerate(perm):
            c[i, j] = 0.0
        plan, cost = OT.exact_ot_oracle(c)
        assert np.isclose(cost, 0.0, atol=1e-12)
        expected = np.zeros((4, 4))
        for i, j in enumerate(perm):
            expected[i, j] = 0.25
        assert np.allclose(plan, expected, atol=1e-9)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            OT.exact_ot_oracle(np.zeros((9, 3)))

    def test_vertex_sparsity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m, n = rng.integers(2, 7, size=2)
            plan, _ = OT.exact_ot_oracle(rng.uniform(size=(m, n)))
            assert (plan > 1e-12).sum() <= m + n - 1

    def test_ipot_agrees_with_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            m, n = rng.integers(2, 7, size=2)
            c = rng.uniform(size=(m, n))
            _, lp_cost = OT.exact_ot_oracle(c)
            plan = OT.ipot(c, beta=0.5, outer_iters=2000)
            assert abs(plan.cost - lp_cost) <= 1e-3


class TestCeaLoss:
    def test_identical_sets_go_to_zero(self):
        rng = np.random.default_rng(10)
        x = T.Tensor(rng.standard_normal((4, 6)))
        loss = OT.cea_loss(x, T.Tensor(x.data.copy()), outer_iters=500)
        assert loss.item() <= 1e-3
        # exact oracle agrees: zero-diagonal cost admits a diagonal plan
        cm = OT.cost_matrix(x, x)
        _, lp_cost = OT.exact_ot_oracle(cm.values.data)
        assert abs(loss.item() - lp_cost) <= 1e-3

    def test_single_token_pair_is_cosine_distance(self):
        x = T.Tensor([[1.0, 2.0, 0.5]])
        y = T.Tensor([[0.3, -1.0, 2.0]])
        loss = OT.cea_loss(x, y, outer_iters=10)
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
        a = OT.cea_loss(x, y, outer_iters=2000).item()
        b = OT.cea_loss(y, x, outer_iters=2000).item()
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
            loss = OT.cea_loss(x, y, outer_iters=20)
        assert np.isfinite(loss.item())

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
        row_toks, col_toks, back = OT.read_alignment_csv(path)
        assert row_toks == ["a", "b", "c"]
        assert col_toks == ["w", "x", "y", "z"]
        assert np.abs(back.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.array_equal(back, mat)  # repr round-trips float64
