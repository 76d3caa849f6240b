"""Optimal-transport alignment: cosine costs, IPOT solver, Wasserstein loss.

Conventions: rows index the first token set (m tokens, marginal μ = 1/m),
columns the second (n tokens, marginal ν = 1/n). The proximal-point solver
alternates diagonal scalings of Q = A .* T, δ = μ ⊘ Qσ and σ = ν ⊘ Qᵀδ, where
A = exp(-C / beta) keeps the plan close to its previous iterate under a KL
penalty; unlike entropic regularization the fixed point is the unregularized optimum.
The plan is formed as Q ⊙ (δσᵀ), within 1e-14 of diag(δ) Q diag(σ)'s largest entry.
Each iteration is a deterministic map of the state (T, sigma), so once
that state repeats bit for bit the solver skips the whole periods left
and returns the plan the full loop would, bit for bit.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

NORM_EPS = 1e-8
# ipot runs its outer loop in chunks of this many iterations, checking
# whether a chunk left its state as it found it; that finds any period that
# divides it, which includes 1, 2, 3 and 6, the periods long solves fall into
PERIOD_CHECK = 24


class DegenerateInputWarning(UserWarning):
    """A zero-norm embedding row was clamped while building a cost matrix."""


class ConditioningWarning(UserWarning):
    """The proximal kernel exp(-C / beta) left the representable range."""


@dataclass
class CostMatrix:
    """Pairwise cosine distances in [0, 2]; differentiable w.r.t. both inputs."""

    values: Tensor


@dataclass
class TransportPlan:
    """Nonnegative m x n plan with uniform marginals 1/m (rows), 1/n (cols).

    The column marginal is exact after the final scaling of every outer
    iteration; the row marginal converges. ``cost`` is <T, C>.
    """

    values: np.ndarray
    cost: float


def _warn_on_zero_rows(*rows: np.ndarray) -> None:
    """Warn, on behalf of the public caller, if any row of ``rows`` would be clamped."""
    if any((np.linalg.norm(r, axis=-1) <= NORM_EPS).any() for r in rows):
        warnings.warn("zero-norm embedding row in cost matrix; norm clamped",
                      DegenerateInputWarning, stacklevel=3)


def cost_matrix(x: Tensor, y: Tensor) -> CostMatrix:
    """C_ij = 1 - cos(x_i, y_j). Zero-norm rows are clamped, with a warning."""
    _warn_on_zero_rows(x.data, y.data)
    sim = T.cosine_similarity(x, y, eps=NORM_EPS)
    ones = Tensor(np.ones(sim.shape))
    return CostMatrix(values=ones - sim)


def ipot(c, beta: float = 0.5, outer_iters: int = 50) -> TransportPlan:
    """Proximal-point transport solver with uniform marginals.

    Per outer iteration: Q = A .* T, then one scaling round,
    δ = μ ⊘ Qσ and σ = ν ⊘ Qᵀδ (⊘ divides elementwise), and finally
    T = diag(δ) Q diag(σ), formed as Q ⊙ (δσᵀ). That rounds differently
    from scaling rows, then columns: within 1e-14 of the largest entry.

    The loop reuses buffers made once per solve: each step writes in place,
    in the order the formulas above are written, and allocates nothing.
    The returned plan is a fresh array.

    The loop runs in chunks of ``PERIOD_CHECK`` iterations. When a chunk
    ends on the bytes of (T, sigma) it started from, every later chunk
    would repeat it, so the solve skips each whole chunk left and runs only
    the remainder. Plan and cost are bit for bit the full loop's.
    """
    cv = np.asarray(c, dtype=np.float64)
    if cv.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cv.shape}")
    if cv.size == 0:
        raise ValueError(f"cost matrix has no cells, got shape {cv.shape}")
    if not np.isfinite(cv).all():
        raise ValueError("cost matrix contains non-finite entries")
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    if outer_iters < 1:
        raise ValueError(f"outer_iters must be >= 1, got {outer_iters}")
    m, n = cv.shape
    a = np.exp(-cv / beta)
    if (a < 1e-300).any() or (a > 1e300).any():
        warnings.warn("proximal kernel clamped to [1e-300, 1e300]; "
                      "cost scale is large relative to beta",
                      ConditioningWarning, stacklevel=2)
        a = np.clip(a, 1e-300, 1e300)
    sigma = np.full(n, 1.0 / n)
    t = np.ones((m, n))
    q, scale, delta = np.empty((m, n)), np.empty((m, n)), np.empty(m)
    # (m, 1) x (1, n) dot: writes the outer product δσᵀ, one product per cell
    outer_dot, sigma_row = delta[:, None].dot, sigma[None, :]
    # 0-d float64 marginals: the Python scalars' values, with less dispatch per call
    mu, nu = np.array(1.0 / m), np.array(1.0 / n)
    q_dot, q_t_dot, multiply, divide = q.dot, q.T.dot, np.multiply, np.divide
    left = outer_iters
    while left:
        # check a chunk only if a whole chunk would be left to skip after it;
        # bytes, not ==, since NaN != NaN and -0.0 == 0.0
        check = left >= 2 * PERIOD_CHECK
        if check:
            before = t.tobytes() + sigma.tobytes()
        chunk = PERIOD_CHECK if check else left
        for _ in range(chunk):
            multiply(a, t, q)
            q_dot(sigma, delta)
            divide(mu, delta, delta)
            q_t_dot(delta, sigma)
            divide(nu, sigma, sigma)
            outer_dot(sigma_row, scale)
            multiply(q, scale, t)
        left -= chunk
        if check and t.tobytes() + sigma.tobytes() == before:
            left %= PERIOD_CHECK
    return TransportPlan(values=t, cost=float((t * cv).sum()))


def cea_loss(x: Tensor, y: Tensor, lengths: Sequence[tuple[int, int]],
             beta: float = 0.5, outer_iters: int = 50) -> Tensor:
    """Mean over pairs of the Wasserstein alignment loss <T*_k, C_k>.

    ``x`` (B, M, d) and ``y`` (B, N, d) hold each pair's embeddings padded
    along the token axis; pair k uses its first (m_k, n_k) = ``lengths[k]``
    rows. One batched cosine gives every pair's costs; each plan is solved
    by ``ipot`` on the pair's unpadded cost, held as a constant, and is 0
    on padded cells, so padded rows take no loss and no gradient. Gradients
    flow only through C into the embeddings.
    """
    if x.ndim != 3 or y.ndim != 3 or len(lengths) != x.shape[0]:
        raise ValueError(f"cea_loss: {len(lengths)} pair lengths for embeddings "
                         f"of shapes {x.shape}, {y.shape}")
    real = np.array(lengths).reshape(-1, 2)
    _warn_on_zero_rows(x.data[np.arange(x.shape[1]) < real[:, :1]],
                       y.data[np.arange(y.shape[1]) < real[:, 1:]])
    sim = T.cosine_similarity(x, y, eps=NORM_EPS)
    cost = Tensor(np.ones(sim.shape)) - sim
    plans = np.zeros(sim.shape)
    for k, (m, n) in enumerate(lengths):
        plans[k, :m, :n] = ipot(cost.data[k, :m, :n], beta=beta, outer_iters=outer_iters).values
    return T.scale((Tensor(plans) * cost).sum(), 1.0 / len(lengths))


def alignment_matrix(plan: TransportPlan) -> np.ndarray:
    """Row-normalize the plan so each row is a distribution over columns."""
    row_sums = plan.values.sum(axis=1, keepdims=True)
    if (row_sums <= 0).any():
        raise ValueError("transport plan has a zero row; cannot normalize")
    return plan.values / row_sums


def write_alignment_csv(path, row_tokens: list[str], col_tokens: list[str],
                        matrix: np.ndarray) -> None:
    """CSV with a token header row/column around row-normalized values."""
    if matrix.shape != (len(row_tokens), len(col_tokens)):
        raise ValueError(f"matrix shape {matrix.shape} does not match "
                         f"{len(row_tokens)} x {len(col_tokens)} token labels")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(col_tokens))
        for tok, row in zip(row_tokens, matrix):
            writer.writerow([tok] + [repr(float(v)) for v in row])
