"""Optimal-transport alignment: cosine costs, IPOT solver, Wasserstein loss.

Conventions: rows index the first token set (m tokens, marginal 1/m),
columns the second (n tokens, marginal 1/n). The proximal-point solver
alternates diagonal scalings of Q = A .* T, where A = exp(-C / beta)
keeps the plan close to its previous iterate under a KL penalty; unlike
entropic regularization the fixed point is the unregularized optimum.

The exact solver is a validation oracle for small instances only; it is
never part of training.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import tensor as T
from .tensor import Tensor

NORM_EPS = 1e-8
ORACLE_MAX_SIDE = 8


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
    cost_history: list[float] = field(default_factory=list)


def cost_matrix(x: Tensor, y: Tensor) -> CostMatrix:
    """C_ij = 1 - cos(x_i, y_j). Zero-norm rows are clamped, with a warning."""
    if any((np.linalg.norm(t.data, axis=1) <= NORM_EPS).any() for t in (x, y)):
        warnings.warn("zero-norm embedding row in cost matrix; norm clamped",
                      DegenerateInputWarning, stacklevel=2)
    sim = T.cosine_similarity(x, y, eps=NORM_EPS)
    ones = Tensor(np.ones(sim.shape))
    return CostMatrix(values=ones - sim)


def ipot(c, beta: float = 0.5, outer_iters: int = 50, inner_k: int = 1,
         track_costs: bool = False) -> TransportPlan:
    """Proximal-point transport solver with uniform marginals.

    Per outer iteration: Q = A .* T, then ``inner_k`` rounds of
    delta = 1 / (m Q sigma), sigma = 1 / (n Q^T delta), and finally
    T = diag(delta) Q diag(sigma). K = 1 suffices in practice.
    """
    cv = np.asarray(c, dtype=np.float64)
    if cv.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cv.shape}")
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
    history: list[float] = []
    for _ in range(outer_iters):
        q = a * t
        for _ in range(inner_k):
            delta = 1.0 / (m * (q @ sigma))
            sigma = 1.0 / (n * (q.T @ delta))
        t = delta[:, None] * q * sigma[None, :]
        if track_costs:
            history.append(float((t * cv).sum()))
    return TransportPlan(values=t, cost=float((t * cv).sum()), cost_history=history)


def exact_ot_oracle(c) -> tuple[np.ndarray, float]:
    """Exact optimal plan for uniform marginals via LP (simplex pivoting).

    Small instances only (m, n <= 8); the returned plan is a basic
    solution, i.e. a vertex of the transportation polytope.
    """
    cv = np.asarray(c, dtype=np.float64)
    m, n = cv.shape
    if m > ORACLE_MAX_SIDE or n > ORACLE_MAX_SIDE:
        raise ValueError(f"oracle capped at {ORACLE_MAX_SIDE}x{ORACLE_MAX_SIDE}, got {m}x{n}")
    a_eq = np.zeros((m + n, m * n))
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    res = linprog(cv.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = np.clip(res.x.reshape(m, n), 0.0, None)
    return plan, float((plan * cv).sum())


def cea_loss(x: Tensor, y: Tensor, beta: float = 0.5,
             outer_iters: int = 50) -> Tensor:
    """Wasserstein alignment loss <T*, C> for one embedding pair.

    The plan is solved on detached cost values and enters the loss as a
    constant, so gradients flow only through C into the embeddings.
    """
    cm = cost_matrix(x, y)
    plan = ipot(cm.values.data, beta=beta, outer_iters=outer_iters)
    return (Tensor(plan.values) * cm.values).sum()


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


def read_alignment_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Inverse of write_alignment_csv, for round-trip checks and plotting."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col_tokens = rows[0][1:]
    row_tokens = [r[0] for r in rows[1:]]
    matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return row_tokens, col_tokens, matrix
