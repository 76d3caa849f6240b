"""Exact transport by linear programming: the validation oracle for IPOT on
small instances. It is test code only, so the library needs no scipy."""
import numpy as np
from scipy.optimize import linprog

ORACLE_MAX_SIDE = 8


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
