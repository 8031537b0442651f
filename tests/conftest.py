"""Shared fixtures and independent oracles used across the test suite."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from coplan.transport import RetailerSpec, SupplierSpec


# ---------------------------------------------------------------------------
# Worked bilateral example: two inbound nodes, two demand regions, two sources.

@pytest.fixture(scope="session")
def toy_retailer():
    return RetailerSpec(
        demand=[40.0, 60.0],
        arc_costs=[[1.0, 5.0], [2.0, 3.0]],
        gross_profit=[20.0, 20.0],
        lost_sales_penalty=1000.0,
    )


@pytest.fixture(scope="session")
def toy_supplier():
    return SupplierSpec(
        capacities=[100.0, 10.0],
        arc_costs=[[10.0, 5.0], [1.0, 2.0]],
        gross_profit=[20.0, 20.0],
    )


# ---------------------------------------------------------------------------
# Brute-force minimum-cost oracle: exhaustive search over integer flows.

def enumerate_min_cost(costs, row_bounds, col_requirements, slack_penalty=None):
    """Exhaustive minimum over all integer flow matrices.

    Columns are filled one at a time with every integer split of the
    requirement across rows (plus the slack row when a penalty is given).
    Intended for tiny all-integer instances only.
    """
    costs = [list(map(float, row)) for row in costs]
    bounds = list(map(int, row_bounds))
    reqs = list(map(int, col_requirements))
    if slack_penalty is not None:
        costs.append([float(slack_penalty)] * len(reqs))
        bounds.append(sum(reqs))
    m = len(bounds)
    best = [float("inf")]

    def splits(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for q in range(min(total, caps[0]) + 1):
            for rest in splits(total - q, caps[1:]):
                yield (q,) + rest

    def fill(j, caps, cost_so_far):
        if cost_so_far >= best[0]:
            return
        if j == len(reqs):
            best[0] = cost_so_far
            return
        for alloc in splits(reqs[j], caps):
            extra = sum(a * costs[i][j] for i, a in enumerate(alloc))
            if cost_so_far + extra < best[0]:
                fill(j + 1, [c - a for c, a in zip(caps, alloc)], cost_so_far + extra)

    fill(0, bounds, 0.0)
    if best[0] == float("inf"):
        return None
    return best[0]


# ---------------------------------------------------------------------------
# One-sided finite differences for supergradient checks (exact off kinks
# because the value functions are piecewise linear).

def one_sided_diffs(fn, x, step=1e-4):
    x = np.asarray(x, dtype=float)
    fwd = np.zeros_like(x)
    bwd = np.full_like(x, np.nan)
    f0 = fn(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fwd[i] = (fn(x + e) - f0) / step
        if x[i] >= step:
            bwd[i] = (f0 - fn(x - e)) / step
    return fwd, bwd


# ---------------------------------------------------------------------------
# Exact fast utility evaluators built from enumerated dual vertices.  These
# let grid oracles score hundreds of thousands of plans in one numpy call.
# They are validated against the transport solver at construction time, then
# used as an independent scorer for optimizer checks.

def _polytope_vertices(A_ub, b_ub):
    """All vertices of {y : A_ub y <= b_ub} by active-set enumeration."""
    m, n = A_ub.shape
    verts = []
    for rows in itertools.combinations(range(m), n):
        M = A_ub[list(rows)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        y = np.linalg.solve(M, b_ub[list(rows)])
        if np.all(A_ub @ y <= b_ub + 1e-7):
            verts.append(y)
    return np.unique(np.round(np.asarray(verts), 9), axis=0)


class RetailerValueOracle:
    """u_A on a batch of plans via max over dual vertices of the inner LP."""

    def __init__(self, spec):
        I, J = spec.arc_costs.shape
        p = spec.lost_sales_penalty
        # Dual variables y = (lam_1..lam_I, w_1..w_J), value = d@w - x@lam.
        rows = []
        rhs = []
        for i in range(I):
            for j in range(J):
                r = np.zeros(I + J)
                r[i] = -1.0
                r[I + j] = 1.0
                rows.append(r)
                rhs.append(spec.arc_costs[i, j])
        for j in range(J):
            r = np.zeros(I + J)
            r[I + j] = 1.0
            rows.append(r)
            rhs.append(p)
        bound = 2.0 * p
        for k in range(I + J):
            lo = np.zeros(I + J)
            lo[k] = -1.0
            rows.append(lo)
            rhs.append(0.0)
            hi = np.zeros(I + J)
            hi[k] = 1.0
            rows.append(hi)
            rhs.append(bound)
        verts = _polytope_vertices(np.asarray(rows), np.asarray(rhs))
        self.lam = verts[:, :I]
        self.w = verts[:, I:]
        self.base = spec.gross_profit_total
        self.dw = self.w @ spec.demand

    def __call__(self, plans):
        plans = np.atleast_2d(np.asarray(plans, dtype=float))
        cost = np.max(self.dw[None, :] - plans @ self.lam.T, axis=1)
        return self.base - cost


class SupplierValueOracle:
    """u_S on a batch of plans; -inf where the plan exceeds total capacity."""

    def __init__(self, spec):
        K, I = spec.arc_costs.shape
        cmax = float(spec.arc_costs.max())
        rows = []
        rhs = []
        # Dual variables y = (w_1..w_I, mu_1..mu_K), cost = x@w - s@mu.
        for k in range(K):
            for i in range(I):
                r = np.zeros(I + K)
                r[i] = 1.0
                r[I + k] = -1.0
                rows.append(r)
                rhs.append(spec.arc_costs[k, i])
        bound = 4.0 * cmax + 10.0
        for t in range(I + K):
            lo = np.zeros(I + K)
            lo[t] = -1.0
            rows.append(lo)
            rhs.append(0.0)
            hi = np.zeros(I + K)
            hi[t] = 1.0
            rows.append(hi)
            rhs.append(bound)
        verts = _polytope_vertices(np.asarray(rows), np.asarray(rhs))
        self.w = verts[:, :I]
        self.mu = verts[:, I:]
        self.smu = self.mu @ spec.capacities
        self.g = spec.gross_profit
        self.cap = spec.total_capacity

    def __call__(self, plans):
        plans = np.atleast_2d(np.asarray(plans, dtype=float))
        cost = np.max(plans @ self.w.T - self.smu[None, :], axis=1)
        vals = plans @ self.g - cost
        vals[plans.sum(axis=1) > self.cap + 1e-9] = -np.inf
        return vals


# ---------------------------------------------------------------------------
# Centralized joint-LP oracle (scipy HiGHS) for the socially efficient plan.

def solve_joint_lp(retailer, supplier, order_cap=True, scale=1.0, reference=None,
                   over_rate=0.0, under_rate=0.0):
    """Maximize scale * u_A(x) + u_S(x) over x >= 0 (with the no-overbuy cap)
    by one LP over (x, retailer flows, lost sales, supplier flows).  With a
    ``reference`` plan the objective also pays ``over_rate`` per unit of x
    above it and ``under_rate`` per unit below it, through one pair of
    deviation variables per node.

    Returns (x_star, joint_value).
    """
    I = retailer.n_inbound
    J = retailer.demand.size
    K = supplier.capacities.size
    nx, nva, nsa, nvs = I, I * J, J, K * I
    nd = 0 if reference is None else 2 * I
    n = nx + nva + nsa + nvs + nd
    c = np.zeros(n)
    c[:nx] = -supplier.gross_profit
    c[nx:nx + nva] = scale * retailer.arc_costs.reshape(-1)
    c[nx + nva:nx + nva + nsa] = scale * retailer.lost_sales_penalty
    c[nx + nva + nsa:nx + nva + nsa + nvs] = supplier.arc_costs.reshape(-1)
    if nd:
        c[n - nd:n - I] = over_rate
        c[n - I:] = under_rate

    A = []
    b = []
    for j in range(J):  # demand met (flows + lost sales)
        row = np.zeros(n)
        for i in range(I):
            row[nx + i * J + j] = -1.0
        row[nx + nva + j] = -1.0
        A.append(row)
        b.append(-retailer.demand[j])
    for i in range(I):  # retailer inbound usage within the plan
        row = np.zeros(n)
        row[i] = -1.0
        row[nx + i * J:nx + (i + 1) * J] = 1.0
        A.append(row)
        b.append(0.0)
    for i in range(I):  # supplier delivers the plan
        row = np.zeros(n)
        row[i] = 1.0
        for k in range(K):
            row[nx + nva + nsa + k * I + i] = -1.0
        A.append(row)
        b.append(0.0)
    for k in range(K):  # source capacity
        row = np.zeros(n)
        row[nx + nva + nsa + k * I:nx + nva + nsa + (k + 1) * I] = 1.0
        A.append(row)
        b.append(supplier.capacities[k])
    if order_cap:
        row = np.zeros(n)
        row[:nx] = 1.0
        A.append(row)
        b.append(retailer.demand.sum())
    for i in range(nd // 2):  # over_i >= x_i - ref_i, under_i >= ref_i - x_i
        row = np.zeros(n)
        row[i] = 1.0
        row[n - nd + i] = -1.0
        A.append(row)
        b.append(reference[i])
        row = np.zeros(n)
        row[i] = -1.0
        row[n - I + i] = -1.0
        A.append(row)
        b.append(-reference[i])

    res = linprog(c, A_ub=np.asarray(A), b_ub=np.asarray(b), bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    x = res.x[:nx].copy()
    joint = scale * retailer.gross_profit_total - res.fun
    return x, float(joint)


# ---------------------------------------------------------------------------
# Seeded random instance generator for the bilateral property suites.

def random_bilateral(rng, max_nodes=5, cover_demand=False):
    I = int(rng.integers(1, max_nodes + 1))
    J = int(rng.integers(1, max_nodes + 1))
    K = int(rng.integers(1, max_nodes + 1))
    demand = rng.integers(0, 101, size=J).astype(float)
    caps = rng.integers(0, 101, size=K).astype(float)
    if cover_demand and caps.sum() < demand.sum():
        short = demand.sum() - caps.sum()
        caps[int(rng.integers(0, K))] += short + float(rng.integers(0, 20))
    retailer = RetailerSpec(
        demand=demand,
        arc_costs=rng.integers(1, 11, size=(I, J)).astype(float),
        gross_profit=rng.integers(12, 31, size=J).astype(float),
        lost_sales_penalty=1000.0,
    )
    supplier = SupplierSpec(
        capacities=caps,
        arc_costs=rng.integers(1, 11, size=(K, I)).astype(float),
        gross_profit=rng.integers(12, 31, size=I).astype(float),
    )
    return retailer, supplier
