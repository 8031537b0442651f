"""Parameterized transportation LPs behind the retailer and supplier utilities.

The solver is a primal transportation simplex on the balanced tableau with
Bland's pivoting rule, so optima (and the flow matrices reported for tied
optima) are reproducible across runs.  The basis is a spanning tree over the
rows and columns, kept as adjacency sets that each pivot updates in place;
one walk of the tree from row 0 per pivot gives the dual potentials and
every node's parent, and the entering cycle is the tree path between the
entering cell's row and column.  Dual prices are read off the final tree and
normalized against a free-disposal dummy column, which makes them valid
shadow prices for the inequality-form problem:

    minimize    sum_ij c_ij v_ij
    subject to  sum_j v_ij <= row_bounds[i]        (row duals <= 0)
                sum_i v_ij >= col_requirements[j]  (column duals >= 0)
                v >= 0

An optional virtual slack source with a per-unit penalty makes short problems
feasible (lost-sales style).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InfeasibleError, ParameterError

# Pivot tolerance: toy data is integral, random suites use costs O(10) and
# quantities O(100), so absolute tolerances are safe at this scale.
_TOL = 1e-9
_EPS = 1e-12
_MAX_PIVOTS = 20000


def _as_vector(x, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{name} contains non-finite entries")
    return v


def as_plan(x, dim=None):
    """Validate a supply plan: a one-dimensional nonnegative float vector."""
    v = _as_vector(x, "plan")
    if dim is not None and v.size != dim:
        raise DimensionError(f"plan has {v.size} entries, expected {dim}")
    if np.any(v < -_TOL):
        raise ParameterError("plan entries must be nonnegative")
    return np.maximum(v, 0.0)


@dataclass(frozen=True)
class TransportSolution:
    """Optimal flow with duals for one transportation instance."""

    flow: np.ndarray          # (rows, cols) flow on the real arcs
    objective: float          # total cost, slack-arc penalties included
    row_duals: np.ndarray     # shadow price of each row bound (<= 0)
    col_duals: np.ndarray     # shadow price of each column requirement (>= 0)
    slack_flow: np.ndarray    # per-column units drawn from the virtual slack source
    dual_objective: float = field(default=0.0, repr=False)


def _northwest_corner(supply, demand):
    """Initial basic feasible solution with exactly m + n - 1 basic cells,
    and its basis tree as adjacency sets: rows are nodes 0..m-1, columns
    nodes m..m+n-1."""
    m, n = supply.size, demand.size
    flow = np.zeros((m, n))
    tree = [set() for _ in range(m + n)]
    s = supply.copy()
    d = demand.copy()
    i = j = 0
    while True:
        q = min(s[i], d[j])
        flow[i, j] = q
        tree[i].add(m + j)
        tree[m + j].add(i)
        s[i] -= q
        d[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # rounding can leave a sliver of supply once the last column is
        # full; it moves on down that column instead of past its end
        if i < m - 1 and (s[i] <= d[j] or j == n - 1):
            i += 1
        else:
            j += 1
    return flow, tree


def _walk_tree(costs, tree):
    """Walk the basis tree from row 0: the potentials solving u_i + w_j = c_ij
    on every tree cell (u_0 = 0), each set from its tree parent, and each
    node's parent (-1 at the root).  ``costs`` is a list of row lists."""
    m = len(costs)
    pot = [0.0] * len(tree)
    parent = [-1] * len(tree)
    stack = [0]
    while stack:
        v = stack.pop()
        for x in tree[v]:
            if x != parent[v]:
                parent[x] = v
                pot[x] = costs[v][x - m] - pot[v] if v < m else costs[x][v - m] - pot[v]
                stack.append(x)
    return np.array(pot[:m]), np.array(pot[m:]), parent


def _optimize(costs, flow, tree):
    m, n = costs.shape
    cost_rows = costs.tolist()
    for _ in range(_MAX_PIVOTS):
        u, w, parent = _walk_tree(cost_rows, tree)
        reduced = costs - u[:, None] - w[None, :]
        # Bland's rule: first improving cell in row-major order.  Tree cells
        # price at zero only up to rounding, so they are skipped by name.
        cells = (divmod(k, n) for k in np.flatnonzero(reduced < -_TOL).tolist())
        enter = next(((i, j) for i, j in cells if m + j not in tree[i]), None)
        if enter is None:
            return u, w
        ei, ej = enter
        # The entering cycle: the tree path from row ei up to the common
        # ancestor and down to column ej; its cells alternate -, +, ..., -.
        up = [ei]
        while parent[up[-1]] >= 0:
            up.append(parent[up[-1]])
        rank = {v: k for k, v in enumerate(up)}
        down = [m + ej]
        while down[-1] not in rank:
            down.append(parent[down[-1]])
        path = up[:rank[down[-1]] + 1] + down[-2::-1]
        cycle = [(a, b - m) if a < m else (b, a - m) for a, b in zip(path, path[1:])]
        minus = cycle[0::2]
        theta = min(flow[c] for c in minus)
        # Leaving cell: lowest row-major index among the ties (anti-cycling).
        li, lj = min(c for c in minus if flow[c] <= theta + _EPS)
        for c in [enter] + cycle[1::2]:
            flow[c] += theta
        for c in minus:
            flow[c] -= theta
        flow[li, lj] = 0.0
        tree[ei].add(m + ej)
        tree[m + ej].add(ei)
        tree[li].remove(m + lj)
        tree[m + lj].remove(li)
    raise ArithmeticError("transportation simplex exceeded its pivot budget")


def solve_transport(costs, row_bounds, col_requirements, slack_penalty=None):
    """Minimum-cost flow from bounded rows to columns with fixed requirements.

    When total row capacity falls short of the total requirement, a virtual
    slack source priced at ``slack_penalty`` per unit absorbs the shortfall;
    without a penalty the short problem raises :class:`InfeasibleError`.
    Ties among optimal flows are broken by row-major arc order.
    """
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2:
        raise DimensionError(f"costs must be a matrix, got shape {c.shape}")
    rb = _as_vector(row_bounds, "row_bounds")
    cq = _as_vector(col_requirements, "col_requirements")
    rows, cols = c.shape
    if rb.size != rows or cq.size != cols:
        raise DimensionError(
            f"costs {c.shape} inconsistent with bounds ({rb.size},) / requirements ({cq.size},)"
        )
    if np.any(rb < 0) or np.any(cq < 0):
        raise ParameterError("bounds and requirements must be nonnegative")
    if not np.all(np.isfinite(c)):
        raise ParameterError("costs must be finite")

    total_bound = float(rb.sum())
    total_req = float(cq.sum())
    use_slack = slack_penalty is not None
    if not use_slack and total_bound < total_req - _TOL * (1.0 + total_req):
        raise InfeasibleError(
            f"requirements total {total_req} exceed capacity {total_bound} and no slack penalty is set"
        )

    # Balanced tableau: optional slack row, then a free-disposal dummy column.
    tab_costs = c
    supply = rb
    if use_slack:
        tab_costs = np.vstack([tab_costs, np.full(cols, float(slack_penalty))])
        supply = np.append(supply, total_req)
    surplus = float(supply.sum() - total_req)
    if surplus < 0:
        surplus = 0.0
    tab_costs = np.hstack([tab_costs, np.zeros((tab_costs.shape[0], 1))])
    demand = np.append(cq, surplus)

    flow, tree = _northwest_corner(supply, demand)
    u, w = _optimize(tab_costs, flow, tree)

    # Normalize duals so the dummy (disposal) column prices at zero; the
    # resulting row duals are <= 0 and column duals >= 0.
    shift = w[-1]
    u = u + shift
    w = w - shift

    real_flow = flow[:rows, :cols].copy()
    real_flow[np.abs(real_flow) < _EPS] = 0.0
    slack_flow = flow[rows, :cols].copy() if use_slack else np.zeros(cols)
    slack_flow[np.abs(slack_flow) < _EPS] = 0.0
    objective = float(np.sum(tab_costs[:, :cols] * flow[:, :cols]))
    row_duals = np.minimum(u[:rows], 0.0)
    col_duals = np.maximum(w[:cols], 0.0)
    dual_objective = float(rb @ row_duals + cq @ col_duals)
    if use_slack:
        # The slack row contributes its own capacity term; it is priced at the
        # (nonpositive) dual of the slack bound, zero whenever slack is unused.
        dual_objective += float(total_req * min(u[rows], 0.0))
    return TransportSolution(
        flow=real_flow,
        objective=objective,
        row_duals=row_duals,
        col_duals=col_duals,
        slack_flow=slack_flow,
        dual_objective=dual_objective,
    )


@dataclass(frozen=True)
class RetailerSpec:
    """Retailer private data: demand per outbound node, inbound-to-outbound
    arc costs, gross profit per unit of demand, and the lost-sales penalty."""

    demand: np.ndarray            # (J,) units per outbound node
    arc_costs: np.ndarray         # (I, J) $/unit inbound -> outbound
    gross_profit: np.ndarray      # (J,) $/unit of demand served
    lost_sales_penalty: float = 1000.0

    def __post_init__(self):
        d = _as_vector(self.demand, "demand")
        g = _as_vector(self.gross_profit, "gross_profit")
        c = np.asarray(self.arc_costs, dtype=float)
        if c.ndim != 2:
            raise DimensionError(f"arc_costs must be a matrix, got shape {c.shape}")
        if c.shape[1] != d.size or g.size != d.size:
            raise DimensionError(
                f"arc_costs {c.shape}, demand ({d.size},), gross_profit ({g.size},) disagree"
            )
        if np.any(d < 0) or np.any(c < 0):
            raise ParameterError("demand and arc costs must be nonnegative")
        if c.size and self.lost_sales_penalty <= float(c.max()):
            raise ParameterError("lost_sales_penalty must exceed every arc cost")
        object.__setattr__(self, "demand", d)
        object.__setattr__(self, "arc_costs", c)
        object.__setattr__(self, "gross_profit", g)
        object.__setattr__(self, "lost_sales_penalty", float(self.lost_sales_penalty))

    @property
    def n_inbound(self):
        return self.arc_costs.shape[0]

    @property
    def gross_profit_total(self):
        return float(self.gross_profit @ self.demand)


@dataclass(frozen=True)
class SupplierSpec:
    """Supplier private data: source capacities, source-to-inbound arc costs,
    and gross profit per unit supplied to each inbound node."""

    capacities: np.ndarray        # (K,) units per source node
    arc_costs: np.ndarray         # (K, I) $/unit source -> inbound
    gross_profit: np.ndarray      # (I,) $/unit supplied

    def __post_init__(self):
        s = _as_vector(self.capacities, "capacities")
        g = _as_vector(self.gross_profit, "gross_profit")
        c = np.asarray(self.arc_costs, dtype=float)
        if c.ndim != 2:
            raise DimensionError(f"arc_costs must be a matrix, got shape {c.shape}")
        if c.shape[0] != s.size or c.shape[1] != g.size:
            raise DimensionError(
                f"arc_costs {c.shape}, capacities ({s.size},), gross_profit ({g.size},) disagree"
            )
        if np.any(s < 0) or np.any(c < 0):
            raise ParameterError("capacities and arc costs must be nonnegative")
        object.__setattr__(self, "capacities", s)
        object.__setattr__(self, "arc_costs", c)
        object.__setattr__(self, "gross_profit", g)

    @property
    def n_inbound(self):
        return self.arc_costs.shape[1]

    @property
    def total_capacity(self):
        return float(self.capacities.sum())


@dataclass(frozen=True)
class UtilityEvaluation:
    """Utility value at a plan together with the transport solution behind it
    and a supergradient read off the LP duals."""

    value: float
    supergradient: np.ndarray
    transport: TransportSolution
    kind: str  # "retailer" | "supplier"


def retailer_utility(spec, plan):
    """Gross profit on demand minus the optimal inbound-to-outbound transport
    cost when inbound node i holds at most ``plan[i]`` units.  Unmet demand is
    lost at the spec's penalty, so the value is finite for every plan >= 0."""
    x = as_plan(plan, spec.n_inbound)
    sol = solve_transport(
        spec.arc_costs,
        row_bounds=x,
        col_requirements=spec.demand,
        slack_penalty=spec.lost_sales_penalty,
    )
    value = spec.gross_profit_total - sol.objective
    # One more unit of supply at node i is worth the (nonnegative) shadow
    # price of its capacity constraint.
    grad = -sol.row_duals
    return UtilityEvaluation(value=value, supergradient=grad, transport=sol, kind="retailer")


def supplier_utility(spec, plan):
    """Gross profit on the supplied plan minus the optimal source-to-inbound
    transport cost.  Raises :class:`InfeasibleError` when the plan exceeds
    total source capacity."""
    x = as_plan(plan, spec.n_inbound)
    if x.sum() > spec.total_capacity + _TOL * (1.0 + spec.total_capacity):
        raise InfeasibleError(
            f"plan total {x.sum():.6f} exceeds supplier capacity {spec.total_capacity:.6f}"
        )
    sol = solve_transport(spec.arc_costs, row_bounds=spec.capacities, col_requirements=x)
    value = float(spec.gross_profit @ x) - sol.objective
    grad = spec.gross_profit - sol.col_duals
    return UtilityEvaluation(value=value, supergradient=grad, transport=sol, kind="supplier")
