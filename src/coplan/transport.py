"""Parameterized transportation LPs behind the retailer and supplier utilities.

The solver is a primal transportation simplex on the balanced tableau with
Bland's pivoting rule, so optima (and the flow matrices reported for tied
optima) are reproducible across runs.  The basis is a spanning tree over the
rows and columns, kept as adjacency sets that each pivot updates in place,
and hung once from row 0: every node keeps its parent, its depth and its dual
potential for the whole solve.  The entering cycle is the tree path between
the entering cell's row and column, found by climbing from both ends to
their common ancestor.  A pivot cuts the tree at the leaving cell, and only
the subtree below it moves: it hangs again from the entering cell, and its
potentials are set again along its tree paths, with the bits a walk of the
whole tree would give.  Dual prices are read off the final tree and
normalized against a free-disposal dummy column, which makes them valid
shadow prices for the inequality-form problem:

    minimize    sum_ij c_ij v_ij
    subject to  sum_j v_ij <= row_bounds[i]        (row duals <= 0)
                sum_i v_ij >= col_requirements[j]  (column duals >= 0)
                v >= 0

An optional virtual slack source with a per-unit penalty makes short problems
feasible (lost-sales style).

A solution carries its final basis tree.  The costs fix the tree's duals, so
for new bounds and requirements under the same costs the tree is still
optimal whenever its own flows stay nonnegative, which one pass from its
leaves decides (:func:`basis_holds`; Ahuja, Magnanti & Orlin, *Network
Flows*, 1993, ch. 11).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InfeasibleError, NonConvergenceError, ParameterError

# Pivot tolerance: toy data is integral, random suites use costs O(10) and
# quantities O(100), so absolute tolerances are safe at this scale.
_TOL = 1e-9
_EPS = 1e-12
_MAX_PIVOTS = 20000
_PLAIN = {int, float}


def checked(values, name, nonnegative=False, message=None):
    """The one input rule: every number coplan takes in is finite, fits in a
    float (json and Python read integers of any length) and, if
    ``nonnegative``, is at least zero.  A number comes back as a float; a list
    of Python numbers (as json decodes one; its first entry tells) is checked
    without numpy and comes back as it is; anything else comes back as a float
    array.  A fault raises :class:`ParameterError`: ``message``, else "<name>
    must be finite" or "<name> must be nonnegative"."""
    try:
        kind = type(values)
        if kind is list and (not values or type(values[0]) in _PLAIN):
            out = values
            finite = all(map(math.isfinite, out))
            negative = nonnegative and min(out, default=0) < 0
        elif kind is float or kind is int:
            out = float(values)
            finite, negative = math.isfinite(out), out < 0
        else:
            out = np.asarray(values, dtype=float)
            finite = np.isfinite(out).all()
            # np.min's reduction without its wrapper, and with an empty array's answer
            negative = nonnegative and np.minimum.reduce(out, axis=None, initial=0.0) < 0
            out = float(out) if out.ndim == 0 else out
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite or nonnegative and negative:
        raise ParameterError(message or f"{name} must be {'nonnegative' if finite else 'finite'}")
    return out


def _as_array(x, name, ndim=1, nonnegative=False):
    v = np.asarray(checked(x, name, nonnegative), dtype=float)
    if v.ndim != ndim:
        shape = "one-dimensional" if ndim == 1 else "a matrix"
        raise DimensionError(f"{name} must be {shape}, got shape {v.shape}")
    return v


def as_plan(x, dim=None):
    """Validate a supply plan: a one-dimensional nonnegative float vector."""
    v = _as_array(x, "plan")
    if dim is not None and v.size != dim:
        raise DimensionError(f"plan has {v.size} entries, expected {dim}")
    if (v < -_TOL).any():
        raise ParameterError("plan entries must be nonnegative")
    return np.maximum(v, 0.0)


def exceeds(total, capacity):
    """The one capacity test: whether ``total`` passes ``capacity`` by more
    than rounding, a slack of 1e-9 (1 + capacity)."""
    return total > capacity + 1e-9 * (1.0 + capacity)


@dataclass(frozen=True)
class TransportSolution:
    """Optimal flow with duals for one transportation instance."""

    flow: np.ndarray          # (rows, cols) flow on the real arcs
    objective: float          # total cost, slack-arc penalties included
    row_duals: np.ndarray     # shadow price of each row bound (<= 0)
    col_duals: np.ndarray     # shadow price of each column requirement (>= 0)
    slack_flow: np.ndarray    # per-column units drawn from the virtual slack source
    dual_objective: float = field(default=0.0, repr=False)
    pivots: int = field(default=0, repr=False)  # simplex pivots from the initial basis
    # final basis tree as adjacency sets over the balanced tableau: rows (then
    # the slack row), then columns (then the disposal column); None without one
    basis: list | None = field(default=None, repr=False, compare=False)


def _northwest_corner(supply, demand):
    """Initial basic feasible solution with exactly m + n - 1 basic cells, as
    row lists, and its basis tree as adjacency sets: rows are nodes 0..m-1,
    columns nodes m..m+n-1.  ``supply`` and ``demand`` are lists of floats."""
    m, n = len(supply), len(demand)
    flow = [[0.0] * n for _ in range(m)]
    tree = [set() for _ in range(m + n)]
    s = list(supply)
    d = list(demand)
    i = j = 0
    while True:
        q = min(s[i], d[j])
        flow[i][j] = q
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


def _hang(costs, tree, root, parent, depth, pot):
    """Hang the subtree at ``root`` from ``parent[root]`` (already set, -1 for
    the whole tree): each node below it gets its parent, its depth and the
    potential solving u_i + w_j = c_ij on its parent arc, c - pot[parent]."""
    m = len(costs)
    p = parent[root]
    if p >= 0:
        depth[root] = depth[p] + 1
        pot[root] = costs[p][root - m] - pot[p] if p < m else costs[root][p - m] - pot[p]
    stack = [root]
    while stack:
        v = stack.pop()
        pv, dv, uv = parent[v], depth[v] + 1, pot[v]
        for x in tree[v]:
            if x != pv:
                parent[x] = v
                depth[x] = dv
                pot[x] = costs[v][x - m] - uv if v < m else costs[x][v - m] - uv
                stack.append(x)


def _optimize(costs, flow, tree):
    """Pivot the basis ``tree`` to optimality; ``costs`` and ``flow`` are row
    lists, and ``flow`` and ``tree`` are updated in place.  Returns the
    potentials (rows, then columns; u_0 = 0) and the number of pivots."""
    m = len(costs)
    parent = [-1] * len(tree)
    depth = [0] * len(tree)
    pot = [0.0] * len(tree)
    _hang(costs, tree, 0, parent, depth, pot)
    neg_tol = -_TOL
    for pivots in range(_MAX_PIVOTS):
        # Bland's rule: first improving cell in row-major order.  Tree cells
        # price at zero only up to rounding, so they are skipped by name.
        w = pot[m:]
        enter = None
        for ei, row in enumerate(costs):
            u = pot[ei]
            for ej, c in enumerate(row):
                if c - u - w[ej] < neg_tol and parent[ei] != m + ej and parent[m + ej] != ei:
                    enter = ei, ej
                    break
            if enter is not None:
                break
        if enter is None:
            return pot, pivots
        # The entering cycle: the tree path from row ei up to the common
        # ancestor and down to column ej; its cells alternate -, +, ..., -.
        a, b = ei, m + ej
        up, down = [a], [b]
        while depth[a] > depth[b]:
            a = parent[a]
            up.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            down.append(b)
        while a != b:
            a, b = parent[a], parent[b]
            up.append(a)
            down.append(b)
        path = up + down[-2::-1]
        cycle = [(a, b - m) if a < m else (b, a - m) for a, b in zip(path, path[1:])]
        minus = cycle[0::2]
        theta = min([flow[i][j] for i, j in minus])
        # Leaving cell: lowest row-major index among the ties (anti-cycling).
        li, lj = leave = min([(i, j) for i, j in minus if flow[i][j] <= theta + _EPS])
        flow[ei][ej] += theta
        for i, j in cycle[1::2]:
            flow[i][j] += theta
        for i, j in minus:
            flow[i][j] -= theta
        flow[li][lj] = 0.0
        tree[ei].add(m + ej)
        tree[m + ej].add(ei)
        tree[li].remove(m + lj)
        tree[m + lj].remove(li)
        # Only the subtree below the leaving cell's deeper end moves: it
        # hangs again from the entering cell, by the end on its side.
        if cycle.index(leave) < len(up) - 1:
            parent[ei] = m + ej
            _hang(costs, tree, ei, parent, depth, pot)
        else:
            parent[m + ej] = ei
            _hang(costs, tree, m + ej, parent, depth, pot)
    raise NonConvergenceError("transportation simplex exceeded its pivot budget")


def solve_transport(costs, row_bounds, col_requirements, slack_penalty=None):
    """Minimum-cost flow from bounded rows to columns with fixed requirements.

    When total row capacity falls short of the total requirement, a virtual
    slack source priced at ``slack_penalty`` per unit absorbs the shortfall;
    without a penalty the short problem raises :class:`InfeasibleError`.
    Ties among optimal flows are broken by row-major arc order.
    """
    c = _as_array(costs, "costs", ndim=2)
    rb = _as_array(row_bounds, "row_bounds", nonnegative=True)
    cq = _as_array(col_requirements, "col_requirements", nonnegative=True)
    rows, cols = c.shape
    if rb.size != rows or cq.size != cols:
        raise DimensionError(
            f"costs {c.shape} inconsistent with bounds ({rb.size},) / requirements ({cq.size},)"
        )

    total_bound = float(rb.sum())
    total_req = float(cq.sum())
    use_slack = slack_penalty is not None
    if not use_slack and exceeds(total_req, total_bound):
        raise InfeasibleError(
            f"requirements total {total_req} exceed capacity {total_bound} and no slack penalty is set"
        )

    if rows == 0 and not use_slack:  # no source and, past the check above, nothing to ship
        return TransportSolution(flow=np.zeros((0, cols)), objective=0.0, row_duals=np.zeros(0),
                                 col_duals=np.zeros(cols), slack_flow=np.zeros(cols))

    # Balanced tableau: optional slack row, then a free-disposal dummy column.
    tab_costs = np.zeros((rows + use_slack, cols + 1))
    tab_costs[:rows, :cols] = c
    supply = rb.tolist()
    surplus = total_bound - total_req
    if use_slack:
        tab_costs[rows, :cols] = checked(slack_penalty, "slack_penalty", nonnegative=True)
        supply.append(total_req)
        surplus = float(np.array(supply).sum() - total_req)
    if surplus < 0:
        surplus = 0.0
    demand = cq.tolist()
    demand.append(surplus)

    flow, tree = _northwest_corner(supply, demand)
    pot, pivots = _optimize(tab_costs.tolist(), flow, tree)
    flow = np.array(flow)

    # Normalize duals so the dummy (disposal) column prices at zero; the
    # resulting row duals are <= 0 and column duals >= 0.
    shift = pot[-1]
    pot = np.array(pot)
    u = pot[:len(supply)] + shift
    w = pot[len(supply):] - shift

    kept = np.where(np.abs(flow) < _EPS, 0.0, flow)
    real_flow = kept[:rows, :cols].copy()
    slack_flow = kept[rows, :cols].copy() if use_slack else np.zeros(cols)
    objective = float((tab_costs[:, :cols] * flow[:, :cols]).sum())
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
        pivots=pivots,
        basis=tree,
    )


def basis_order(tree):
    """The basis ``tree`` of a solve as (node, parent) pairs, leaves first:
    hung from node 0, each node comes before its parent, so a pass in this
    order meets every node with only its parent's arc left."""
    parent = [-1] * len(tree)
    order = [0]
    for v in order:  # grows as it goes: breadth first
        for x in tree[v]:
            if x != parent[v]:
                parent[x] = v
                order.append(x)
    return tuple((v, parent[v]) for v in reversed(order[1:]))


def basis_holds(order, row_bounds, col_requirements, slack):
    """Whether a solve's basis, as :func:`basis_order` gives it, is still
    optimal for ``row_bounds`` and ``col_requirements`` (lists of floats) at
    the solve's costs, with its slack row if ``slack``: whether every flow
    on the tree is at least -1e-12.  The costs alone fix the tree's duals,
    which the solve left feasible, so a tree whose flows are feasible is
    optimal.  One pass from the leaves: a node's net supply is the flow on
    its parent arc."""
    total_req = sum(col_requirements)
    net = row_bounds + [total_req] if slack else list(row_bounds)
    rows = len(net)
    net.append(-max(sum(net) - total_req, 0.0))  # the disposal column, kept last
    net[rows:rows] = [-d for d in col_requirements]
    for v, p in order:
        f = net[v]
        if (f if v < rows else -f) < -_EPS:
            return False
        net[p] += f
    return True


@dataclass(frozen=True)
class RetailerSpec:
    """Retailer private data: demand per outbound node, inbound-to-outbound
    arc costs, gross profit per unit of demand, and the lost-sales penalty."""

    demand: np.ndarray            # (J,) units per outbound node
    arc_costs: np.ndarray         # (I, J) $/unit inbound -> outbound
    gross_profit: np.ndarray      # (J,) $/unit of demand served
    lost_sales_penalty: float = 1000.0

    def __post_init__(self):
        d = _as_array(self.demand, "demand", nonnegative=True)
        g = _as_array(self.gross_profit, "gross_profit")
        c = _as_array(self.arc_costs, "arc_costs", ndim=2, nonnegative=True)
        penalty = checked(self.lost_sales_penalty, "lost_sales_penalty")
        if c.shape[1] != d.size or g.size != d.size:
            raise DimensionError(
                f"arc_costs {c.shape}, demand ({d.size},), gross_profit ({g.size},) disagree"
            )
        if c.size and penalty <= float(c.max()):
            raise ParameterError("lost_sales_penalty must exceed every arc cost")
        object.__setattr__(self, "demand", d)
        object.__setattr__(self, "arc_costs", c)
        object.__setattr__(self, "gross_profit", g)
        object.__setattr__(self, "lost_sales_penalty", penalty)

    @property
    def n_inbound(self):
        return self.arc_costs.shape[0]

    @property
    def gross_profit_total(self):
        return float(self.gross_profit @ self.demand)

    def __call__(self, plan):
        """This retailer's :func:`retailer_utility` at ``plan``."""
        return retailer_utility(self, plan)


@dataclass(frozen=True)
class SupplierSpec:
    """Supplier private data: source capacities, source-to-inbound arc costs,
    and gross profit per unit supplied to each inbound node."""

    capacities: np.ndarray        # (K,) units per source node
    arc_costs: np.ndarray         # (K, I) $/unit source -> inbound
    gross_profit: np.ndarray      # (I,) $/unit supplied

    def __post_init__(self):
        s = _as_array(self.capacities, "capacities", nonnegative=True)
        g = _as_array(self.gross_profit, "gross_profit")
        c = _as_array(self.arc_costs, "arc_costs", ndim=2, nonnegative=True)
        if c.shape[0] != s.size or c.shape[1] != g.size:
            raise DimensionError(
                f"arc_costs {c.shape}, capacities ({s.size},), gross_profit ({g.size},) disagree"
            )
        object.__setattr__(self, "capacities", s)
        object.__setattr__(self, "arc_costs", c)
        object.__setattr__(self, "gross_profit", g)

    @property
    def n_inbound(self):
        return self.arc_costs.shape[1]

    @property
    def total_capacity(self):
        return float(self.capacities.sum())

    def __call__(self, plan):
        """This supplier's :func:`supplier_utility` at ``plan``."""
        return supplier_utility(self, plan)


@dataclass(frozen=True)
class UtilityEvaluation:
    """Utility value at a plan together with the transport solution behind it
    and a supergradient read off the LP duals."""

    value: float
    supergradient: np.ndarray
    transport: TransportSolution


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
    return UtilityEvaluation(value=value, supergradient=grad, transport=sol)


def supplier_utility(spec, plan):
    """Gross profit on the supplied plan minus the optimal source-to-inbound
    transport cost.  Raises :class:`InfeasibleError` when the plan exceeds
    total source capacity."""
    x = as_plan(plan, spec.n_inbound)
    if exceeds(x.sum(), spec.total_capacity):
        raise InfeasibleError(
            f"plan total {x.sum():.6f} exceeds supplier capacity {spec.total_capacity:.6f}"
        )
    sol = solve_transport(spec.arc_costs, row_bounds=spec.capacities, col_requirements=x)
    value = float(spec.gross_profit @ x) - sol.objective
    grad = spec.gross_profit - sol.col_duals
    return UtilityEvaluation(value=value, supergradient=grad, transport=sol)
