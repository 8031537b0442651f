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

One engine, ``_solve``, runs the simplex on row lists and wraps its answer
in arrays.  :func:`solve_transport` checks its arguments by the input rule and
builds the tableau before it calls the engine.  A :class:`RetailerSpec` or
:class:`SupplierSpec` checks its data once, when it is built, and keeps
read-only copies with its tableau and totals, so :func:`retailer_utility` and
:func:`supplier_utility` check only the plan (:func:`as_plan`) before they
call the engine.  Both paths give the same bits on the same data.

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
            # np.all's and np.min's reductions without their wrappers, and
            # with an empty array's answer
            finite = np.logical_and.reduce(np.isfinite(out), axis=None)
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
    if np.minimum.reduce(v, initial=0.0) < -_TOL:
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
    tableau = [row + [0.0] for row in c.tolist()]
    if slack_penalty is not None:
        tableau.append([checked(slack_penalty, "slack_penalty", nonnegative=True)] * cols + [0.0])
    elif exceeds(total_req, total_bound):
        raise InfeasibleError(
            f"requirements total {total_req} exceed capacity {total_bound} and no slack penalty is set"
        )
    return _solve(tableau, rb, cq, total_bound, total_req)


def _solve(tableau, row_bounds, col_requirements, total_bound, total_req):
    """The engine behind :func:`solve_transport` and both utilities, on data
    that already passed the input rule.  ``tableau`` holds the balanced
    tableau's cost rows: one per row bound, then the slack source's if there
    is one more, each ending in the disposal column's 0.0.  ``row_bounds`` and
    ``col_requirements`` are float arrays; ``total_bound`` and ``total_req``
    are their numpy sums, and the first is read only without a slack row."""
    rows, cols = row_bounds.size, col_requirements.size
    use_slack = len(tableau) > rows
    if rows == 0 and not use_slack:  # no source and, past the capacity test, nothing to ship
        return TransportSolution(flow=np.zeros((0, cols)), objective=0.0, row_duals=np.zeros(0),
                                 col_duals=np.zeros(cols), slack_flow=np.zeros(cols))

    # Balanced tableau: the slack row supplies the whole requirement, and the
    # disposal column takes what the rows hold beyond it.
    supply = row_bounds.tolist()
    if use_slack:
        supply.append(total_req)
        surplus = float(np.array(supply).sum() - total_req)
    else:
        surplus = total_bound - total_req
    demand = col_requirements.tolist()
    demand.append(max(surplus, 0.0))

    flow, tree = _northwest_corner(supply, demand)
    pot, pivots = _optimize(tableau, flow, tree)

    # Normalize duals so the dummy (disposal) column prices at zero; the
    # resulting row duals are <= 0 and column duals >= 0.
    shift = pot[-1]
    u = [p + shift for p in pot[:len(supply)]]
    row_duals = np.minimum(u[:rows], 0.0)
    col_duals = np.maximum([p - shift for p in pot[len(supply):-1]], 0.0)
    kept = [[0.0 if -_EPS < f < _EPS else f for f in row[:cols]] for row in flow]
    real_flow = np.array(kept[:rows]).reshape(rows, cols)
    slack_flow = np.array(kept[rows]) if use_slack else np.zeros(cols)
    # summed by numpy: past 8 terms its pairwise order fixes the bits
    objective = float(np.array([c * f for c_row, f_row in zip(tableau, flow)
                                for c, f in zip(c_row, f_row[:cols])]).sum())
    dual_objective = float(row_bounds @ row_duals + col_requirements @ col_duals)
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


def _owned(values, name, ndim=1, nonnegative=False):
    """A spec's own read-only float copy of ``values``, past the input rule."""
    v = np.array(_as_array(values, name, ndim, nonnegative))
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class RetailerSpec:
    """Retailer private data: demand per outbound node, inbound-to-outbound
    arc costs, gross profit per unit of demand, and the lost-sales penalty.

    The spec checks its data once and keeps read-only copies, with the
    transport tableau and the totals its utility reads on every call."""

    demand: np.ndarray            # (J,) units per outbound node
    arc_costs: np.ndarray         # (I, J) $/unit inbound -> outbound
    gross_profit: np.ndarray      # (J,) $/unit of demand served
    lost_sales_penalty: float = 1000.0

    def __post_init__(self):
        d = _owned(self.demand, "demand", nonnegative=True)
        g = _owned(self.gross_profit, "gross_profit")
        c = _owned(self.arc_costs, "arc_costs", ndim=2, nonnegative=True)
        penalty = checked(self.lost_sales_penalty, "lost_sales_penalty")
        if c.shape[1] != d.size or g.size != d.size:
            raise DimensionError(
                f"arc_costs {c.shape}, demand ({d.size},), gross_profit ({g.size},) disagree"
            )
        if c.size and penalty <= float(c.max()):
            raise ParameterError("lost_sales_penalty must exceed every arc cost")
        tableau = [(*row, 0.0) for row in c.tolist()]
        tableau.append((penalty,) * d.size + (0.0,))  # the lost-sales slack row
        kept = dict(demand=d, arc_costs=c, gross_profit=g, lost_sales_penalty=penalty,
                    _tableau=tuple(tableau), _demand_total=float(d.sum()),
                    _gross_profit_total=float(g @ d))
        for name, value in kept.items():
            object.__setattr__(self, name, value)

    @property
    def n_inbound(self):
        return self.arc_costs.shape[0]

    @property
    def gross_profit_total(self):
        return self._gross_profit_total

    def __call__(self, plan):
        """This retailer's :func:`retailer_utility` at ``plan``."""
        return retailer_utility(self, plan)


@dataclass(frozen=True)
class SupplierSpec:
    """Supplier private data: source capacities, source-to-inbound arc costs,
    and gross profit per unit supplied to each inbound node.

    Like :class:`RetailerSpec`, it checks its data once and keeps read-only
    copies, its transport tableau and its total capacity."""

    capacities: np.ndarray        # (K,) units per source node
    arc_costs: np.ndarray         # (K, I) $/unit source -> inbound
    gross_profit: np.ndarray      # (I,) $/unit supplied

    def __post_init__(self):
        s = _owned(self.capacities, "capacities", nonnegative=True)
        g = _owned(self.gross_profit, "gross_profit")
        c = _owned(self.arc_costs, "arc_costs", ndim=2, nonnegative=True)
        if c.shape[0] != s.size or c.shape[1] != g.size:
            raise DimensionError(
                f"arc_costs {c.shape}, capacities ({s.size},), gross_profit ({g.size},) disagree"
            )
        kept = dict(capacities=s, arc_costs=c, gross_profit=g,
                    _tableau=tuple((*row, 0.0) for row in c.tolist()),
                    _total_capacity=float(s.sum()))
        for name, value in kept.items():
            object.__setattr__(self, name, value)

    @property
    def n_inbound(self):
        return self.arc_costs.shape[1]

    @property
    def total_capacity(self):
        return self._total_capacity

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
    sol = _solve(spec._tableau, x, spec.demand, None, spec._demand_total)
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
    total = float(x.sum())
    if exceeds(total, spec.total_capacity):
        raise InfeasibleError(
            f"plan total {total:.6f} exceeds supplier capacity {spec.total_capacity:.6f}"
        )
    sol = _solve(spec._tableau, spec.capacities, x, spec.total_capacity, total)
    value = float(spec.gross_profit @ x) - sol.objective
    grad = spec.gross_profit - sol.col_duals
    return UtilityEvaluation(value=value, supergradient=grad, transport=sol)
