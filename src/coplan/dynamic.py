"""Rolling-horizon coordination of weekly orders with cost-benefit transfers.

A retailer runs an order-up-to policy against weekly forecasts; coordination
lets the order stream deviate from that ideal policy to pick up supplier-side
gains (production smoothing), and each week the supplier compensates the
retailer for the certainty-equivalent utility the deviation costs it: its
utility under the orders it would place without the agreement, less its
utility under the orders the agreement binds it to.  Two commitment
structures are supported: ``none`` re-plans everything weekly and binds only
the one issued order, ``full-horizon`` turns each agreed window into a
binding plan of record and pays for plan updates.

Flow utilities are deterministic given the forecasts (certainty-equivalent):

    retailer week t:  margin * sales_t - holding * end_inventory_t
                      - lost_penalty * (forecast_t - sales_t)
    supplier week t:  margin * order_t - smoothing * (order_t - order_{t-1})^2

The retailer total is concave and piecewise linear in the order vector; the
supplier total is a concave quadratic.  Both are exposed as consensus agents,
so each week's joint plan comes out of the same coordination loop used for
the static case.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._qp import CutSet, maximize_cut_model
from .consensus import ConsensusConfig, PlanAgent, run_consensus
from .errors import DimensionError, ParameterError
from .transport import checked

MODES = ("none", "full-horizon")
# free weeks up to which the retailer's prox is solved exactly on its
# 2**weeks affine pieces; wider windows keep the cutting-plane best response.
# Timed on one coordinated week of 16 random windows with every week free
# (best of 5 passes, 4 runs), the exact prox takes 0.66-0.87x the
# cutting-plane time at 9 free weeks, 1.03-1.27x at 10 and 1.50-2.46x at 11,
# where the pieces double per week (BENCH_22.json, exact_prox_crossover).
_EXACT_PROX_MAX_WEEKS = 9


@dataclass(frozen=True)
class InventoryModel:
    """Episode data: weekly forecasts plus the flow-utility parameters."""

    forecasts: np.ndarray
    holding_cost: float = 1.0
    lost_sales_cost: float = 9.0
    retailer_margin: float = 10.0
    supplier_margin: float = 3.0
    smoothing_cost: float = 0.5       # $ per squared unit of week-over-week change
    horizon: int = 6

    def __post_init__(self):
        f = np.asarray(checked(self.forecasts, "forecasts", nonnegative=True), dtype=float)
        if f.ndim != 1 or f.size == 0:
            raise DimensionError("forecasts must be a nonempty vector")
        # python floats overflow to inf where numpy's sum would warn first
        if not math.isfinite(sum(f.tolist())):
            raise ParameterError("forecasts must have a finite total")
        for name in ("holding_cost", "lost_sales_cost", "retailer_margin", "supplier_margin",
                     "smoothing_cost"):
            object.__setattr__(self, name, checked(getattr(self, name), name,
                                                   nonnegative=not name.endswith("margin")))
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)):
            raise ParameterError("planning horizon must be a whole number of weeks")
        if self.horizon < 1:
            raise ParameterError("planning horizon must be at least one week")
        object.__setattr__(self, "forecasts", f)

    @property
    def n_weeks(self):
        return self.forecasts.size

    def window(self, week):
        """Planning-window week indices starting at ``week``, clipped to the
        episode."""
        if not 0 <= week < self.n_weeks:
            raise ParameterError(f"week {week} outside the episode")
        return np.arange(week, min(week + self.horizon, self.n_weeks))

    def initial_state(self, mode="none", on_hand=0.0, last_order=0.0):
        if mode not in MODES:
            raise ParameterError(f"unknown commitment mode {mode!r}")
        return RollingState(week=0, on_hand=float(on_hand), last_order=float(last_order),
                            plan_of_record=None, cumulative_cbt=0.0, mode=mode)


@dataclass(frozen=True)
class RollingState:
    week: int
    on_hand: float
    last_order: float
    plan_of_record: np.ndarray | None   # binding orders for weeks >= week
    cumulative_cbt: float
    mode: str


def jit_policy(model, state):
    """Order-up-to sequence for the current window: each week filled up to
    its forecast, which maximizes the retailer's total flow utility."""
    return _roll(model, state)[0]


def _binding_prefix(model, state):
    """Orders of the plan of record that still bind in the current window
    (none outside ``full-horizon`` commitment)."""
    if state.mode == "full-horizon" and state.plan_of_record is not None:
        return np.asarray(state.plan_of_record, dtype=float)[:model.window(state.week).size]
    return np.asarray([], dtype=float)


def _window_orders(model, orders, state):
    orders = np.asarray(orders, dtype=float)
    size = model.window(state.week).size
    if orders.shape != (size,):
        raise DimensionError(f"expected {size} orders, got {orders.shape}")
    return orders


def _roll(model, state, prefix=()):
    """Roll inventory through the window at forecast demand.  Return the
    window's orders (the committed ``prefix``, then each later week filled up
    to its forecast), the retailer's weekly flow utility under them and a
    supergradient of its total in the orders."""
    n = model.window(state.week).size
    # python floats round exactly like numpy's and step faster in the loop
    f = model.forecasts[state.week:state.week + n].tolist()
    x = np.asarray(prefix, dtype=float).tolist()
    m, h, p = model.retailer_margin, model.holding_cost, model.lost_sales_cost
    weekly = np.zeros(n)
    on = state.on_hand
    # d(on_t)/d(orders): active whenever inventory stays positive
    on_grad = np.zeros(n)
    hold_grad = np.zeros(n)
    for idx in range(n):
        if idx == len(x):
            x.append(max(f[idx] - on, 0.0))
        available = on + x[idx]
        if available - f[idx] > 0.0:
            on = available - f[idx]
            sales = f[idx]
            on_grad[idx] += 1.0
        else:
            on = 0.0
            sales = available
            on_grad = np.zeros(n)
        weekly[idx] = m * sales - h * on - p * (f[idx] - sales)
        hold_grad += h * on_grad
    grad = (m + p) * np.ones(n) - (m + p) * on_grad - hold_grad
    return np.array(x), weekly, grad


def _retailer_pieces(model, state, prefix):
    """:class:`CutSet` of the affine pieces ``offset + grad @ y`` of the
    retailer's window total in the free orders ``y`` that follow the
    committed ``prefix``.

    Fixing which free weeks stock out makes every sale and end inventory
    affine in ``y``; the total equals the minimum over all ``2**free`` such
    patterns.  The prefix weeks roll at their committed orders into the
    offsets, and identical pieces are dropped.
    """
    n = model.window(state.week).size
    f = model.forecasts[state.week:state.week + n].tolist()
    m, h, lost = model.retailer_margin, model.holding_cost, model.lost_sales_cost
    free = n - prefix.size
    # row k stocks out in free week j when bit j of k is set
    pattern = (np.arange(1 << free)[:, None] >> np.arange(free)) & 1 == 1
    on_off = np.full(pattern.shape[0], state.on_hand)
    on_grad = np.zeros(pattern.shape)
    offsets = np.zeros(pattern.shape[0])
    grads = np.zeros(pattern.shape)
    for idx in range(n):
        avail_grad = on_grad.copy()
        if idx < prefix.size:
            # a committed week: its order, the same in every row, decides
            avail_off = on_off + prefix[idx]
            out = avail_off - f[idx] <= 0.0
        else:
            avail_off = on_off
            avail_grad[:, idx - prefix.size] += 1.0
            out = pattern[:, idx - prefix.size]
        sales_off = np.where(out, avail_off, f[idx])
        sales_grad = np.where(out[:, None], avail_grad, 0.0)
        on_off = np.where(out, 0.0, avail_off - f[idx])
        on_grad = np.where(out[:, None], 0.0, avail_grad)
        offsets += (m + lost) * sales_off - h * on_off - lost * f[idx]
        grads += (m + lost) * sales_grad - h * on_grad
    return CutSet(offsets, grads)


def _supplier_weeks(model, orders, state):
    """Per-week supplier flow utility and the gradient of its total."""
    m, kappa = model.supplier_margin, model.smoothing_cost
    weekly = np.zeros(orders.size)
    diffs = np.zeros(orders.size)
    prev = state.last_order
    for idx in range(orders.size):
        # a scalar ``** 2`` (libm pow) may differ from the array square in
        # the last bit; weekly values stay scalar so reports keep their bits
        diffs[idx] = orders[idx] - prev
        weekly[idx] = m * orders[idx] - kappa * diffs[idx] ** 2
        prev = orders[idx]
    grad = m - 2.0 * kappa * diffs
    grad[:-1] += 2.0 * kappa * diffs[1:]
    return weekly, grad


def retailer_flow_utility(model, orders, state):
    """Per-week retailer flow utility of an order sequence and its total,
    propagating inventory through the window at forecast demand."""
    _, weekly, _ = _roll(model, state, _window_orders(model, orders, state))
    return weekly, float(weekly.sum())


def supplier_flow_utility(model, orders, state):
    """Per-week supplier flow utility: margin on the order minus the
    production-smoothing cost of week-over-week changes."""
    weekly, _ = _supplier_weeks(model, _window_orders(model, orders, state), state)
    return weekly, float(weekly.sum())


def joint_flow_utility(model, orders, state):
    return retailer_flow_utility(model, orders, state)[1] + \
        supplier_flow_utility(model, orders, state)[1]


class _WindowAgent(PlanAgent):
    """Flow utility over the free weeks of the current window, conditioned on
    committed prefix orders."""

    def __init__(self, model, state, prefix=()):
        self.model = model
        self.state = state
        self.prefix = np.asarray(prefix, dtype=float)
        self.window = model.window(state.week)
        self.dim = self.window.size - self.prefix.size
        if self.dim <= 0:
            raise ParameterError("no free weeks to plan")

    def _orders(self, plan):
        return np.concatenate([self.prefix, np.asarray(plan, dtype=float)])


class DynamicRetailerAgent(_WindowAgent):
    """Retailer flow utility over the free weeks, capped at the window's
    uncovered forecast total (stock beyond demand has no retail value).

    Up to 9 free weeks (``_EXACT_PROX_MAX_WEEKS``) the proximal best response
    is exact: one cut-model master call on the utility's 512 or fewer affine
    pieces.  The agent builds the pieces' :class:`CutSet` on the first call and
    keeps it for the week, so each call starts from the free set where the
    last one ended.  Wider windows have no ``prox_respond`` and go through the
    cutting-plane best response.
    """

    def __init__(self, model, state, prefix=()):
        super().__init__(model, state, prefix)
        cap = max(float(model.forecasts[self.window].sum()) - state.on_hand, 0.0)
        self.total_cap = max(cap - float(self.prefix.sum()), 0.0)
        self._pieces = None
        if self.dim > _EXACT_PROX_MAX_WEEKS:
            self.prox_respond = None

    def evaluate(self, plan):
        _, weekly, grad = _roll(self.model, self.state, self._orders(plan))
        return float(weekly.sum()), grad[self.prefix.size:]

    def prox_respond(self, prices, z, rho):
        """Exact proximal best response: the flow utility is the minimum of
        its affine pieces, so the prox problem is one cut-model master call."""
        if self._pieces is None:
            self._pieces = _retailer_pieces(self.model, self.state, self.prefix)
        center = np.asarray(z, dtype=float) - np.asarray(prices, dtype=float) / rho
        return maximize_cut_model(self._pieces, center, rho, self.total_cap)[0]


class DynamicSupplierAgent(_WindowAgent):
    """Supplier flow utility over the free weeks, anchored at the last issued
    order (and any committed prefix) for the smoothing term.

    Its exact prox keeps the Hessian of the last ``rho`` and nothing else:
    each call frees its nonnegativity bounds afresh.
    """

    def __init__(self, model, state, prefix=()):
        super().__init__(model, state, prefix)
        self._hessian = (None, None)   # (rho, H)

    def evaluate(self, plan):
        weekly, grad = _supplier_weeks(self.model, self._orders(plan), self.state)
        return float(weekly.sum()), grad[self.prefix.size:]

    def prox_respond(self, prices, z, rho):
        """Exact proximal best response: the objective is a strictly concave
        quadratic with a tridiagonal Hessian, solved by freeing the
        nonnegativity bounds one way only (cutting planes would crawl on it)."""
        n = self.dim
        m, kappa = self.model.supplier_margin, self.model.smoothing_cost
        prices = np.asarray(prices, dtype=float)
        z = np.asarray(z, dtype=float)
        # maximize b@y - y@H y/2 over y >= 0
        if self._hessian[0] != rho:
            diag = np.full(n, rho + 4.0 * kappa)
            diag[-1] = rho + 2.0 * kappa
            self._hessian = (rho, np.diag(diag) - 2.0 * kappa * (np.eye(n, k=1) + np.eye(n, k=-1)))
        H = self._hessian[1]
        b = m - prices + rho * z
        b[0] += 2.0 * kappa * (float(self.prefix[-1]) if self.prefix.size
                               else self.state.last_order)
        # H is an M-matrix (positive definite, off-diagonal <= 0), so the free
        # set only grows and no bound is ever released (Chandrasekaran's
        # method; Cottle, Pang & Stone, 1992): it ends within n + 1 solves
        free = b > 1e-12
        while not free.all():
            y = np.zeros(n)
            if free.any():
                y[free] = np.linalg.solve(H[np.ix_(free, free)], b[free])
            grow = ~free & (b - H @ y > 1e-12)
            if not grow.any():
                return np.maximum(y, 0.0)
            free |= grow
        return np.maximum(np.linalg.solve(H, b), 0.0)


@dataclass(frozen=True)
class CoordinatedPlan:
    orders: np.ndarray
    converged: bool
    iterations: int
    fallback_to_baseline: bool
    prices: np.ndarray | None = None   # final per-agent prices over the free weeks


# rho matched to the weekly flow-utility scale (margins of a few $/unit on
# double-digit orders); the static module keeps its own default
DEFAULT_DYNAMIC_CONFIG = ConsensusConfig(rho=3.0, eps_abs=1e-6, eps_rel=1e-6,
                                         adapt_rho=True, max_iters=3000)


def coordinated_plan(model, state, warm_plan=None, warm_prices=None):
    """Jointly optimal orders for the current window via the consensus loop.

    In ``full-horizon`` mode the committed plan of record stays binding and
    only appended weeks are re-coordinated.  If the consensus iterate fails
    to beat the order-up-to baseline on joint flow utility (possible when the
    optimizer stops at tolerance and the baseline is already optimal), the
    baseline is used: coordination never does worse than no agreement.

    ``warm_plan`` / ``warm_prices`` seed the loop (rolling runs pass the
    previous week's shifted solution, which typically converges in a handful
    of iterations).
    """
    prefix = _binding_prefix(model, state)
    free = model.window(state.week).size - prefix.size
    if free == 0:
        return CoordinatedPlan(orders=prefix.copy(), converged=True, iterations=0,
                               fallback_to_baseline=False, prices=None)

    baseline = commitment_baseline(model, state)
    seed_ok = prefix.size == 0  # shifted seeds only align with an uncommitted window
    start = baseline[prefix.size:]
    if seed_ok and warm_plan is not None and warm_plan.size >= free:
        start = warm_plan[:free]
    cfg = replace(DEFAULT_DYNAMIC_CONFIG, initial_plan=start)
    if seed_ok and warm_prices is not None and warm_prices.shape[1] >= free:
        cfg = replace(cfg, initial_prices=warm_prices[:, :free])
    retailer = DynamicRetailerAgent(model, state, prefix)
    supplier = DynamicSupplierAgent(model, state, prefix)
    result = run_consensus([retailer, supplier], cfg)
    free_orders = retailer.project(result.plan)
    orders = np.concatenate([prefix, free_orders])

    fallback = joint_flow_utility(model, orders, state) < joint_flow_utility(
        model, baseline, state)
    if fallback:
        orders = baseline
    return CoordinatedPlan(orders=orders, converged=result.converged,
                           iterations=result.iterations, fallback_to_baseline=bool(fallback),
                           prices=result.prices)


def commitment_baseline(model, state):
    """No-coordination reference for the current window: the binding plan of
    record (if any) extended week by week with order-up-to fills."""
    return _roll(model, state, _binding_prefix(model, state))[0]


def cbt(model, state, plan):
    """The week's cost-benefit transfer from the supplier to the retailer:
    the retailer's utility under the commitment baseline less its utility
    under the orders the agreement binds it to.  Under ``none`` only the
    plan's first order binds, and later weeks fill up to forecast; under
    ``full-horizon`` the whole plan binds."""
    plan = _window_orders(model, plan, state)
    bound = plan if state.mode == "full-horizon" else plan[:1]
    _, base, _ = _roll(model, state, _binding_prefix(model, state))
    _, agreed, _ = _roll(model, state, bound)
    return float(base.sum()) - float(agreed.sum())


@dataclass(frozen=True)
class WeekRecord:
    week: int
    order: float
    realized_demand: float
    sales: float
    end_inventory: float
    cbt: float
    cumulative_cbt: float
    jit_orders: np.ndarray
    coordinated_orders: np.ndarray
    joint_total_jit: float
    joint_total_plan: float


def roll_forward(model, state, realized_demand, plan):
    """Issue the week's coordinated order, settle the week's payment, update
    inventory with realized demand, and advance the state."""
    realized_demand = checked(realized_demand, "realized demand", nonnegative=True)
    plan = _window_orders(model, plan, state)
    jit = jit_policy(model, state)
    payment = cbt(model, state, plan)
    order = float(plan[0])
    available = state.on_hand + order
    sales = min(realized_demand, available)
    end_inventory = available - sales
    record = WeekRecord(
        week=state.week,
        order=order,
        realized_demand=realized_demand,
        sales=sales,
        end_inventory=end_inventory,
        cbt=payment,
        cumulative_cbt=state.cumulative_cbt + payment,
        jit_orders=jit,
        coordinated_orders=plan,
        joint_total_jit=joint_flow_utility(model, jit, state),
        joint_total_plan=joint_flow_utility(model, plan, state),
    )
    new_state = RollingState(
        week=state.week + 1,
        on_hand=end_inventory,
        last_order=order,
        plan_of_record=plan[1:].copy() if state.mode == "full-horizon" else None,
        cumulative_cbt=record.cumulative_cbt,
        mode=state.mode,
    )
    return new_state, record


def simulate(model, demand_path, mode="none", on_hand=0.0):
    """Roll the model through the whole episode under realized demand.  Each
    week's coordination warm-starts from the previous week's shifted plan and
    prices."""
    demand_path = np.asarray(checked(demand_path, "realized demand", nonnegative=True),
                             dtype=float)
    if demand_path.shape != (model.n_weeks,):
        raise DimensionError("demand path must cover the episode")
    on_hand = checked(on_hand, "starting inventory", nonnegative=True)
    state = model.initial_state(mode=mode, on_hand=on_hand)
    records = []
    warm_plan = warm_prices = None
    for _ in range(model.n_weeks):
        week_plan = coordinated_plan(model, state, warm_plan=warm_plan,
                                     warm_prices=warm_prices)
        if week_plan.prices is not None:
            warm_plan = week_plan.orders[1:]
            warm_prices = week_plan.prices[:, 1:]
        state, record = roll_forward(model, state, demand_path[state.week],
                                     week_plan.orders)
        records.append(record)
    return records, state
