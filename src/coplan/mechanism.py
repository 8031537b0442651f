"""VCG settlement for the bilateral retailer-supplier case.

Builds the status quo (the retailer's standalone order and the supplier's
standalone value of filling it), computes the socially efficient plan either
by one centralized LP or by the consensus loop, prices the supplier's
externality transfer, applies activity-fee variants, and prices menus of
contracts that let the supplier pick the efficient plan in dominant
strategies.

The centralized LP is one transport-simplex solve (:func:`linprog`).  Each
pricing step also takes the utility evaluations it needs as functions of the
plan (:func:`price_settlement`, :func:`price_menu`, :func:`choose_option`),
so a caller holding them, as a report does, solves each plan only once.

Plans here live in X = {x >= 0, sum(x) <= total demand}: ordering more than
can possibly sell has no retail value, and leaving the total uncapped would
let gross supplier margin on unsellable units masquerade as joint surplus.
"""

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from ._qp import project_capped
from .consensus import ConsensusConfig, RetailerAgent, SupplierAgent, run_consensus
from .errors import InfeasibleError, ParameterError
from .transport import as_plan, retailer_utility, solve_transport, supplier_utility

_TOL = 1e-9

FEE_VARIANTS = ("none", "additive", "multiplicative", "roi", "linear_deviation")


@dataclass(frozen=True)
class FeePolicy:
    """Activity-fee variant applied on top of the externality transfer."""

    variant: str = "none"
    alpha: float = 0.0        # flat fee ($)
    beta: float = 0.0         # proportional markup on the reported retailer utility
    roi_rate: float = 0.0     # share of the retailer's utility swing
    over_rate: float = 0.0    # $/unit charged on oversupply vs the standalone plan
    under_rate: float = 0.0   # $/unit charged on undersupply

    def __post_init__(self):
        if self.variant not in FEE_VARIANTS:
            raise ParameterError(f"unknown fee variant {self.variant!r}")
        for name in ("alpha", "beta", "roi_rate", "over_rate", "under_rate"):
            if getattr(self, name) < 0:
                raise ParameterError(f"fee parameter {name} must be nonnegative")
        if self.variant == "roi" and self.roi_rate >= 1.0:
            raise ParameterError("roi_rate must be below 1")
        if self.variant == "linear_deviation" and self.under_rate > self.over_rate:
            raise ParameterError("under_rate must not exceed over_rate")

    @classmethod
    def none(cls):
        return cls()

    @classmethod
    def additive(cls, alpha):
        return cls(variant="additive", alpha=float(alpha))

    @classmethod
    def multiplicative(cls, beta):
        return cls(variant="multiplicative", beta=float(beta))

    @classmethod
    def roi(cls, rate):
        return cls(variant="roi", roi_rate=float(rate))

    @classmethod
    def linear_deviation(cls, over_rate, under_rate):
        return cls(variant="linear_deviation", over_rate=float(over_rate),
                   under_rate=float(under_rate))

    @property
    def report_scale(self):
        """Multiplier applied to the retailer's reported utility when the fee
        biases the allocation (1.0 when it does not)."""
        if self.variant == "multiplicative":
            return 1.0 + self.beta
        if self.variant == "roi":
            return 1.0 - self.roi_rate
        return 1.0

    def transfer_term(self, utility_drop, x_star=None, standalone_plan=None):
        """Fee added to the supplier transfer; ``utility_drop`` is the
        retailer's utility at its standalone plan minus at the settled plan."""
        if self.variant == "none":
            return 0.0
        if self.variant == "additive":
            return self.alpha
        if self.variant == "multiplicative":
            return self.beta * utility_drop
        if self.variant == "roi":
            return self.roi_rate * abs(utility_drop)
        return deviation_penalty(x_star, standalone_plan, self.over_rate, self.under_rate)


def deviation_penalty(x_star, standalone_plan, over_rate, under_rate):
    """Linear charge on componentwise deviation from the standalone plan:
    ``over_rate`` per unit above it, ``under_rate`` per unit below it."""
    if not (0.0 <= under_rate <= over_rate):
        raise ParameterError("rates must satisfy 0 <= under_rate <= over_rate")
    x = np.asarray(x_star, dtype=float)
    ref = np.asarray(standalone_plan, dtype=float)
    delta = x - ref
    return float(over_rate * delta.clip(min=0).sum() + under_rate * (-delta).clip(min=0).sum())


@dataclass(frozen=True)
class StatusQuo:
    """Standalone plans defining each side's no-agreement payoff: the
    retailer's preferred order and the plan backing the supplier's
    reservation value."""

    retailer_plan: np.ndarray
    supplier_plan: np.ndarray


def jit_plan(retailer):
    """The retailer's standalone preferred order: route every demand region
    from its cheapest inbound node (ties to the lowest node index)."""
    total = float(retailer.demand.sum())
    uncapped = retailer_utility(retailer, np.full(retailer.n_inbound, total))
    return uncapped.transport.flow.sum(axis=1)


def standalone_plans(retailer, supplier):
    """Build the status quo: the retailer orders its preferred plan and the
    supplier is assumed to confirm it in full; if the order exceeds total
    source capacity the supplier's reservation plan is instead the partial
    confirmation (a per-node fraction of the order) that maximizes its own
    utility.
    """
    order = jit_plan(retailer)
    confirmed = order.copy()
    if order.sum() > supplier.total_capacity + _TOL:
        confirmed = _best_confirmation(supplier, order)
    return StatusQuo(retailer_plan=order, supplier_plan=confirmed)


def _best_confirmation(supplier, order):
    """Utility-maximizing partial confirmation 0 <= x <= order of an order the
    supplier cannot fill completely: a transport problem over margin-netted
    costs whose unconfirmed units fall to a free slack source."""
    sol = solve_transport(supplier.arc_costs - supplier.gross_profit,
                          row_bounds=supplier.capacities, col_requirements=order,
                          slack_penalty=0.0)
    return sol.flow.sum(axis=0)


class BoostedRetailerAgent(RetailerAgent):
    """Retailer agent whose reported utility carries the fee-policy bias."""

    def __init__(self, spec, fee, standalone_plan=None):
        super().__init__(spec)
        self.fee = fee
        self.reference = None if standalone_plan is None else np.asarray(standalone_plan, float)
        if fee.variant == "linear_deviation" and self.reference is None:
            raise ParameterError("linear_deviation boosting needs the standalone plan")

    def evaluate(self, plan):
        value, grad = super().evaluate(plan)
        scale = self.fee.report_scale
        value = scale * value
        grad = scale * grad
        if self.fee.variant == "additive":
            value += self.fee.alpha
        elif self.fee.variant == "linear_deviation":
            value -= deviation_penalty(plan, self.reference, self.fee.over_rate,
                                       self.fee.under_rate)
            delta = np.asarray(plan, dtype=float) - self.reference
            pen_grad = np.where(delta > _TOL, self.fee.over_rate,
                                np.where(delta < -_TOL, -self.fee.under_rate, 0.0))
            grad = grad - pen_grad
        return value, grad


def efficient_plan(retailer, supplier, fee=None, status_quo=None):
    """Plan maximizing the (possibly fee-biased) reported retailer utility
    plus the supplier utility over X, by one joint LP over plans and both
    transport flows (:func:`linprog`).  :func:`consensus_plan` reaches the
    same plan by the consensus loop against black-box agents."""
    fee = fee or FeePolicy.none()
    if fee.variant == "linear_deviation" and status_quo is None:
        status_quo = standalone_plans(retailer, supplier)
    reference = status_quo.retailer_plan if status_quo is not None else None
    return linprog(retailer, supplier, fee, reference)


def consensus_plan(retailer, supplier, fee=None, status_quo=None, config=None,
                   endpoints=None, trace=None):
    """Efficient plan by the consensus loop, projected back into X, and the
    :class:`ConsensusResult`.  The loop starts from the status-quo order (else
    the standalone order) unless ``config`` pins a start.  ``endpoints``, when
    given, is called as ``endpoints(agents, rho)`` and must be a context
    manager yielding the endpoints to coordinate (``protocol.served``)."""
    fee = fee or FeePolicy.none()
    reference = status_quo.retailer_plan if status_quo is not None else None
    cfg = config or ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, adapt_rho=True)
    if cfg.initial_plan is None:
        start = reference if reference is not None else jit_plan(retailer)
        cfg = replace(cfg, initial_plan=start)
    agents = [BoostedRetailerAgent(retailer, fee, standalone_plan=reference),
              SupplierAgent(supplier)]
    if endpoints is not None and cfg.adapt_rho:
        raise ParameterError(
            "adaptive penalty cannot run over the wire protocol: sessions pin rho "
            "at the handshake")
    with nullcontext(agents) if endpoints is None else endpoints(agents, cfg.rho) as parties:
        result = run_consensus(parties, cfg, trace=trace)
    cap = min(float(retailer.demand.sum()), supplier.total_capacity)
    return project_capped(result.plan, cap), result


def linprog(retailer, supplier, fee, reference):
    """The joint plan LP of :func:`efficient_plan`, solved as one
    transportation problem; returns the plan.

    Rows are the supplier's sources and columns the retailer's regions, with
    lost sales on the solver's slack row at the scaled penalty.  A unit from
    source k to region j goes through its cheapest inbound node, so cell
    (k, j) costs ``min_i(c^s_ki - g_i + scale * c^r_ij)`` and ``x_i`` sums
    the flows routed through node i (ties to the lowest index).  Units never
    pile up at an inbound node: one would take the place of a lost sale
    under the total-demand cap, and routing it to that region instead saves
    ``scale * (penalty - c^r_ij) > 0``.

    The ``linear_deviation`` fee adds ``over_rate`` to every cell and gives
    each node a lane of ``reference[i]`` units at ``-under_rate`` instead.
    A lane is a transshipment pair: a lane column that sources fill, and a
    lane row of the same size that passes those units on to the regions or
    back to its own column (the lane's unused room).  The lane row's
    legitimate cells are priced a bonus below the rest, so it never
    disposes of units (which would carry unsold units past the cap).  Lanes
    come first so the northwest corner starts on their diagonal.

    The name is kept from the scipy call it replaced: perfbench wraps it by name.
    """
    I = retailer.n_inbound
    if I == 0:
        return np.zeros(0)  # no inbound node: nothing to route
    scale = fee.report_scale
    margin = supplier.arc_costs - supplier.gross_profit              # (K, I)
    lanes = fee.variant == "linear_deviation"
    path = margin[:, :, None] + scale * retailer.arc_costs[None, :, :]
    if lanes:
        path += fee.over_rate
    route = path.argmin(axis=1)                                      # (K, J)
    cells = path.min(axis=1)
    penalty = scale * retailer.lost_sales_penalty
    if not lanes:
        sol = solve_transport(cells, supplier.capacities, retailer.demand,
                              slack_penalty=penalty)
        return _routed_plan(sol.flow, route, I)

    ref = np.asarray(reference, dtype=float)
    # more than any one unit of disposal could gain
    bonus = 1.0 + 2.0 * (penalty + np.abs(margin).max(initial=0.0)
                         + fee.over_rate + fee.under_rate)
    lane_rows = np.hstack([-bonus * np.eye(I), scale * retailer.arc_costs - bonus])
    source_rows = np.hstack([margin - fee.under_rate, cells])
    sol = solve_transport(np.vstack([lane_rows, source_rows]),
                          row_bounds=np.concatenate([ref, supplier.capacities]),
                          col_requirements=np.concatenate([ref, retailer.demand]),
                          slack_penalty=penalty)
    flow = sol.flow[I:]
    return flow[:, :I].sum(axis=0) + _routed_plan(flow[:, I:], route, I)


def _routed_plan(flow, route, n_inbound):
    """Units per inbound node of a source-by-region flow sent along ``route``."""
    return np.bincount(route.ravel(), weights=flow.ravel(), minlength=n_inbound)


@dataclass(frozen=True)
class SettlementReport:
    """Everything the principal needs to book one coordinated settlement."""

    plan: np.ndarray
    status_quo: StatusQuo
    fee: FeePolicy
    retailer_value_plan: float       # retailer utility at the settled plan
    supplier_value_plan: float
    retailer_value_standalone: float
    supplier_value_standalone: float
    retailer_cost_plan: float        # transport cost components for reporting
    supplier_cost_plan: float
    transfer_supplier: float         # paid by the supplier to the principal
    transfer_retailer: float         # paid by the retailer agent to the principal
    fee_term: float
    budget_sum: float
    gain: float
    supplier_surplus: float
    retailer_surplus: float
    supplier_accepts: bool

    def verify(self, tol=1e-6):
        """Re-check the settlement identities; raises AssertionError on drift."""
        lhs = self.retailer_value_plan + self.transfer_supplier - self.fee_term
        assert abs(lhs - self.retailer_value_standalone) <= tol, "transfer identity broken"
        assert abs((self.supplier_surplus + self.retailer_surplus) - self.gain) <= tol, \
            "surplus split does not add to the coordination gain"
        assert abs(self.budget_sum - (self.transfer_retailer + self.transfer_supplier)) <= tol
        return True


def vcg_transfers(retailer, supplier, status_quo, x_star, fee=None):
    """Price the settled plan: the supplier pays the retailer's utility drop
    plus the activity fee, the retailer agent pays the supplier's drop (a
    bookkeeping entry that nets out of the principal-plus-agent position)."""
    return price_settlement(lambda x: retailer_utility(retailer, x),
                            lambda x: supplier_utility(supplier, x), status_quo, x_star, fee)


def price_settlement(retailer_at, supplier_at, status_quo, x_star, fee=None):
    """:func:`vcg_transfers` from the evaluations ``retailer_at(x)`` and ``supplier_at(x)``."""
    fee = fee or FeePolicy.none()
    x_star = as_plan(x_star)
    ev_a_star, ev_s_star = retailer_at(x_star), supplier_at(x_star)
    u_a_sq = retailer_at(status_quo.retailer_plan).value
    u_s_sq = supplier_at(status_quo.supplier_plan).value

    drop = u_a_sq - ev_a_star.value
    fee_term = fee.transfer_term(drop, x_star=x_star, standalone_plan=status_quo.retailer_plan)
    t_supplier = drop + fee_term
    t_retailer = u_s_sq - ev_s_star.value
    gain = ev_a_star.value + ev_s_star.value - u_a_sq - u_s_sq
    supplier_surplus = ev_s_star.value - t_supplier - u_s_sq
    retailer_surplus = (ev_a_star.value + t_supplier) - u_a_sq
    return SettlementReport(
        plan=x_star, status_quo=status_quo, fee=fee,
        retailer_value_plan=ev_a_star.value, supplier_value_plan=ev_s_star.value,
        retailer_value_standalone=u_a_sq, supplier_value_standalone=u_s_sq,
        retailer_cost_plan=ev_a_star.transport.objective,
        supplier_cost_plan=ev_s_star.transport.objective,
        transfer_supplier=t_supplier, transfer_retailer=t_retailer, fee_term=fee_term,
        budget_sum=t_retailer + t_supplier, gain=gain, supplier_surplus=supplier_surplus,
        retailer_surplus=retailer_surplus, supplier_accepts=supplier_surplus >= -_TOL)


@dataclass(frozen=True)
class BudgetDiagnosis:
    total: float
    regime: str  # "deficit" | "surplus" | "balanced"


def budget_balance_check(report, tol=1e-9):
    """Classify the VCG budget.  A deficit (the principal pays out on net)
    appears exactly when joint utility at the settled plan beats the summed
    standalone values, i.e. when the agents are complements."""
    if report.fee.variant != "none":
        raise ParameterError("budget diagnosis applies to the fee-free mechanism")
    total = report.budget_sum
    regime = "deficit" if total < -tol else "surplus" if total > tol else "balanced"
    return BudgetDiagnosis(total=total, regime=regime)


@dataclass(frozen=True)
class MenuOffer:
    """Plans priced so every option leaves the retailer exactly its standalone
    utility plus the flat fee."""

    plans: tuple
    fees: tuple
    alpha: float


def build_menu(retailer, status_quo, plans, alpha=0.0):
    return price_menu(lambda x: retailer_utility(retailer, x), status_quo, plans, alpha)


def price_menu(retailer_at, status_quo, plans, alpha=0.0):
    """:func:`build_menu` from the retailer's evaluation ``retailer_at(x)``."""
    if not plans:
        raise ParameterError("menu needs at least one plan")
    u_a_sq = retailer_at(status_quo.retailer_plan).value
    priced = [as_plan(plan) for plan in plans]
    fees = [u_a_sq - retailer_at(p).value + alpha for p in priced]
    return MenuOffer(plans=tuple(priced), fees=tuple(fees), alpha=float(alpha))


def default_menu_plans(standalone_plan, x_star):
    """Retailer-generated sweep of four plans from the standalone plan toward
    (and one step past) the efficient plan."""
    ref = np.asarray(standalone_plan, dtype=float)
    target = np.asarray(x_star, dtype=float)
    unit = (target - ref) / 3
    return [np.maximum(ref + k * unit, 0.0) for k in range(1, 5)]


@dataclass(frozen=True)
class MenuChoice:
    accepted: bool
    index: int | None
    plan: np.ndarray | None
    fee: float | None
    net_value: float | None
    option_values: tuple        # supplier utility per option (-inf if unfillable)
    option_nets: tuple          # utility minus the option's fee
    option_alpha_nets: tuple    # utility minus the flat fee only


def supplier_choose(supplier, menu, reservation=-np.inf):
    """Dominant-strategy choice from a priced menu: the option maximizing the
    supplier's utility net of its fee, ties to the lowest index; declined when
    even the best option pays less than the reservation value."""
    return choose_option(lambda x: supplier_utility(supplier, x), menu, reservation)


def choose_option(supplier_at, menu, reservation=-np.inf):
    """:func:`supplier_choose` from the supplier's evaluation ``supplier_at(x)``."""
    values = []
    for plan in menu.plans:
        try:
            values.append(supplier_at(plan).value)
        except InfeasibleError:
            values.append(-np.inf)
    nets = [v - f for v, f in zip(values, menu.fees)]
    alpha_nets = [v - menu.alpha for v in values]
    best = int(np.argmax(nets))
    options = dict(option_values=tuple(values), option_nets=tuple(nets),
                   option_alpha_nets=tuple(alpha_nets))
    if not np.isfinite(nets[best]) or nets[best] < reservation - _TOL:
        return MenuChoice(accepted=False, index=None, plan=None, fee=None, net_value=None,
                          **options)
    return MenuChoice(accepted=True, index=best, plan=menu.plans[best],
                      fee=menu.fees[best], net_value=nets[best], **options)
