"""VCG settlement for the bilateral retailer-supplier case.

Builds the status quo (the retailer's standalone order and the supplier's
standalone value of filling it), computes the socially efficient plan either
by one centralized LP or by the consensus loop, prices the supplier's
externality transfer, applies activity-fee variants, and prices menus of
contracts that let the supplier pick the efficient plan in dominant
strategies.

The centralized LP is one transport-simplex solve (:func:`linprog`).  The
pricing steps take each side as its utility, a callable ``plan ->
UtilityEvaluation``: a spec is one, and a report passes one that solves each
plan once.

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
from .transport import as_plan, checked, exceeds, solve_transport

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
            object.__setattr__(self, name, checked(getattr(self, name), f"fee parameter {name}",
                                                   nonnegative=True))
        if self.variant == "roi" and self.roi_rate >= 1.0:
            raise ParameterError("roi_rate must be below 1")
        if self.variant == "linear_deviation" and self.under_rate > self.over_rate:
            raise ParameterError("under_rate must not exceed over_rate")

    @classmethod
    def none(cls):
        return cls()

    @classmethod
    def additive(cls, alpha):
        return cls(variant="additive", alpha=alpha)

    @classmethod
    def multiplicative(cls, beta):
        return cls(variant="multiplicative", beta=beta)

    @classmethod
    def roi(cls, rate):
        return cls(variant="roi", roi_rate=rate)

    @classmethod
    def linear_deviation(cls, over_rate, under_rate):
        return cls(variant="linear_deviation", over_rate=over_rate, under_rate=under_rate)

    @property
    def moves_plan(self):
        """Whether the fee biases the reported utility, and so the efficient
        plan: a scaled report or a deviation charge does, a flat fee does not."""
        return self.report_scale != 1.0 or self.variant == "linear_deviation"

    @property
    def flat_fee(self):
        """Flat fee on top of the reported utility and of every menu option's
        price (the additive alpha)."""
        return self.alpha if self.variant == "additive" else 0.0

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


def jit_plan(retailer, retailer_at=None):
    """The retailer's standalone preferred order: route every demand region
    from its cheapest inbound node (ties to the lowest node index).  The
    uncapped plan is priced by ``retailer_at``, the retailer's utility (the
    spec itself by default)."""
    total = float(retailer.demand.sum())
    uncapped = (retailer_at or retailer)(np.full(retailer.n_inbound, total))
    return uncapped.transport.flow.sum(axis=1)


def standalone_plans(retailer, supplier, retailer_at=None):
    """Build the status quo: the retailer orders its preferred plan and the
    supplier is assumed to confirm it in full; if the order exceeds total
    source capacity the supplier's reservation plan is instead the partial
    confirmation (a per-node fraction of the order) that maximizes its own
    utility.  ``retailer_at`` prices the order as in :func:`jit_plan`; a
    report passes its evaluator, which then already holds the order's value
    when the order is the uncapped plan (one inbound node).
    """
    order = jit_plan(retailer, retailer_at)
    confirmed = order.copy()
    if exceeds(order.sum(), supplier.total_capacity):
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
    """Retailer agent whose reported utility carries the fee-policy bias.

    The scale and the flat fee keep the transport basis's cut exact wherever
    the basis holds.  A deviation charge adds kinks at the reference, so its
    cut's certificate also carries the side of the reference each entry lies
    on (above, below, or within 1e-9 of it), and holds only on the same sides.
    """

    def __init__(self, spec, fee, standalone_plan=None):
        super().__init__(spec)
        self.fee = fee
        self.reference = None if standalone_plan is None else np.asarray(standalone_plan, float)

    def evaluate(self, plan):
        value, grad, basis = super().evaluate(plan)
        scale = self.fee.report_scale
        value = scale * value + self.fee.flat_fee
        grad = scale * grad
        if self.fee.variant != "linear_deviation":
            return value, grad, basis
        value -= deviation_penalty(plan, self.reference, self.fee.over_rate,
                                   self.fee.under_rate)
        sides = self._sides(plan)
        grad = grad - np.where(sides > 0, self.fee.over_rate,
                               np.where(sides < 0, -self.fee.under_rate, 0.0))
        return value, grad, (basis, sides.tobytes())

    def holds(self, certificate, plan):
        if self.fee.variant != "linear_deviation":
            return super().holds(certificate, plan)
        basis, sides = certificate
        return super().holds(basis, plan) and self._sides(plan).tobytes() == sides

    def _sides(self, plan):
        """Per entry, 1 above the reference, -1 below it, 0 within 1e-9 of it."""
        delta = np.asarray(plan, dtype=float) - self.reference
        return (delta > _TOL).astype(np.int8) - (delta < -_TOL).astype(np.int8)


def efficient_plan(retailer, supplier, fee=None, status_quo=None):
    """Plan maximizing the (possibly fee-biased) reported retailer utility
    plus the supplier utility over X, by one joint LP over plans and both
    transport flows (:func:`linprog`).  :func:`consensus_plan` reaches the
    same plan by the consensus loop against black-box agents."""
    fee, reference = _fee_and_reference(retailer, supplier, fee, status_quo)
    return linprog(retailer, supplier, fee, reference)


def _fee_and_reference(retailer, supplier, fee, status_quo):
    """The fee (none by default) and the retailer's standalone plan that a
    deviation charge is measured from, which a ``linear_deviation`` fee
    given no status quo computes by :func:`standalone_plans`."""
    fee = fee or FeePolicy.none()
    if fee.variant == "linear_deviation" and status_quo is None:
        status_quo = standalone_plans(retailer, supplier)
    return fee, status_quo.retailer_plan if status_quo is not None else None


def consensus_plan(retailer, supplier, fee=None, status_quo=None, config=None,
                   endpoints=None, trace=None):
    """Efficient plan by the consensus loop, projected back into X, and the
    :class:`ConsensusResult`.  The loop starts from the status-quo order (else
    the standalone order) unless ``config`` pins a start; a deviation fee
    given no status quo is measured as in :func:`efficient_plan`.
    ``endpoints``, when given, is called as ``endpoints(agents)`` and must be
    a context manager yielding the endpoints to coordinate
    (``protocol.served``); every query carries its penalty, so ``adapt_rho``
    runs over the wire too."""
    fee, reference = _fee_and_reference(retailer, supplier, fee, status_quo)
    cfg = config or ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, adapt_rho=True)
    if cfg.initial_plan is None:
        start = reference if reference is not None else jit_plan(retailer)
        cfg = replace(cfg, initial_plan=start)
    agents = [BoostedRetailerAgent(retailer, fee, standalone_plan=reference),
              SupplierAgent(supplier)]
    with nullcontext(agents) if endpoints is None else endpoints(agents) as parties:
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
    fee: FeePolicy
    retailer_value_plan: float       # retailer utility at the settled plan
    supplier_value_plan: float
    retailer_value_standalone: float
    supplier_value_standalone: float
    transfer_supplier: float         # paid by the supplier to the principal
    transfer_retailer: float         # paid by the retailer agent to the principal
    fee_term: float
    budget_sum: float
    gain: float
    supplier_surplus: float
    retailer_surplus: float
    supplier_accepts: bool

    def verify(self):
        """Re-check the settlement identities by :func:`check_identity`,
        against the utilities and transfers they are built from.  Raises
        AssertionError on drift."""
        terms = (self.retailer_value_plan, self.supplier_value_plan,
                 self.retailer_value_standalone, self.supplier_value_standalone,
                 self.transfer_supplier, self.transfer_retailer, self.fee_term)
        check_identity(self.retailer_value_plan + self.transfer_supplier - self.fee_term,
                       self.retailer_value_standalone, terms, "transfer identity broken")
        check_identity(self.supplier_surplus + self.retailer_surplus, self.gain, terms,
                       "surplus split does not add to the coordination gain")
        check_identity(self.budget_sum, self.transfer_retailer + self.transfer_supplier, terms,
                       "budget does not add the two transfers")
        return True


def check_identity(lhs, rhs, terms, message):
    """The one self-check: raise AssertionError(``message``) unless ``lhs``
    and ``rhs`` agree to 1e-9 of the summed magnitudes of the ``terms`` they
    are built from (at least 1), since rounding grows with their size, not
    with their units.  It raises explicitly, so ``python -O`` keeps it."""
    if not abs(lhs - rhs) <= 1e-9 * max(1.0, sum(map(abs, terms))):
        raise AssertionError(message)


def participates(value, fee, reservation):
    """The one participation test: whether an agent takes a deal, its value
    less the fee falling short of its reservation value by at most 1e-9.  A
    value of -inf (a plan it cannot fill) never does."""
    return value - fee - reservation >= -_TOL


def vcg_transfers(retailer, supplier, status_quo, x_star, fee=None):
    """Price the settled plan: the supplier pays the retailer's utility drop
    plus the activity fee, the retailer agent pays the supplier's drop (a
    bookkeeping entry that nets out of the principal-plus-agent position).
    ``retailer`` and ``supplier`` are each side's utility, ``plan ->
    UtilityEvaluation`` (a spec, or a report's memoized evaluation)."""
    fee = fee or FeePolicy.none()
    x_star = as_plan(x_star)
    ev_a_star, ev_s_star = retailer(x_star), supplier(x_star)
    u_a_sq = retailer(status_quo.retailer_plan).value
    u_s_sq = supplier(status_quo.supplier_plan).value

    drop = u_a_sq - ev_a_star.value
    fee_term = fee.transfer_term(drop, x_star=x_star, standalone_plan=status_quo.retailer_plan)
    t_supplier = drop + fee_term
    t_retailer = u_s_sq - ev_s_star.value
    gain = ev_a_star.value + ev_s_star.value - u_a_sq - u_s_sq
    supplier_surplus = ev_s_star.value - t_supplier - u_s_sq
    retailer_surplus = (ev_a_star.value + t_supplier) - u_a_sq
    return SettlementReport(
        plan=x_star, fee=fee,
        retailer_value_plan=ev_a_star.value, supplier_value_plan=ev_s_star.value,
        retailer_value_standalone=u_a_sq, supplier_value_standalone=u_s_sq,
        transfer_supplier=t_supplier, transfer_retailer=t_retailer, fee_term=fee_term,
        budget_sum=t_retailer + t_supplier, gain=gain, supplier_surplus=supplier_surplus,
        retailer_surplus=retailer_surplus,
        supplier_accepts=participates(ev_s_star.value, t_supplier, u_s_sq))


@dataclass(frozen=True)
class BudgetDiagnosis:
    total: float
    regime: str  # "deficit" | "surplus" | "balanced"


def budget_balance_check(report):
    """Classify the VCG budget.  A deficit (the principal pays out on net)
    appears exactly when joint utility at the settled plan beats the summed
    standalone values, i.e. when the agents are complements."""
    if report.fee.variant != "none":
        raise ParameterError("budget diagnosis applies to the fee-free mechanism")
    total = report.budget_sum
    regime = "deficit" if total < -_TOL else "surplus" if total > _TOL else "balanced"
    return BudgetDiagnosis(total=total, regime=regime)


@dataclass(frozen=True)
class MenuOffer:
    """Plans priced so every option leaves the retailer exactly its standalone
    utility plus the flat fee."""

    plans: tuple
    fees: tuple
    alpha: float


def build_menu(retailer, status_quo, plans, alpha=0.0):
    """Price each plan at the retailer's utility drop from its standalone
    plan plus ``alpha``; ``retailer`` is its utility, ``plan -> UtilityEvaluation``."""
    if not plans:
        raise ParameterError("menu needs at least one plan")
    u_a_sq = retailer(status_quo.retailer_plan).value
    priced = [as_plan(plan) for plan in plans]
    fees = [u_a_sq - retailer(p).value + alpha for p in priced]
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
    option_values: tuple        # supplier utility per option (-inf if unfillable)
    option_nets: tuple          # utility minus the option's fee
    option_alpha_nets: tuple    # utility minus the flat fee only


def supplier_choose(supplier, menu, reservation=-np.inf):
    """Dominant-strategy choice from a priced menu: the option maximizing the
    supplier's utility net of its fee, ties to the lowest index; declined when
    even the best option pays less than the reservation value.  ``supplier``
    is its utility, ``plan -> UtilityEvaluation``."""
    values = []
    for plan in menu.plans:
        try:
            values.append(supplier(plan).value)
        except InfeasibleError:
            values.append(-np.inf)
    nets = [v - f for v, f in zip(values, menu.fees)]
    alpha_nets = [v - menu.alpha for v in values]
    best = int(np.argmax(nets))
    options = dict(option_values=tuple(values), option_nets=tuple(nets),
                   option_alpha_nets=tuple(alpha_nets))
    if not participates(values[best], menu.fees[best], reservation):
        return MenuChoice(accepted=False, index=None, plan=None, fee=None, **options)
    return MenuChoice(accepted=True, index=best, plan=menu.plans[best],
                      fee=menu.fees[best], **options)
