"""Iterative consensus planning: proximal agent best responses coordinated by
consensus ADMM.

Agents are black boxes that score a shared plan vector and return a
supergradient; the coordinator never sees their private data.  Each round the
coordinator sends agent m its price vector and the current consensus proposal,
the agent answers with the maximizer of

    u_m(x) - prices @ x - (rho/2) ||x - z||^2

over its feasible plan set, and the coordinator averages the answers into a
new proposal and adjusts prices by the disagreement.  For concave utilities
the iteration converges to a maximizer of the summed utilities.
"""

import json
from dataclasses import dataclass, replace
from math import inf, sqrt

import numpy as np

from ._qp import CutSet, maximize_cut_model, project_capped
from .errors import CoplanError, DimensionError, NonConvergenceError, ParameterError
from .transport import (
    as_plan,
    basis_holds,
    basis_order,
    checked,
    exceeds,
    retailer_utility,
    supplier_utility,
)

_BR_GAP_TOL = 1e-12    # relative gap at which a best response is certified
_BR_MAX_EVALS = 120
_ADAPT_EVERY = 25      # rho rebalance cadence; every iteration oscillates
_ADAPT_RATIO = 10.0    # residual imbalance that triggers a rebalance
_ADAPT_FACTOR = 2.0    # rho multiplier of one rebalance
_ADAPT_SPAN = 256.0    # rho stays within rho0 / span .. rho0 * span
_RHO_RULE = "penalty rho must be positive and finite"


class PlanAgent:
    """Black-box utility evaluator over plans on the nonnegative orthant,
    optionally capped in total volume.

    Subclasses implement :meth:`evaluate` returning ``(value, supergradient)``
    at a feasible plan.  ``total_cap`` bounds ``sum(plan)`` (``math.inf`` =
    unbounded); it doubles as the feasible set used by projection and best
    responses.

    An agent that can tell when a cut stays exact also returns a third item,
    the cut's certificate, and exposes ``holds(certificate, plan)``: whether
    its utility at ``plan`` equals that cut's value there.  Best responses
    keep each certificate with its cut and ask before they evaluate.
    """

    dim = 0
    total_cap = inf

    def evaluate(self, plan):
        raise NotImplementedError

    def project(self, plan):
        return project_capped(np.asarray(plan, dtype=float), self.total_cap)


class RetailerAgent(PlanAgent):
    """Retailer utility as a consensus agent.

    The order book never exceeds total demand: supplying more than can be
    sold has zero retail value, so plans above that total are never proposed.
    A cut's certificate is the basis of the transport solve behind it.
    """

    def __init__(self, spec):
        self.spec = spec
        self.dim = spec.n_inbound
        self.total_cap = float(spec.demand.sum())
        self._demand = spec.demand.tolist()

    def evaluate(self, plan):
        ev = retailer_utility(self.spec, plan)
        return ev.value, ev.supergradient, basis_order(ev.transport.basis)

    def holds(self, certificate, plan):
        """Whether the basis ``certificate`` is still optimal at ``plan``;
        a plan that :func:`~coplan.transport.as_plan` rejects is not."""
        x = _valid(plan, self.dim)
        return x is not None and basis_holds(certificate, x.tolist(), self._demand, slack=True)


class SupplierAgent(PlanAgent):
    """Supplier utility as a consensus agent, capped at total source capacity.
    A cut's certificate is the basis of the transport solve behind it, or
    None for a supplier without sources."""

    def __init__(self, spec):
        self.spec = spec
        self.dim = spec.n_inbound
        self.total_cap = spec.total_capacity
        self._capacities = spec.capacities.tolist()

    def evaluate(self, plan):
        ev = supplier_utility(self.spec, plan)
        basis = ev.transport.basis
        return ev.value, ev.supergradient, None if basis is None else basis_order(basis)

    def holds(self, certificate, plan):
        """Whether the basis ``certificate`` is still optimal at ``plan``; a
        plan past capacity, or one that :func:`~coplan.transport.as_plan`
        rejects, is not."""
        x = _valid(plan, self.dim)
        return (x is not None and not exceeds(x.sum(), self.spec.total_capacity)
                and basis_holds(certificate, self._capacities, x.tolist(), slack=False))


def _valid(plan, dim):
    """``plan`` as :func:`~coplan.transport.as_plan` returns it, or None
    where it raises."""
    try:
        return as_plan(plan, dim)
    except CoplanError:
        return None


@dataclass(frozen=True)
class BestResponse:
    plan: np.ndarray
    gap: float         # certified optimality gap of the proximal objective
    evaluations: int


def best_response(agent, prices, z, rho, cuts=None):
    """Maximize the proximal objective by cutting planes on the concave
    utility with an exact prox-model master.

    Supergradient cuts overestimate the utility, so the master value is a
    certified upper bound; the loop stops once the bound meets the best
    evaluated point within ``_BR_GAP_TOL`` relative to the objective and the
    utility, whose size sets the bound's rounding error even when the
    objective is near zero.  It also stops when an evaluation returns a cut
    the model already holds: the model is then exact at the master's
    maximizer, and the gap reported is the master's own.  Piecewise-linear
    utilities terminate finitely.

    ``cuts`` is a :class:`CutSet` of the agent's earlier cuts, which the loop
    extends in place.  A cut of a fixed utility overestimates it whatever the
    query, so a nonempty set starts the loop at its model's prox maximizer,
    whose value is already a bound, and the next query reuses what this one
    learned (a proximal bundle; Kiwiel, Math. Programming 46, 1990).  Before
    it evaluates a master point, the loop asks an agent with ``holds`` (see
    :class:`PlanAgent`) whether the certificate of the cut lowest there
    still holds: then the model is exact at that point, which maximizes it,
    and the point is the answer without an evaluation, as if the evaluation
    had returned a held cut.  The answer is always a point evaluated in this
    call, or certified by a kept cut.  Agents with special structure may
    expose an exact ``prox_respond``, which takes precedence over the
    cutting-plane loop and answers without an evaluation.
    """
    prices = np.asarray(prices, dtype=float)
    z = np.asarray(z, dtype=float)
    if prices.shape != (agent.dim,) or z.shape != (agent.dim,):
        raise DimensionError(
            f"prices {prices.shape} / proposal {z.shape} do not match agent dimension {agent.dim}"
        )
    rho = checked(rho, "rho", message=_RHO_RULE)
    if not rho > 0:
        raise ParameterError(_RHO_RULE)
    prox = getattr(agent, "prox_respond", None)
    if prox is not None:
        return BestResponse(plan=prox(prices, z, rho), gap=0.0, evaluations=0)

    center = z - prices / rho
    # (rho/2)(center @ center - z @ z), without the cancellation of its two terms
    shift = float(prices @ prices) / (2.0 * rho) - float(prices @ z)
    if cuts is None:
        cuts = CutSet()
    holds = getattr(agent, "holds", None)
    if len(cuts):
        x, model_val = maximize_cut_model(cuts, center, rho,
                                          total_cap=agent.total_cap)
        upper = model_val + shift
    else:
        x, upper = agent.project(center), np.inf

    best_val = -np.inf
    size = 0.0  # largest |u(x)| evaluated so far
    for k in range(_BR_MAX_EVALS):
        if holds is not None and len(cuts):  # x is the master's maximizer
            value, certificate = cuts.lowest(x)
            if certificate is not None and holds(certificate, x):
                objective = value - prices @ x - 0.5 * rho * float(np.sum((x - z) ** 2))
                return BestResponse(plan=x, gap=max(upper - objective, 0.0), evaluations=k)
        value, grad, *certificate = agent.evaluate(x)
        objective = value - prices @ x - 0.5 * rho * float(np.sum((x - z) ** 2))
        if objective > best_val:
            best_val = objective
            best_x = x
        size = max(size, abs(value))
        if not cuts.add(value - float(grad @ x), grad, *certificate):
            # the model already holds this cut, so it is exact at x, which
            # maximizes it: x is optimal up to the master's own gap, which
            # no further cut can close
            break
        if len(cuts) > 48:
            # drop the stalest cuts; fewer constraints only raise the model,
            # and a bound already certified stays one
            cuts.keep_last(32)
        tol = _BR_GAP_TOL * (1.0 + abs(best_val) + size)
        # a new cut only lowers the model, so the standing bound may already do
        if upper - best_val <= tol:
            break
        x, model_val = maximize_cut_model(cuts, center, rho,
                                          total_cap=agent.total_cap)
        upper = min(upper, model_val + shift)
        if upper - best_val <= tol:
            break
    else:
        raise NonConvergenceError(
            f"best response did not close its gap within {_BR_MAX_EVALS} evaluations "
            f"(gap {upper - best_val:.3e})"
        )
    return BestResponse(plan=best_x, gap=max(upper - best_val, 0.0), evaluations=k + 1)


class LocalEndpoint:
    """In-process best-response endpoint.  It keeps its agent's cuts for the
    whole session, so each query starts from everything earlier ones learned."""

    def __init__(self, agent):
        self.agent = agent
        self.dim = agent.dim
        self._cuts = CutSet()

    def respond(self, prices, z, rho, iteration):
        return best_response(self.agent, prices, z, rho, cuts=self._cuts).plan


@dataclass(frozen=True)
class ConsensusConfig:
    rho: float = 1.0
    eps_abs: float = 1e-4
    eps_rel: float = 1e-4
    max_iters: int = 5000
    adapt_rho: bool = False
    initial_plan: np.ndarray | None = None
    initial_prices: np.ndarray | None = None

    def __post_init__(self):
        # rho <= 0 is left to the scenario reader, which names its key
        object.__setattr__(self, "rho", checked(self.rho, "rho", message=_RHO_RULE))
        for name in ("eps_abs", "eps_rel", "initial_plan", "initial_prices"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, checked(getattr(self, name), name,
                                                       nonnegative=name.startswith("eps")))
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ParameterError("max_iters must be a positive integer")


@dataclass(frozen=True)
class ConsensusState:
    iteration: int
    z: np.ndarray                 # consensus proposal
    prices: np.ndarray            # (M, I), rows sum to zero exactly
    r_primal: float               # max_m ||responses[m] - z|| at the last step
    r_dual: float                 # rho * ||z - z_prev||
    rho: float


def coordinator_step(state, responses):
    """One ADMM coordinator update: average the responses (price-adjusted)
    into a new proposal and move each agent's prices by the disagreement."""
    X = np.asarray(responses, dtype=float)
    P = state.prices
    if X.shape != P.shape:
        raise DimensionError(
            f"got responses of shape {X.shape}, expected {P.shape}"
        )
    rho = state.rho
    # np.mean and np.linalg.norm spelled as the reductions they run, which
    # gives their bits without the cost of their Python wrappers
    z_new = np.add.reduce(X + P / rho, axis=0) / P.shape[0]
    D = X - z_new
    prices = P + rho * D
    # Pin the zero-sum dual-feasibility identity exactly; float drift would
    # otherwise accumulate over thousands of iterations.
    prices[-1] = -np.add.reduce(prices[:-1], axis=0)
    # the largest row norm; sqrt is monotone, so it may follow the max
    r_primal = sqrt(np.add.reduce(D * D, axis=1).max(initial=0.0))
    dz = z_new - state.z
    r_dual = float(rho * sqrt(dz.dot(dz)))
    return ConsensusState(
        iteration=state.iteration + 1,
        z=z_new,
        prices=prices,
        r_primal=r_primal,
        r_dual=r_dual,
        rho=rho,
    )


@dataclass(frozen=True)
class ConsensusResult:
    plan: np.ndarray
    iterations: int
    r_primal: float
    r_dual: float
    converged: bool
    prices: np.ndarray    # final per-agent price vectors


def run_consensus(agents, config=None, trace=None):
    """Drive best-response endpoints to consensus.

    ``agents`` may be :class:`PlanAgent` instances (wrapped in-process) or any
    endpoint exposing ``respond(prices, z, rho, iteration)``.  ``trace`` is an
    optional callable or writable stream receiving one structured record per
    iteration: its number, ``z``, both residuals and the ``rho`` the next
    queries carry.  The run reads only the endpoints' answers and evaluates
    no utility of its own.  A run that exhausts ``max_iters`` returns its
    last state with ``converged=False`` rather than raising.
    """
    config = config or ConsensusConfig()
    if not agents:
        raise ParameterError("at least one agent is required")
    endpoints = [a if hasattr(a, "respond") else LocalEndpoint(a) for a in agents]
    dims = {ep.dim for ep in endpoints}
    if len(dims) != 1:
        raise DimensionError(f"agents disagree on plan dimension: {sorted(dims)}")
    dim = dims.pop()
    M = len(endpoints)

    if config.initial_plan is not None:
        z = np.maximum(np.asarray(config.initial_plan, dtype=float), 0.0)
        if z.shape != (dim,):
            raise DimensionError("initial plan has the wrong dimension")
    else:
        z = np.zeros(dim)
    if config.initial_prices is not None:
        prices = np.asarray(config.initial_prices, dtype=float).copy()
        if prices.shape != (M, dim):
            raise DimensionError("initial prices have the wrong shape")
        prices[-1] = -prices[:-1].sum(axis=0)
    else:
        prices = np.zeros((M, dim))

    emit = _trace_emitter(trace)
    state = ConsensusState(iteration=0, z=z, prices=prices,
                           r_primal=np.inf, r_dual=np.inf, rho=config.rho)
    converged = False
    for it in range(1, config.max_iters + 1):
        responses = [ep.respond(state.prices[m], state.z, state.rho, it)
                     for m, ep in enumerate(endpoints)]
        state = coordinator_step(state, responses)
        if config.adapt_rho and it % _ADAPT_EVERY == 0:
            state = _rebalance_rho(state, lo=config.rho / _ADAPT_SPAN,
                                   hi=config.rho * _ADAPT_SPAN)
        if emit:
            emit({"iteration": state.iteration, "z": state.z.tolist(),
                  "r_primal": state.r_primal, "r_dual": state.r_dual, "rho": state.rho})
        znorm = sqrt(state.z.dot(state.z))
        if (state.r_primal <= config.eps_abs + config.eps_rel * znorm
                and state.r_dual <= config.eps_abs + config.eps_rel * state.rho * znorm):
            converged = True
            break

    return ConsensusResult(
        plan=np.maximum(state.z, 0.0),
        iterations=state.iteration,
        r_primal=state.r_primal,
        r_dual=state.r_dual,
        converged=converged,
        prices=state.prices.copy(),
    )


def _rebalance_rho(state, lo, hi):
    if state.r_primal > _ADAPT_RATIO * state.r_dual:
        return replace(state, rho=min(state.rho * _ADAPT_FACTOR, hi))
    if state.r_dual > _ADAPT_RATIO * state.r_primal:
        return replace(state, rho=max(state.rho / _ADAPT_FACTOR, lo))
    return state


def _trace_emitter(trace):
    if trace is None:
        return None
    if callable(trace):
        return trace

    def emit(record):
        trace.write(json.dumps(record, separators=(",", ":")) + "\n")

    return emit
