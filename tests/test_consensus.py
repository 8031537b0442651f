import io
import json
import math

import numpy as np
import pytest

from conftest import (
    RetailerValueOracle,
    SupplierValueOracle,
    joint_utility,
    prox_objective,
    random_bilateral,
    solve_joint_lp,
)
from coplan import consensus, mechanism
from coplan._qp import CutSet, maximize_cut_model
from coplan.consensus import (
    ConsensusConfig,
    ConsensusState,
    LocalEndpoint,
    RetailerAgent,
    SupplierAgent,
    best_response,
    coordinator_step,
    run_consensus,
)
from coplan.errors import DimensionError, InfeasibleError, NonConvergenceError, ParameterError
from coplan.mechanism import FeePolicy, standalone_plans
from coplan import transport
from coplan.transport import retailer_utility, supplier_utility


@pytest.fixture(scope="module")
def retailer_oracle(toy_retailer):
    oracle = RetailerValueOracle(toy_retailer)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 120, size=(50, 2))
    direct = np.array([retailer_utility(toy_retailer, p).value for p in pts])
    assert np.allclose(oracle(pts), direct, atol=1e-6), "oracle construction is broken"
    return oracle


@pytest.fixture(scope="module")
def supplier_oracle(toy_supplier):
    oracle = SupplierValueOracle(toy_supplier)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 55, size=(50, 2))
    direct = np.array([supplier_utility(toy_supplier, p).value for p in pts])
    assert np.allclose(oracle(pts), direct, atol=1e-6), "oracle construction is broken"
    return oracle


def test_best_response_prox_dominated(toy_retailer):
    agent = RetailerAgent(toy_retailer)
    rho = 1e6
    # proposals inside the agent's plan set: the penalty pins the answer there
    for z in ([30.0, 70.0], [41.0, 59.0], [10.0, 20.0]):
        z = np.asarray(z)
        br = best_response(agent, np.zeros(2), z, rho)
        g = retailer_utility(toy_retailer, z).supergradient
        # the exact maximizer sits within ||g||/rho of the proposal
        assert np.linalg.norm(br.plan - z) <= 1e-6 + np.linalg.norm(g) / rho


def test_best_response_retailer_matches_grid(toy_retailer, retailer_oracle):
    agent = RetailerAgent(toy_retailer)
    z = np.array([40.0, 60.0])
    br = best_response(agent, np.zeros(2), z, rho=1.0)
    axis = np.arange(0.0, 120.0 + 0.25, 0.25)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[pts.sum(axis=1) <= agent.total_cap + 1e-9]
    scores = retailer_oracle(pts) - 0.5 * np.sum((pts - z) ** 2, axis=1)
    grid_best = pts[np.argmax(scores)]
    assert np.all(np.abs(br.plan - grid_best) <= 0.25 + 1e-9)
    assert prox_objective(agent, br.plan, np.zeros(2), z, 1.0) >= scores.max() - 1e-9


def test_best_response_supplier_dominates_grid(toy_supplier, supplier_oracle):
    agent = SupplierAgent(toy_supplier)
    rng = np.random.default_rng(23)
    axis = np.arange(0.0, 110.0 + 0.5, 0.5)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[pts.sum(axis=1) <= agent.total_cap + 1e-9]
    for _ in range(5):
        prices = rng.uniform(-10, 10, size=2)
        z = rng.uniform(0, 80, size=2)
        br = best_response(agent, prices, z, rho=1.0)
        scores = supplier_oracle(pts) - pts @ prices - 0.5 * np.sum((pts - z) ** 2, axis=1)
        assert prox_objective(agent, br.plan, prices, z, 1.0) >= scores.max() - 1e-9


def test_best_response_rejects_bad_inputs(toy_retailer, monkeypatch):
    agent = RetailerAgent(toy_retailer)
    with pytest.raises(DimensionError):
        best_response(agent, np.zeros(3), np.zeros(2), 1.0)
    monkeypatch.setattr(consensus, "_BR_MAX_EVALS", 1)
    with pytest.raises(NonConvergenceError, match="within 1 evaluations"):
        best_response(agent, np.zeros(2), np.array([5.0, 5.0]), 1.0)


def _state(prices, z, rho=1.0):
    prices = np.asarray(prices, dtype=float)
    return ConsensusState(iteration=0, z=np.asarray(z, dtype=float), prices=prices,
                          r_primal=np.inf, r_dual=np.inf, rho=rho)


def test_coordinator_step_fixed_point():
    z = np.array([3.0, 4.0])
    state = _state(np.zeros((2, 2)), z)
    nxt = coordinator_step(state, np.tile(z, (2, 1)))
    assert np.array_equal(nxt.z, z)
    assert nxt.r_primal == 0.0
    assert np.all(nxt.prices == 0)


def test_coordinator_step_two_agent_arithmetic():
    state = _state(np.zeros((2, 2)), np.zeros(2))
    nxt = coordinator_step(state, [np.array([0.0, 0.0]), np.array([2.0, 2.0])])
    assert np.allclose(nxt.z, [1.0, 1.0])
    assert np.allclose(nxt.prices[0], [-1.0, -1.0])
    assert np.allclose(nxt.prices[1], [1.0, 1.0])
    assert nxt.r_primal == pytest.approx(np.sqrt(2.0))


def test_price_sum_is_exactly_zero_over_random_steps():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        M = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 5))
        prices = rng.normal(scale=10, size=(M, dim))
        prices[-1] = -prices[:-1].sum(axis=0)
        state = _state(prices, rng.normal(size=dim), rho=float(rng.choice([0.5, 1.0, 3.0])))
        nxt = coordinator_step(state, rng.normal(size=(M, dim)))
        assert np.all(nxt.prices.sum(axis=0) == 0.0)


def test_coordinator_step_dimension_error():
    state = _state(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(DimensionError):
        coordinator_step(state, np.zeros((3, 2)))


def reference_coordinator_step(state, responses):
    """The coordinator update written with np.mean and np.linalg.norm."""
    X = np.asarray(responses, dtype=float)
    rho = state.rho
    z_new = np.mean(X + state.prices / rho, axis=0)
    prices = state.prices + rho * (X - z_new[None, :])
    prices[-1] = -prices[:-1].sum(axis=0)
    r_primal = float(np.max(np.linalg.norm(X - z_new[None, :], axis=1), initial=0.0))
    r_dual = float(rho * np.linalg.norm(z_new - state.z))
    return z_new, prices, r_primal, r_dual


def test_coordinator_step_matches_the_numpy_reference_bit_for_bit():
    # dims from 8 on reach numpy's pairwise summation in the row norms
    rng = np.random.default_rng(97)
    for _ in range(3000):
        M = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 20))
        scale = 10.0 ** rng.integers(-3, 6)
        prices = rng.normal(scale=scale, size=(M, dim))
        prices[-1] = -prices[:-1].sum(axis=0)
        state = _state(prices, rng.uniform(0.0, scale, size=dim),
                       rho=float(rng.choice([1 / 256, 0.3, 1.0, 3.0, 64.0])))
        responses = rng.uniform(0.0, scale, size=(M, dim))
        got = coordinator_step(state, list(responses))
        z, prices, r_primal, r_dual = reference_coordinator_step(state, list(responses))
        assert got.z.tobytes() == z.tobytes()
        assert got.prices.tobytes() == prices.tobytes()
        assert (got.r_primal.hex(), got.r_dual.hex()) == (r_primal.hex(), r_dual.hex())


TOY_CONFIG = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6)


def test_toy_consensus_reaches_first_best(toy_retailer, toy_supplier):
    cfg = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, initial_plan=np.array([40.0, 60.0]))
    agents = [RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)]
    res = run_consensus(agents, cfg)
    assert res.converged
    assert np.all(np.abs(res.plan - [10.0, 90.0]) <= 0.05)
    assert joint_utility(agents, res.plan) == pytest.approx(3290.0, abs=0.5)


def test_toy_consensus_plan_beats_nearby_lattice(toy_retailer, toy_supplier):
    cfg = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, initial_plan=np.array([40.0, 60.0]))
    res = run_consensus([RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)], cfg)
    ra, sa = RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)
    plan = sa.project(ra.project(res.plan))
    joint_star = retailer_utility(toy_retailer, plan).value + supplier_utility(toy_supplier, plan).value
    for dx in range(-5, 6):
        for dy in range(-5, 6):
            cand = plan + [dx, dy]
            if np.any(cand < 0) or cand.sum() > min(sa.total_cap, ra.total_cap):
                continue
            joint = retailer_utility(toy_retailer, cand).value + supplier_utility(toy_supplier, cand).value
            assert joint_star >= joint - 0.5


def test_single_agent_consensus_is_standalone_argmax(toy_retailer):
    cfg = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, initial_plan=np.array([40.0, 60.0]))
    agent = RetailerAgent(toy_retailer)
    res = run_consensus([agent], cfg)
    assert res.converged
    assert np.all(np.abs(res.plan - [40.0, 60.0]) <= 1e-3)
    assert joint_utility([agent], res.plan) == pytest.approx(1780.0, abs=1e-6)


def test_random_bilateral_matches_centralized_lp():
    rng = np.random.default_rng(42)
    for _ in range(8):
        retailer, supplier = random_bilateral(rng)
        _, joint_lp = solve_joint_lp(retailer, supplier)
        ra, sa = RetailerAgent(retailer), SupplierAgent(supplier)
        cfg = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, adapt_rho=True,
                              initial_plan=np.zeros(retailer.n_inbound))
        res = run_consensus([ra, sa], cfg)
        plan = sa.project(ra.project(res.plan))
        joint = retailer_utility(retailer, plan).value + supplier_utility(supplier, plan).value
        assert abs(joint - joint_lp) <= 1e-3 * max(1.0, abs(joint_lp))


def test_best_response_gap_scales_with_the_utility():
    # regression, the eighth pair: a supplier utility near 3e3 with its
    # proximal objective near 0; a gap bound relative to the objective alone
    # sat below float resolution, and one best response never certified
    rng = np.random.default_rng(1)
    for _ in range(8):
        retailer, supplier = random_bilateral(rng, max_nodes=3, cover_demand=True)
    cfg = ConsensusConfig(rho=1.0, eps_abs=1e-6, eps_rel=1e-6,
                          initial_plan=standalone_plans(retailer, supplier).retailer_plan)
    agents = [RetailerAgent(retailer), SupplierAgent(supplier)]
    res = run_consensus(agents, cfg)
    assert res.converged
    _, joint_lp = solve_joint_lp(retailer, supplier)
    assert abs(joint_utility(agents, res.plan) - joint_lp) <= 1e-3 * max(1.0, abs(joint_lp))


class MinOfLines(consensus.PlanAgent):
    """Concave piecewise-linear utility ``min_k(a[k] + G[k] @ x)``."""

    def __init__(self, a, G):
        self.a, self.G, self.dim = a, G, G.shape[1]

    def evaluate(self, plan):
        k = int(np.argmin(self.a + self.G @ plan))
        return float(self.a[k] + self.G[k] @ plan), self.G[k].copy()


def test_best_response_certifies_a_large_utility_at_a_near_zero_objective():
    # the prices cancel the utility at the proposal and a stiff penalty keeps
    # the answer near it, so the objective is near 0 while u(x) and prices @ x
    # reach ~1e4 and rho * ||z||^2 ~1e7
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, K = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        agent = MinOfLines(rng.integers(-3000, 3000, size=K).astype(float),
                           rng.integers(-30, 31, size=(K, n)).astype(float))
        z = rng.integers(1, 100, size=n).astype(float)
        prices = agent.evaluate(z)[0] / float(z @ z) * z
        br = best_response(agent, prices, z, 1000.0)
        assert br.evaluations <= 10
        objective = prox_objective(agent, br.plan, prices, z, 1000.0)
        assert br.gap <= 1e-12 * (1.0 + abs(objective) + abs(agent.evaluate(br.plan)[0]))


class Counting(consensus.PlanAgent):
    """Wraps an agent and counts its utility evaluations."""

    def __init__(self, agent):
        self.agent, self.dim, self.total_cap = agent, agent.dim, agent.total_cap
        self.calls = 0

    def evaluate(self, plan):
        self.calls += 1
        return self.agent.evaluate(plan)


def test_a_run_evaluates_only_inside_its_best_responses(toy_retailer, toy_supplier,
                                                         monkeypatch):
    # regression: a run ended with one more evaluation per agent, only to fill
    # result fields that no caller read
    agents = [Counting(RetailerAgent(toy_retailer)), Counting(SupplierAgent(toy_supplier))]
    spent = {id(agent): 0 for agent in agents}

    def counted(agent, *args, **kwargs):
        br = best_response(agent, *args, **kwargs)
        spent[id(agent)] += br.evaluations
        return br

    monkeypatch.setattr(consensus, "best_response", counted)
    cfg = ConsensusConfig(eps_abs=1e-4, eps_rel=1e-4, initial_plan=np.array([40.0, 60.0]))
    assert run_consensus(agents, cfg).converged
    for agent in agents:
        assert agent.calls == spent[id(agent)] > 0


def test_an_exact_prox_answers_without_an_evaluation(toy_supplier):
    # regression: an exact prox answer was evaluated once, only to report its
    # objective
    class ExactProx(Counting):
        def prox_respond(self, prices, z, rho):
            return self.project(z - prices / rho)

    agent = ExactProx(SupplierAgent(toy_supplier))
    br = best_response(agent, np.array([4.0, -4.0]), np.array([10.0, 90.0]), 2.0)
    assert np.array_equal(br.plan, agent.project(np.array([8.0, 92.0])))
    assert (br.gap, br.evaluations, agent.calls) == (0.0, 0, 0)


def test_kept_cuts_answer_as_a_cold_best_response_within_the_certificate():
    # cuts kept from query to query still overestimate the fixed utility, so
    # each warm answer certifies its gap, and that gap covers the distance to
    # a cold answer's objective (each objective is at most the other's bound)
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, K = int(rng.integers(1, 4)), int(rng.integers(2, 8))
        agent = MinOfLines(rng.integers(-500, 500, size=K).astype(float),
                           rng.integers(-20, 21, size=(K, n)).astype(float))
        agent.total_cap = math.inf if rng.random() < 0.5 else float(rng.integers(10, 200))
        ep, cuts = LocalEndpoint(agent), CutSet()
        for it in range(1, 16):
            prices = rng.uniform(-15, 15, size=n)
            z = rng.uniform(0, 60, size=n)
            rho = float(rng.choice([0.25, 1.0, 4.0, 100.0]))
            warm = best_response(agent, prices, z, rho, cuts=cuts)
            assert np.array_equal(ep.respond(prices, z, rho, it), warm.plan)
            cold = best_response(agent, prices, z, rho)
            ours = prox_objective(agent, warm.plan, prices, z, rho)
            theirs = prox_objective(agent, cold.plan, prices, z, rho)
            scale = 1.0 + abs(ours) + abs(agent.evaluate(warm.plan)[0])
            assert warm.gap <= 1e-12 * scale
            assert theirs - ours <= warm.gap + 1e-12 * scale
            assert ours - theirs <= cold.gap + 1e-12 * scale


def test_kept_cuts_answer_most_queries_with_one_evaluation(toy_retailer, toy_supplier,
                                                          monkeypatch):
    # regression: each query started from no cuts and re-learned the same
    # fixed utility, 2.16 evaluations and master calls per best response here
    agents = [Counting(RetailerAgent(toy_retailer)), Counting(SupplierAgent(toy_supplier))]
    masters = []

    def counted(*args, **kwargs):
        masters.append(None)
        return maximize_cut_model(*args, **kwargs)

    monkeypatch.setattr(consensus, "maximize_cut_model", counted)
    cfg = ConsensusConfig(eps_abs=1e-7, eps_rel=1e-7, initial_plan=np.zeros(2))
    res = run_consensus(agents, cfg)
    assert res.converged
    responses = 2 * res.iterations
    assert sum(agent.calls for agent in agents) <= 1.2 * responses
    assert len(masters) <= 1.2 * responses


def test_residual_trend_is_nonincreasing(toy_retailer, toy_supplier):
    cfg = ConsensusConfig(eps_abs=1e-7, eps_rel=1e-7, initial_plan=np.zeros(2))
    records = []
    res = run_consensus([RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)], cfg,
                        trace=records.append)
    assert res.converged
    r_p = np.array([record["r_primal"] for record in records])
    samples = r_p[49::25]
    assert len(samples) >= 3  # long enough for the trend to be meaningful
    for earlier, later in zip(samples, samples[1:]):
        assert later <= 1.05 * earlier


def test_trace_records_are_line_delimited(toy_retailer, toy_supplier):
    buf = io.StringIO()
    cfg = ConsensusConfig(eps_abs=1e-4, eps_rel=1e-4, initial_plan=np.array([40.0, 60.0]))
    res = run_consensus([RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)], cfg,
                        trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == res.iterations
    first = json.loads(lines[0])
    assert set(first) == {"iteration", "z", "r_primal", "r_dual", "rho"}


def test_endpoint_parity_with_direct_best_response(toy_supplier):
    # a wrapped endpoint replays the exact same plans as direct solver calls
    # that share one cut set
    agent = SupplierAgent(toy_supplier)
    ep = LocalEndpoint(agent)
    rng = np.random.default_rng(3)
    cuts = CutSet()
    for it in range(1, 6):
        prices = rng.uniform(-5, 5, size=2)
        z = rng.uniform(0, 80, size=2)
        got = ep.respond(prices, z, 1.0, it)
        want = best_response(agent, prices, z, 1.0, cuts=cuts).plan
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rho", [math.inf, math.nan])
def test_a_non_finite_rho_is_a_parameter_error(toy_retailer, toy_supplier, rho):
    # rho = inf left the best response without a candidate (UnboundLocalError)
    # and rho = nan without a cut (IndexError)
    agents = [RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)]
    with pytest.raises(ParameterError, match="penalty rho must be positive"):
        run_consensus(agents, ConsensusConfig(rho=rho))
    with pytest.raises(ParameterError, match="penalty rho must be positive"):
        best_response(agents[0], np.zeros(2), np.array([10.0, 90.0]), rho)


def test_a_session_past_48_cuts_keeps_its_last_32():
    # tangent planes of a paraboloid: a session of far-apart queries touches
    # more pieces than the 48 cuts a best response holds
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 20, size=(400, 2))
    agent = MinOfLines(0.5 * (points * points).sum(axis=1), -points)
    cuts, pruned = CutSet(), []
    keep_last = cuts.keep_last

    def spy(n):
        pruned.append((len(cuts), n))
        keep_last(n)
    cuts.keep_last = spy
    for _ in range(80):
        prices, z = rng.uniform(-10, 10, size=2), rng.uniform(0, 20, size=2)
        warm = best_response(agent, prices, z, 0.1, cuts=cuts)
        assert len(cuts) <= 48
        # the pruned model still certifies its answer against a cold one
        cold = best_response(agent, prices, z, 0.1)
        ours = prox_objective(agent, warm.plan, prices, z, 0.1)
        theirs = prox_objective(agent, cold.plan, prices, z, 0.1)
        assert theirs - ours <= warm.gap + 1e-12 * (1.0 + abs(ours))
    assert pruned and set(pruned) == {(49, 32)}


@pytest.mark.parametrize("field", ["rho", "eps_abs", "eps_rel"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_consensus_number_is_a_parameter_error(field, value):
    with pytest.raises(ParameterError, match="finite"):
        ConsensusConfig(**{field: value})


@pytest.mark.parametrize("field", ["eps_abs", "eps_rel"])
def test_a_negative_consensus_tolerance_is_a_parameter_error(field):
    # regression: a negative tolerance was taken, and no run could meet it
    with pytest.raises(ParameterError, match=f"^{field} must be nonnegative$"):
        ConsensusConfig(**{field: -1e-9})
    assert getattr(ConsensusConfig(**{field: 0}), field) == 0.0


def test_run_consensus_checks_its_agents_and_its_start(toy_retailer, toy_supplier):
    agents = [RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)]
    with pytest.raises(ParameterError, match="at least one agent is required"):
        run_consensus([])
    wide = MinOfLines(np.zeros(1), np.zeros((1, 3)))
    with pytest.raises(DimensionError, match=r"agents disagree on plan dimension: \[2, 3\]"):
        run_consensus([*agents, wide])
    with pytest.raises(DimensionError, match="initial plan has the wrong dimension"):
        run_consensus(agents, ConsensusConfig(initial_plan=[1.0, 2.0, 3.0]))
    with pytest.raises(DimensionError, match="initial prices have the wrong shape"):
        run_consensus(agents, ConsensusConfig(initial_prices=np.zeros((3, 2))))


FEES = [FeePolicy.none(), FeePolicy.additive(30.0), FeePolicy.multiplicative(0.2),
        FeePolicy.roi(0.2), FeePolicy.linear_deviation(5.0, 2.0)]


@pytest.mark.parametrize("fee", FEES, ids=lambda fee: fee.variant)
def test_a_certified_answer_is_an_uncertified_one_within_the_certificate(toy_retailer,
                                                                         toy_supplier, fee,
                                                                         monkeypatch):
    # each answer of a consensus run, whose agents certify kept cuts, against
    # a cold answer of the same agent wrapped so that it cannot certify: each
    # objective is at most the other's bound, and most answers are certified
    real = consensus.best_response
    answers = []

    def compared(agent, prices, z, rho, cuts=None):
        warm = real(agent, prices, z, rho, cuts=cuts)
        cold = real(Counting(agent), prices, z, rho)
        ours = prox_objective(agent, warm.plan, prices, z, rho)
        theirs = prox_objective(agent, cold.plan, prices, z, rho)
        scale = 1.0 + abs(ours) + abs(agent.evaluate(warm.plan)[0])
        assert warm.gap <= 1e-12 * scale
        assert theirs - ours <= warm.gap + 1e-12 * scale
        assert ours - theirs <= cold.gap + 1e-12 * scale
        answers.append(warm.evaluations)
        return warm

    monkeypatch.setattr(consensus, "best_response", compared)
    rng = np.random.default_rng(3)
    pairs = [(toy_retailer, toy_supplier)]
    pairs += [random_bilateral(rng, max_nodes=3, cover_demand=True) for _ in range(2)]
    for retailer, supplier in pairs:
        mechanism.consensus_plan(retailer, supplier, fee=fee)
    assert answers.count(0) >= 0.8 * len(answers)


def test_a_kept_basis_answers_most_best_responses(toy_retailer, toy_supplier, monkeypatch):
    # pins the certificate check on: with it, toy and these pairs make
    # 0.01-0.04 evaluations per best response; without it, at least one
    real = consensus.best_response
    evaluations = []

    def counted(*args, **kwargs):
        br = real(*args, **kwargs)
        evaluations.append(br.evaluations)
        return br

    monkeypatch.setattr(consensus, "best_response", counted)
    rng = np.random.default_rng(0)
    pairs = [(toy_retailer, toy_supplier)]
    pairs += [random_bilateral(rng, max_nodes=3, cover_demand=True) for _ in range(6)]
    for retailer, supplier in pairs:
        mechanism.consensus_plan(retailer, supplier)
    assert sum(evaluations) <= 0.2 * len(evaluations)
    assert evaluations.count(0) >= 0.8 * len(evaluations)


def test_a_plan_the_utility_rejects_is_never_certified(toy_supplier, toy_retailer):
    # a hit must not hide a fault: past capacity, or with a negative entry,
    # the basis is not asked and the cold evaluation raises as before
    supplier = SupplierAgent(toy_supplier)
    _, _, basis = supplier.evaluate([50.0, 60.0])   # at capacity, 110
    past = [50.0, 60.001]
    assert transport.basis_holds(basis, toy_supplier.capacities.tolist(), past, slack=False)
    assert not supplier.holds(basis, past)
    with pytest.raises(InfeasibleError):
        supplier.evaluate(past)
    retailer = RetailerAgent(toy_retailer)
    _, _, basis = retailer.evaluate([40.0, 60.0])
    assert retailer.holds(basis, [40.0, 60.0])
    for agent, cert in ((retailer, basis), (supplier, supplier.evaluate([40.0, 60.0])[2])):
        assert not agent.holds(cert, [-1.0, 60.0])
        with pytest.raises(ParameterError):
            agent.evaluate([-1.0, 60.0])

    # and a best response whose master, uncapped, lands past capacity
    # evaluates there and raises
    supplier.total_cap = math.inf
    cuts, x = CutSet(), np.array([50.0, 60.0])
    value, grad, cert = supplier.evaluate(x)
    cuts.add(value - float(grad @ x), grad, cert)
    with pytest.raises(InfeasibleError):
        best_response(supplier, np.full(2, -1000.0), x, 1.0, cuts=cuts)
