import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import prox_objective
from coplan import dynamic
from coplan.consensus import PlanAgent, best_response
from coplan.dynamic import (
    DEFAULT_DYNAMIC_CONFIG,
    DynamicRetailerAgent,
    DynamicSupplierAgent,
    InventoryModel,
    RollingState,
    cbt,
    commitment_baseline,
    coordinated_plan,
    jit_policy,
    joint_flow_utility,
    retailer_flow_utility,
    roll_forward,
    simulate,
    supplier_flow_utility,
    _retailer_pieces,
)
from coplan.errors import ParameterError


def independent_retailer_total(model, orders, week, on_hand):
    """Step-by-step scalar simulation, written separately from the library."""
    total = 0.0
    on = on_hand
    for idx, t in enumerate(range(week, min(week + model.horizon, model.n_weeks))):
        f = model.forecasts[t]
        have = on + orders[idx]
        sold = f if have >= f else have
        left = have - sold
        total += model.retailer_margin * sold
        total -= model.holding_cost * left
        total -= model.lost_sales_cost * (f - sold)
        on = left
    return total


def independent_supplier_total(model, orders, last_order):
    total = 0.0
    prev = last_order
    for q in orders:
        total += model.supplier_margin * q
        total -= model.smoothing_cost * (q - prev) ** 2
        prev = q
    return total


def brute_force_joint(model, state, max_order):
    """Exhaustive joint maximization over integer order sequences."""
    window = model.window(state.week)
    cap = max(model.forecasts[window].sum() - state.on_hand, 0.0)
    best, best_orders = -np.inf, None
    for orders in itertools.product(range(max_order + 1), repeat=window.size):
        if sum(orders) > cap + 1e-9:
            continue
        seq = np.asarray(orders, dtype=float)
        val = (independent_retailer_total(model, seq, state.week, state.on_hand)
               + independent_supplier_total(model, seq, state.last_order))
        if val > best:
            best, best_orders = val, seq
    return best_orders, best


def small_model(**kw):
    defaults = dict(forecasts=[8.0, 12.0, 6.0], holding_cost=1.0, lost_sales_cost=9.0,
                    retailer_margin=10.0, supplier_margin=3.0, smoothing_cost=0.5,
                    horizon=3)
    defaults.update(kw)
    return InventoryModel(**defaults)


def test_jit_policy_zero_when_stocked():
    model = small_model(forecasts=[0.0, 0.0, 0.0])
    state = model.initial_state(on_hand=5.0)
    assert np.all(jit_policy(model, state) == 0.0)


def test_jit_policy_stationary_order_up_to():
    model = InventoryModel(forecasts=[10.0] * 6, horizon=6)
    state = model.initial_state()
    assert np.allclose(jit_policy(model, state), 10.0)


def test_jit_policy_maximizes_flow_utility():
    rng = np.random.default_rng(3)
    for _ in range(8):
        model = small_model(forecasts=rng.integers(0, 12, size=3).astype(float),
                            holding_cost=float(rng.uniform(0.2, 2.0)),
                            lost_sales_cost=float(rng.uniform(3.0, 12.0)),
                            retailer_margin=float(rng.uniform(4.0, 12.0)))
        state = model.initial_state(on_hand=float(rng.integers(0, 5)))
        jit = jit_policy(model, state)
        assert np.array_equal(commitment_baseline(model, state), jit)
        _, jit_total = retailer_flow_utility(model, jit, state)
        best = -np.inf
        for orders in itertools.product(range(14), repeat=3):
            best = max(best, independent_retailer_total(model, np.asarray(orders, float),
                                                        0, state.on_hand))
        assert jit_total >= best - 1e-9


def test_flow_utility_trivial_cases():
    model = small_model(forecasts=[0.0, 0.0, 0.0])
    state = model.initial_state()
    assert retailer_flow_utility(model, np.zeros(3), state)[1] == 0.0

    model = InventoryModel(forecasts=[10.0, 10.0], horizon=2, retailer_margin=7.0)
    state = model.initial_state()
    weekly, total = retailer_flow_utility(model, np.array([10.0, 10.0]), state)
    assert total == pytest.approx(7.0 * 20.0)
    assert np.allclose(weekly, 70.0)


def test_flow_utility_matches_independent_simulation():
    rng = np.random.default_rng(11)
    for _ in range(30):
        model = small_model(forecasts=rng.uniform(0, 15, size=3))
        state = model.initial_state(on_hand=float(rng.uniform(0, 6)),
                                    last_order=float(rng.uniform(0, 10)))
        orders = rng.uniform(0, 15, size=3)
        _, total = retailer_flow_utility(model, orders, state)
        assert total == pytest.approx(
            independent_retailer_total(model, orders, 0, state.on_hand), abs=1e-9)
        _, s_total = supplier_flow_utility(model, orders, state)
        assert s_total == pytest.approx(
            independent_supplier_total(model, orders, state.last_order), abs=1e-9)


def test_agents_evaluate_the_flow_utilities():
    rng = np.random.default_rng(5)
    for _ in range(40):
        model = small_model(forecasts=rng.uniform(0, 15, size=3),
                            holding_cost=float(rng.uniform(0.2, 2.0)),
                            smoothing_cost=float(rng.uniform(0.0, 2.0)))
        state = model.initial_state(on_hand=float(rng.uniform(0, 6)),
                                    last_order=float(rng.uniform(0, 10)))
        for n_fixed in (0, 1, 2):
            prefix = rng.uniform(0, 15, size=n_fixed)
            retailer = DynamicRetailerAgent(model, state, prefix)
            supplier = DynamicSupplierAgent(model, state, prefix)
            plan = rng.uniform(0, 15, size=3 - n_fixed)
            orders = np.concatenate([prefix, plan])
            value, grad = retailer.evaluate(plan)
            assert value == retailer_flow_utility(model, orders, state)[1]
            assert supplier.evaluate(plan)[0] == supplier_flow_utility(model, orders, state)[1]
            # supergradient of the concave retailer total: a global overestimate
            for _ in range(10):
                other = rng.uniform(0, 15, size=plan.size)
                assert retailer.evaluate(other)[0] <= value + grad @ (other - plan) + 1e-9


def test_coordinated_plan_equals_jit_when_supplier_indifferent():
    model = small_model(smoothing_cost=0.0)
    state = model.initial_state()
    plan = coordinated_plan(model, state)
    jit = jit_policy(model, state)
    assert np.all(np.abs(plan.orders - jit) <= 1e-3)


def test_coordinated_plan_smooths_orders_with_expensive_changes():
    model = small_model(forecasts=[2.0, 14.0, 2.0], smoothing_cost=5.0,
                        holding_cost=0.5, lost_sales_cost=6.0, retailer_margin=8.0)
    state = model.initial_state()
    plan = coordinated_plan(model, state)
    jit = jit_policy(model, state)
    assert np.std(plan.orders) < np.std(jit)
    brute_orders, brute_val = brute_force_joint(model, state, max_order=18)
    assert joint_flow_utility(model, plan.orders, state) >= brute_val - 1e-6


def test_coordinated_plan_dominates_jit_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        model = small_model(forecasts=rng.uniform(0, 15, size=3),
                            smoothing_cost=float(rng.uniform(0.0, 2.0)),
                            supplier_margin=float(rng.uniform(0.5, 5.0)))
        state = model.initial_state(on_hand=float(rng.uniform(0, 4)))
        plan = coordinated_plan(model, state)
        jit = jit_policy(model, state)
        assert joint_flow_utility(model, plan.orders, state) >= \
            joint_flow_utility(model, jit, state) - 1e-12


def test_cbt_one_week_zero_when_plan_matches_jit():
    model = small_model()
    state = model.initial_state()
    jit = jit_policy(model, state)
    assert cbt(model, state, jit) == pytest.approx(0.0, abs=1e-12)


def test_cbt_one_week_matches_direct_formula():
    model = InventoryModel(forecasts=[10.0, 10.0], horizon=2)
    state = model.initial_state()
    jit = jit_policy(model, state)
    plan = jit.copy()
    plan[0] += 5.0
    got = cbt(model, state, plan)
    free = independent_retailer_total(model, jit, 0, 0.0)
    pinned = np.array([plan[0], max(10.0 - 5.0, 0.0)])
    conditioned = independent_retailer_total(model, pinned, 0, 0.0)
    assert got == pytest.approx(free - conditioned, abs=1e-9)
    assert got > 0


def test_cbt_one_week_never_negative_on_random_weeks():
    rng = np.random.default_rng(31)
    for _ in range(100):
        model = small_model(forecasts=rng.uniform(0, 15, size=3),
                            holding_cost=float(rng.uniform(0, 2)),
                            lost_sales_cost=float(rng.uniform(2, 10)))
        state = model.initial_state(on_hand=float(rng.uniform(0, 5)))
        plan = rng.uniform(0, 15, size=3)
        assert cbt(model, state, plan) >= -1e-6


def test_cbt_full_horizon_zero_for_jit_plan():
    model = small_model()
    state = model.initial_state(mode="full-horizon")
    jit = jit_policy(model, state)
    assert cbt(model, state, jit) == pytest.approx(0.0, abs=1e-12)


def test_cbt_full_horizon_zero_when_plan_of_record_is_kept():
    model = small_model()
    state = model.initial_state(mode="full-horizon")
    state, _ = roll_forward(model, state, realized_demand=8.0,
                            plan=np.array([9.0, 11.0, 7.0]))
    baseline = commitment_baseline(model, state)
    assert np.allclose(baseline, [11.0, 7.0])
    assert cbt(model, state, baseline) == 0.0


def test_cbt_full_horizon_pays_for_a_changed_appended_week():
    model = InventoryModel(forecasts=[6.0, 14.0, 3.0, 9.0], horizon=3)
    state = model.initial_state(mode="full-horizon")
    state, _ = roll_forward(model, state, realized_demand=8.0,
                            plan=np.array([9.0, 11.0, 7.0]))
    # 1 unit left; the plan of record [11, 7] ends week 3 with 4 units, so
    # the retailer alone would order 9 - 4 = 5 in the appended week
    baseline = np.array([11.0, 7.0, 5.0])
    plan = np.array([11.0, 7.0, 8.0])
    expected = (independent_retailer_total(model, baseline, 1, 1.0)
                - independent_retailer_total(model, plan, 1, 1.0))
    assert expected == 3.0   # 3 more units held at $1
    assert cbt(model, state, plan) == pytest.approx(expected, abs=1e-12)
    _, rec = roll_forward(model, state, realized_demand=14.0, plan=plan)
    assert rec.cbt == pytest.approx(expected, abs=1e-12)

    rng = np.random.default_rng(47)
    for _ in range(50):
        model = small_model(forecasts=rng.uniform(0, 15, size=4),
                            holding_cost=float(rng.uniform(0.2, 2.0)),
                            lost_sales_cost=float(rng.uniform(2.0, 10.0)))
        state = model.initial_state(mode="full-horizon", on_hand=float(rng.uniform(0, 5)))
        state, _ = roll_forward(model, state, float(rng.uniform(0, 15)),
                                rng.uniform(0, 15, size=3))
        committed = list(state.plan_of_record)
        on = state.on_hand
        for t, q in zip(range(1, 3), committed):
            on = max(on + q - model.forecasts[t], 0.0)
        baseline = np.array(committed + [max(model.forecasts[3] - on, 0.0)])
        plan = np.array(committed + [float(rng.uniform(0, 15))])
        expected = (independent_retailer_total(model, baseline, 1, state.on_hand)
                    - independent_retailer_total(model, plan, 1, state.on_hand))
        assert cbt(model, state, plan) == pytest.approx(expected, abs=1e-9)
        assert expected >= -1e-9


def test_roll_forward_trivial_and_inventory_balance():
    model = small_model(forecasts=[0.0, 0.0, 0.0])
    state = model.initial_state()
    state2, rec = roll_forward(model, state, realized_demand=0.0, plan=np.zeros(3))
    assert rec.cbt == 0.0
    assert rec.end_inventory == 0.0
    rng = np.random.default_rng(41)
    model = small_model(forecasts=rng.uniform(2, 12, size=3))
    records, final = simulate(model, rng.uniform(0, 14, size=3))
    on = 0.0
    for rec in records:
        assert rec.end_inventory == pytest.approx(on + rec.order - rec.sales, abs=1e-12)
        on = rec.end_inventory
    assert final.on_hand == pytest.approx(on)


def test_simulation_cumulative_cbt_sums_weekly_payments():
    rng = np.random.default_rng(43)
    model = small_model(forecasts=rng.uniform(2, 12, size=3))
    records, final = simulate(model, rng.uniform(0, 14, size=3))
    assert final.cumulative_cbt == pytest.approx(sum(r.cbt for r in records))
    assert all(r.cbt >= -1e-9 for r in records)


def test_full_horizon_frozen_forecasts_zero_cbt_after_first_week():
    model = InventoryModel(forecasts=[9.0, 4.0, 11.0, 6.0], horizon=4, smoothing_cost=1.0)
    records, _ = simulate(model, model.forecasts, mode="full-horizon")
    assert records[0].cbt >= -1e-9
    for rec in records[1:]:
        assert rec.cbt == 0.0


def test_modes_agree_on_single_week_windows():
    model = small_model(horizon=1)
    demand = np.array([7.0, 11.0, 5.0])
    rec_none, _ = simulate(model, demand, mode="none")
    rec_full, _ = simulate(model, demand, mode="full-horizon")
    for a, b in zip(rec_none, rec_full):
        assert a.cbt == pytest.approx(b.cbt, abs=1e-9)
        assert a.order == pytest.approx(b.order, abs=1e-9)


def test_three_week_rolls_match_hand_rolled_formulas():
    model = small_model(forecasts=[9.0, 13.0, 5.0], smoothing_cost=1.5)
    demand = np.array([8.0, 12.0, 6.0])
    # mode none: re-derive each week's payment from scratch
    state = model.initial_state()
    records, _ = simulate(model, demand, mode="none")
    on = 0.0
    last = 0.0
    for week, rec in enumerate(records):
        window = range(week, min(week + 3, 3))
        f = [model.forecasts[t] for t in window]
        # free order-up-to plan
        free, inv = [], on
        for ft in f:
            q = max(ft - inv, 0.0)
            free.append(q)
            inv = max(inv + q - ft, 0.0)
        free_total = independent_retailer_total(model, np.asarray(free), week, on)
        pinned, inv = [rec.order], max(on + rec.order - f[0], 0.0)
        for ft in f[1:]:
            q = max(ft - inv, 0.0)
            pinned.append(q)
            inv = max(inv + q - ft, 0.0)
        pinned_total = independent_retailer_total(model, np.asarray(pinned), week, on)
        assert rec.cbt == pytest.approx(free_total - pinned_total, abs=1e-6)
        on = max(on + rec.order - demand[week], 0.0)
        last = rec.order


def test_model_validation():
    with pytest.raises(ParameterError):
        InventoryModel(forecasts=[1.0], horizon=0)
    with pytest.raises(ParameterError):
        InventoryModel(forecasts=[-1.0])
    with pytest.raises(ParameterError):
        InventoryModel(forecasts=[1.0], holding_cost=-0.5)
    with pytest.raises(ParameterError):
        small_model().initial_state(mode="weekly")


def test_full_horizon_with_rolling_appended_weeks():
    # episode longer than the planning window: committed weeks stay binding,
    # each roll appends one freely coordinated week
    model = InventoryModel(forecasts=[6.0, 14.0, 3.0, 9.0, 12.0, 5.0, 8.0, 10.0],
                           horizon=3, smoothing_cost=1.5, supplier_margin=2.0)
    state = model.initial_state(mode="full-horizon")
    records, final = simulate(model, model.forecasts, mode="full-horizon")
    assert len(records) == 8
    for rec in records:
        # committed prefix + conditionally optimal appended baseline means the
        # retailer never loses from honoring the agreement
        assert rec.cbt >= -1e-9
    # the plan of record is honored: week k+1's first order equals the prior
    # week's second committed order whenever the window was full
    for prev, cur in zip(records, records[1:]):
        if len(prev.coordinated_orders) >= 2 and len(cur.coordinated_orders) == len(prev.coordinated_orders):
            assert cur.order == pytest.approx(prev.coordinated_orders[1], abs=1e-9)


def test_tie_breaking_is_deterministic_across_runs():
    model = small_model(forecasts=[5.0, 5.0, 5.0], smoothing_cost=0.0,
                        supplier_margin=0.0)
    state = model.initial_state()
    a = coordinated_plan(model, state).orders
    b = coordinated_plan(model, state).orders
    assert np.array_equal(a, b)


def random_window(rng, weeks):
    """A model, a state with stock on hand and a committed prefix of random
    length, over a window of ``weeks`` weeks."""
    model = InventoryModel(forecasts=rng.uniform(2.0, 20.0, size=weeks + 2),
                           holding_cost=float(rng.uniform(0.2, 2.0)),
                           lost_sales_cost=float(rng.uniform(3.0, 12.0)),
                           retailer_margin=float(rng.uniform(4.0, 12.0)),
                           horizon=weeks)
    state = RollingState(week=int(rng.integers(0, 3)), on_hand=float(rng.uniform(0.0, 25.0)),
                         last_order=0.0, plan_of_record=None, cumulative_cbt=0.0,
                         mode="none")
    prefix = rng.uniform(0.0, 25.0, size=int(rng.integers(0, weeks)))
    return model, state, prefix


def test_retailer_pieces_take_the_rolled_total_as_their_minimum():
    rng = np.random.default_rng(61)
    for _ in range(150):
        model, state, prefix = random_window(rng, int(rng.integers(1, 7)))
        free = model.window(state.week).size - prefix.size
        pieces = _retailer_pieces(model, state, prefix)
        offsets, grads = pieces.offsets, pieces.grads
        assert offsets.size <= 2 ** free
        for _ in range(20):
            # zero orders now and then, so stock-outs and exact boundaries occur
            plan = rng.uniform(0.0, 40.0, size=free) * (rng.random(free) < 0.8)
            _, total = retailer_flow_utility(model, np.concatenate([prefix, plan]), state)
            model_min = float(np.min(offsets + grads @ plan))
            assert abs(model_min - total) <= 1e-9 * max(1.0, abs(total))


class CuttingPlaneOnly(PlanAgent):
    """The same utility without ``prox_respond``: best responses go through
    the cutting-plane loop."""

    def __init__(self, agent):
        self.agent = agent
        self.dim = agent.dim
        self.total_cap = agent.total_cap

    def evaluate(self, plan):
        return self.agent.evaluate(plan)


def test_exact_retailer_prox_matches_cutting_plane():
    rng = np.random.default_rng(67)
    for _ in range(60):
        model, state, prefix = random_window(rng, int(rng.integers(1, 7)))
        agent = DynamicRetailerAgent(model, state, prefix)
        z = rng.uniform(0.0, 20.0, size=agent.dim)
        prices = rng.normal(0.0, 5.0, size=agent.dim)
        rho = float(rng.choice([0.5, 3.0, 12.0]))
        exact = best_response(agent, prices, z, rho)
        cut = best_response(CuttingPlaneOnly(agent), prices, z, rho)
        assert np.all(exact.plan >= 0.0)
        assert exact.plan.sum() <= agent.total_cap + 1e-9
        # the cutting-plane objective is within its certified gap of the optimum
        exact_objective = prox_objective(agent, exact.plan, prices, z, rho)
        cut_objective = prox_objective(agent, cut.plan, prices, z, rho)
        tol = cut.gap + 1e-9 * (1.0 + abs(cut_objective))
        assert abs(exact_objective - cut_objective) <= tol


def test_wide_windows_keep_the_cutting_plane_response():
    model = InventoryModel(forecasts=[9.0, 4.0, 11.0, 6.0, 13.0, 7.0, 5.0, 12.0, 8.0, 10.0,
                                      6.0, 11.0, 7.0, 9.0],
                           horizon=13, smoothing_cost=0.8, supplier_margin=2.5)
    state = model.initial_state()
    assert DynamicRetailerAgent(model, state).prox_respond is None      # 13 free weeks
    committed = [9.0] * (13 - dynamic._EXACT_PROX_MAX_WEEKS)
    assert DynamicRetailerAgent(model, state, prefix=committed).prox_respond is not None
    demand = np.array([8.0, 6.0, 12.0, 5.0, 14.0, 6.0, 4.0, 13.0, 9.0, 9.0, 7.0, 10.0, 6.0, 8.0])
    records, final = simulate(model, demand, mode="none")
    assert len(records) == 14
    assert final.cumulative_cbt == pytest.approx(sum(r.cbt for r in records))
    for rec in records:
        assert rec.cbt >= -1e-6
        assert rec.joint_total_plan >= rec.joint_total_jit - 1e-9
    records, _ = simulate(model, model.forecasts, mode="full-horizon")
    for rec in records[1:]:
        assert rec.cbt == 0.0


def test_supplier_prox_after_a_penalty_change_matches_a_fresh_agent():
    # the prox keeps its Hessian per rho, which may not change the answer
    rng = np.random.default_rng(71)
    for _ in range(60):
        model, state, prefix = random_window(rng, int(rng.integers(1, 7)))
        model = replace(model, smoothing_cost=float(rng.uniform(0.05, 2.0)),
                        supplier_margin=float(rng.uniform(0.5, 5.0)))
        agent = DynamicSupplierAgent(model, state, prefix)
        rho = float(rng.choice([0.5, 3.0, 12.0]))
        for _ in range(6):
            if rng.random() < 0.4:
                rho *= float(rng.choice([0.5, 2.0]))
            # prices large enough that some bounds bind
            prices = rng.normal(0.0, 15.0, size=agent.dim)
            z = rng.uniform(0.0, 20.0, size=agent.dim)
            got = agent.prox_respond(prices, z, rho)
            want = DynamicSupplierAgent(model, state, prefix).prox_respond(prices, z, rho)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def full_pinning_prox(agent, pinned, prices, z, rho):
    """The supplier's prox by the pinning loop without its early exit: every
    settled solve is checked for bounds to release.  Returns the answer and
    the bounds pinned at the end."""
    n, kappa = agent.dim, agent.model.smoothing_cost
    diag = np.full(n, rho + 4.0 * kappa)
    diag[-1] = rho + 2.0 * kappa
    H = np.diag(diag) - 2.0 * kappa * (np.eye(n, k=1) + np.eye(n, k=-1))
    b = agent.model.supplier_margin - prices + rho * z
    b[0] += 2.0 * kappa * (float(agent.prefix[-1]) if agent.prefix.size
                           else agent.state.last_order)
    pinned = pinned.copy()
    for _ in range(4 * n + 8):
        y = np.zeros(n)
        free = ~pinned
        if free.all():
            y = np.linalg.solve(H, b)
        elif free.any():
            y[free] = np.linalg.solve(H[np.ix_(free, free)], b[free])
        if y.min() < -1e-12:
            pinned |= y < -1e-12
            continue
        release = pinned & (b - H @ y > 1e-12)
        if not release.any():
            return np.maximum(y, 0.0), pinned
        pinned &= ~release
    raise AssertionError("the pinning loop did not settle")


def test_supplier_prox_matches_the_full_pinning_loop_bit_for_bit():
    rng = np.random.default_rng(73)
    pins = releases = 0
    for k in range(80):
        model, state, prefix = random_window(rng, int(rng.integers(1, 9)))
        # every fifth window has no smoothing cost, so a diagonal Hessian
        model = replace(model, smoothing_cost=float(rng.uniform(0.05, 2.0)) * (k % 5 > 0),
                        supplier_margin=float(rng.uniform(0.5, 5.0)))
        agent = DynamicSupplierAgent(model, state, prefix)
        pinned = np.zeros(agent.dim, dtype=bool)
        rho = float(rng.choice([0.5, 3.0, 12.0]))
        for _ in range(8):
            if rng.random() < 0.3:
                rho *= float(rng.choice([0.5, 2.0]))
            # prices now small, now large enough that bounds bind
            prices = rng.normal(0.0, float(rng.choice([0.5, 15.0])), size=agent.dim)
            z = rng.uniform(0.0, 20.0, size=agent.dim)
            got = agent.prox_respond(prices, z, rho)
            want, now_pinned = full_pinning_prox(agent, pinned, prices, z, rho)
            assert got.tobytes() == want.tobytes()
            pins += int(now_pinned.any())
            releases += int((pinned & ~now_pinned).any())
            pinned = now_pinned
    assert pins >= 30 and releases >= 20  # 50 and 39 with this seed


def test_a_window_just_past_the_exact_prox_limit_agrees_with_the_exact_prox(monkeypatch):
    weeks = dynamic._EXACT_PROX_MAX_WEEKS + 1
    rng = np.random.default_rng(79)
    model = InventoryModel(forecasts=rng.uniform(2.0, 20.0, size=weeks + 2), horizon=weeks,
                           smoothing_cost=0.8)
    state = model.initial_state(on_hand=6.0)
    assert DynamicRetailerAgent(model, state).prox_respond is None
    cutting_plane = coordinated_plan(model, state)
    monkeypatch.setattr(dynamic, "_EXACT_PROX_MAX_WEEKS", weeks)
    assert DynamicRetailerAgent(model, state).prox_respond is not None
    exact = coordinated_plan(model, state)
    assert cutting_plane.converged and exact.converged
    cfg = DEFAULT_DYNAMIC_CONFIG
    tol = cfg.eps_abs + cfg.eps_rel * np.linalg.norm(exact.orders)
    assert np.abs(cutting_plane.orders - exact.orders).max() <= tol


@pytest.mark.parametrize("field, value", [
    ("holding_cost", float("nan")), ("lost_sales_cost", float("inf")),
    ("retailer_margin", float("nan")), ("supplier_margin", float("-inf")),
    ("smoothing_cost", float("inf")), ("forecasts", [5.0, float("nan")]),
])
def test_a_non_finite_inventory_number_is_a_parameter_error(field, value):
    fields = {"forecasts": [5.0, 5.0], field: value}
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        InventoryModel(**fields)


def test_simulate_rejects_negative_demand_and_stock():
    # regression: both ran; a demand of -1 sold -1 unit
    model = InventoryModel(forecasts=[5.0, 5.0], horizon=2)
    with pytest.raises(ParameterError, match="realized demand"):
        simulate(model, [-1.0, 5.0])
    with pytest.raises(ParameterError, match="starting inventory"):
        simulate(model, [5.0, 5.0], on_hand=-5.0)
