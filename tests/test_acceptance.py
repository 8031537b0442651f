"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line with its runtime.  Tolerances are pinned here, not configurable."""

import time
from dataclasses import replace

import numpy as np

from conftest import enumerate_min_cost, joint_utility, random_bilateral, solve_joint_lp
from coplan.consensus import ConsensusConfig, RetailerAgent, SupplierAgent, run_consensus
from coplan.dynamic import (
    InventoryModel,
    cbt,
    simulate,
)
from coplan.errors import ParseError
from coplan.mechanism import (
    FeePolicy,
    budget_balance_check,
    build_menu,
    efficient_plan,
    standalone_plans,
    supplier_choose,
    vcg_transfers,
)
from coplan.protocol import AgentServer, RemoteAgent, decode
from coplan.reports import run
from coplan.scenario import load_scenario
from coplan.transport import (
    SupplierSpec,
    retailer_utility,
    solve_transport,
    supplier_utility,
)


def _report(number, title, started, budget):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"\nACCEPTANCE {number} {verdict} ({elapsed:.2f}s / budget {budget:.0f}s): {title}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime budget"


def cents(x):
    return round(x * 100) / 100


def test_acceptance_1_toy_regression():
    started = time.perf_counter()
    toy = load_scenario("toy")
    report = run(toy, analyses=["jit", "firstbest", "vcg", "menu"]).machine

    assert cents(report["jit"]["retailer_cost"]) == 220.00
    assert cents(report["jit"]["supplier_cost"]) == 610.00
    assert cents(report["jit"]["total_cost"]) == 830.00
    assert np.allclose(report["firstbest"]["plan"], [10.0, 90.0], atol=1e-9)
    assert cents(report["firstbest"]["total_cost"]) == 710.00
    assert cents(report["firstbest"]["gain"]) == 120.00
    assert abs(report["firstbest"]["cost_reduction_pct"] - 14.46) < 0.1

    status_quo = standalone_plans(toy.retailer, toy.supplier)
    plan = efficient_plan(toy.retailer, toy.supplier)
    for alpha in (0.0, 25.0, 50.0, 119.0):
        fee = FeePolicy.additive(alpha) if alpha else FeePolicy.none()
        settlement = vcg_transfers(toy.retailer, toy.supplier, status_quo, plan, fee)
        assert cents(settlement.transfer_supplier) == cents(30.0 + alpha)
    assert cents(report["vcg"]["transfer_supplier"]) == 80.00
    assert cents(report["vcg"]["supplier_surplus"]) == 70.00
    assert cents(report["vcg"]["retailer_surplus"]) == 50.00
    _report(1, "toy-example regression, exact to the cent", started, 1.0)


def test_acceptance_2_menu_regression():
    started = time.perf_counter()
    toy = load_scenario("toy")
    status_quo = standalone_plans(toy.retailer, toy.supplier)
    menu = build_menu(toy.retailer, status_quo, toy.menu_plans, alpha=50.0)
    assert [cents(f) for f in menu.fees] == [60.00, 70.00, 80.00, 90.00]
    reservation = supplier_utility(toy.supplier, status_quo.supplier_plan).value
    choice = supplier_choose(toy.supplier, menu, reservation=reservation)
    assert [cents(v) for v in choice.option_alpha_nets] == [1390.00, 1440.00, 1490.00, 1480.00]
    assert choice.accepted and choice.index == 2
    assert np.allclose(choice.plan, [10.0, 90.0])
    _report(2, "menu of contracts regression, exact to the cent", started, 1.0)


def test_acceptance_3_consensus_matches_centralized():
    started = time.perf_counter()
    budget_per_instance = 10.0

    toy = load_scenario("toy")
    t0 = time.perf_counter()
    cfg = replace(toy.consensus, initial_plan=np.array([40.0, 60.0]))
    agents = [RetailerAgent(toy.retailer), SupplierAgent(toy.supplier)]
    res = run_consensus(agents, cfg)
    assert time.perf_counter() - t0 < budget_per_instance
    assert np.all(np.abs(res.plan - [10.0, 90.0]) <= 0.05)
    _, toy_joint_lp = solve_joint_lp(toy.retailer, toy.supplier)
    assert abs(joint_utility(agents, res.plan) - toy_joint_lp) <= 1e-3 * abs(toy_joint_lp)

    rng = np.random.default_rng(2024)
    for _ in range(20):
        retailer, supplier = random_bilateral(rng, max_nodes=5)
        t0 = time.perf_counter()
        _, joint_lp = solve_joint_lp(retailer, supplier)
        ra, sa = RetailerAgent(retailer), SupplierAgent(supplier)
        cfg = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, adapt_rho=True,
                              initial_plan=np.zeros(retailer.n_inbound))
        out = run_consensus([ra, sa], cfg)
        plan = sa.project(ra.project(out.plan))
        joint = retailer_utility(retailer, plan).value + supplier_utility(supplier, plan).value
        assert abs(joint - joint_lp) <= 1e-3 * max(1.0, abs(joint_lp))
        assert time.perf_counter() - t0 < budget_per_instance
    _report(3, "consensus joint utility within 1e-3 of the centralized LP "
               "on the worked example and 20 random instances", started, 215.0)


def test_acceptance_4_mechanism_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(4096)
    for _ in range(200):
        retailer, supplier = random_bilateral(rng, max_nodes=4, cover_demand=True)
        status_quo = standalone_plans(retailer, supplier)
        plan = efficient_plan(retailer, supplier)
        settlement = vcg_transfers(retailer, supplier, status_quo, plan)
        joint_star = settlement.retailer_value_plan + settlement.supplier_value_plan
        joint_sq = (settlement.retailer_value_standalone
                    + settlement.supplier_value_standalone)

        # (a) budget sign agrees with the complements condition
        diag = budget_balance_check(settlement)
        if joint_star > joint_sq + 1e-6:
            assert diag.total <= 1e-6
        elif joint_star < joint_sq - 1e-6:
            assert diag.total >= -1e-6

        # (c) coordination gain is nonnegative
        assert settlement.gain >= -1e-6

        # (b) participation under a fee at most the gain
        alpha = 0.5 * max(settlement.gain, 0.0)
        feed = vcg_transfers(retailer, supplier, status_quo, plan, FeePolicy.additive(alpha))
        assert feed.supplier_value_plan - feed.transfer_supplier >= \
            feed.supplier_value_standalone - 1e-6

        # (d) a flat fee never moves the efficient plan
        boosted = efficient_plan(retailer, supplier, fee=FeePolicy.additive(123.0))
        ja = retailer_utility(retailer, plan).value + supplier_utility(supplier, plan).value
        jb = (retailer_utility(retailer, boosted).value
              + supplier_utility(supplier, boosted).value)
        assert abs(ja - jb) <= 1e-6 * (1.0 + abs(ja))

        # (e) no supplier misreport improves its true net outcome
        truthful_net = settlement.supplier_value_plan - settlement.transfer_supplier
        for _ in range(20):
            fake = SupplierSpec(
                capacities=supplier.capacities * rng.uniform(0.5, 1.5,
                                                             supplier.capacities.size),
                arc_costs=supplier.arc_costs * rng.uniform(0.5, 1.5,
                                                           supplier.arc_costs.shape),
                gross_profit=supplier.gross_profit,
            )
            induced = efficient_plan(retailer, fake)
            if induced.sum() > supplier.total_capacity + 1e-9:
                continue  # undeliverable outcome: the misreport cannot pay off
            outcome = vcg_transfers(retailer, supplier, status_quo, induced)
            net = outcome.supplier_value_plan - outcome.transfer_supplier
            assert net <= truthful_net + 1e-6
    _report(4, "mechanism properties (budget sign, participation, gain, "
               "flat-fee invariance, truthfulness) on 200 instances", started, 60.0)


def test_acceptance_5_dynamic_cbt_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(555)

    for _ in range(100):
        model = InventoryModel(
            forecasts=rng.uniform(2.0, 20.0, size=6),
            holding_cost=float(rng.uniform(0.2, 2.0)),
            lost_sales_cost=float(rng.uniform(3.0, 12.0)),
            retailer_margin=float(rng.uniform(4.0, 12.0)),
            supplier_margin=float(rng.uniform(0.5, 5.0)),
            smoothing_cost=float(rng.uniform(0.05, 2.0)),
            horizon=6,
        )
        demand = np.maximum(model.forecasts + rng.normal(0.0, 3.0, size=6), 0.0)
        records, final = simulate(model, demand, mode="none")
        for rec in records:
            assert rec.cbt >= -1e-6
            assert rec.joint_total_plan >= rec.joint_total_jit - 1e-9

    for _ in range(20):
        model = InventoryModel(
            forecasts=rng.uniform(2.0, 20.0, size=6),
            smoothing_cost=float(rng.uniform(0.2, 2.0)),
            supplier_margin=float(rng.uniform(0.5, 5.0)),
            horizon=6,
        )
        records, _ = simulate(model, model.forecasts, mode="full-horizon")
        for rec in records[1:]:
            assert rec.cbt == 0.0

    # 3-week windows against an independently coded payment formula
    for _ in range(20):
        model = InventoryModel(
            forecasts=rng.uniform(2.0, 15.0, size=3),
            holding_cost=float(rng.uniform(0.2, 2.0)),
            lost_sales_cost=float(rng.uniform(3.0, 12.0)),
            retailer_margin=float(rng.uniform(4.0, 12.0)),
            horizon=3,
        )
        state = model.initial_state(on_hand=float(rng.uniform(0, 5)))
        plan = rng.uniform(0.0, 16.0, size=3)

        def hand_rolled_total(orders):
            on, total = state.on_hand, 0.0
            for t, q in enumerate(orders):
                have = on + q
                sold = min(model.forecasts[t], have)
                on = have - sold
                total += (model.retailer_margin * sold - model.holding_cost * on
                          - model.lost_sales_cost * (model.forecasts[t] - sold))
            return total

        def order_up_to(prefix):
            orders, on = list(prefix), state.on_hand
            for t in range(3):
                if t == len(orders):
                    orders.append(max(model.forecasts[t] - on, 0.0))
                on = max(on + orders[t] - model.forecasts[t], 0.0)
            return orders

        # free: every week filled up to forecast; pinned: the first order is
        # the plan's, later weeks filled up to forecast after it
        expected = hand_rolled_total(order_up_to([])) - hand_rolled_total(order_up_to([plan[0]]))
        assert abs(cbt(model, state, plan) - expected) <= 1e-6
    _report(5, "rolling-horizon payments: nonnegative weekly transfers, joint "
               "dominance, zero post-commitment payments, formula oracle", started, 30.0)


def test_acceptance_6_protocol_parity():
    started = time.perf_counter()
    toy = load_scenario("toy")
    cfg = replace(toy.consensus, initial_plan=np.array([40.0, 60.0]))
    local_trace, wire_trace = [], []
    local = run_consensus([RetailerAgent(toy.retailer), SupplierAgent(toy.supplier)], cfg,
                          trace=local_trace.append)

    servers = [AgentServer(RetailerAgent(toy.retailer)).start(),
               AgentServer(SupplierAgent(toy.supplier)).start()]
    remotes = [RemoteAgent(s.address, dim=2) for s in servers]
    try:
        wire = run_consensus(remotes, cfg, trace=wire_trace.append)
    finally:
        for r in remotes:
            r.close()
        for s in servers:
            s.stop()
    assert np.array_equal(wire.plan, local.plan)
    assert wire.iterations == local.iterations
    assert wire_trace == local_trace   # every proposal, residual and penalty

    # offers against the worked-example menu reproduce the in-process choice
    status_quo = standalone_plans(toy.retailer, toy.supplier)
    reservation = supplier_utility(toy.supplier, status_quo.supplier_plan).value
    menu = build_menu(toy.retailer, status_quo, toy.menu_plans, alpha=50.0)
    choice = supplier_choose(toy.supplier, menu, reservation=reservation)
    server = AgentServer(SupplierAgent(toy.supplier), reservation=reservation).start()
    remote = RemoteAgent(server.address, dim=2)
    try:
        assert remote.offer(choice.plan, choice.fee) is choice.accepted is True
        assert remote.offer(choice.plan, choice.fee + 1000.0) is False
    finally:
        remote.close()
        server.stop()

    rng = np.random.default_rng(66)
    survived = 0
    for _ in range(100_000):
        line = bytes(rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8))
        try:
            decode(line)
        except ParseError:
            pass
        survived += 1
    assert survived == 100_000
    _report(6, "wire-protocol parity (bit-for-bit trajectory, offer/accept) "
               "and decoder fuzzing", started, 30.0)


def test_acceptance_7_lp_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        costs = rng.integers(0, 10, size=(m, n)).astype(float)
        total = int(rng.integers(0, 13))
        reqs = rng.multinomial(total, np.ones(n) / n).astype(float)
        bounds = rng.integers(0, 8, size=m).astype(float)
        slack = float(rng.integers(10, 25)) if (bounds.sum() < reqs.sum()
                                                or rng.random() < 0.3) else None
        expected = enumerate_min_cost(costs, bounds, reqs, slack_penalty=slack)
        assert expected is not None
        sol = solve_transport(costs, bounds, reqs, slack_penalty=slack)
        assert sol.objective == expected
    _report(7, "transport solver equals exhaustive enumeration on 100 "
               "all-integer instances", started, 10.0)
