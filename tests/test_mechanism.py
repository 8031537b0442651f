import numpy as np
import pytest

from conftest import RetailerValueOracle, SupplierValueOracle, random_bilateral, solve_joint_lp
from coplan.errors import ParameterError
from coplan.mechanism import (
    BudgetDiagnosis,
    FeePolicy,
    budget_balance_check,
    build_menu,
    default_menu_plans,
    deviation_penalty,
    efficient_plan,
    jit_plan,
    standalone_plans,
    supplier_choose,
    vcg_transfers,
)
from coplan.transport import SupplierSpec, retailer_utility, supplier_utility


@pytest.fixture(scope="module")
def toy_status_quo(toy_retailer, toy_supplier):
    return standalone_plans(toy_retailer, toy_supplier)


def test_standalone_plans_jit_derived(toy_retailer, toy_supplier, toy_status_quo):
    assert np.allclose(toy_status_quo.retailer_plan, [40.0, 60.0])
    assert np.allclose(toy_status_quo.supplier_plan, [40.0, 60.0])


def test_standalone_confirmation_fallback(toy_retailer):
    tight = SupplierSpec(capacities=[30.0, 10.0], arc_costs=[[10.0, 5.0], [1.0, 2.0]],
                         gross_profit=[20.0, 20.0])
    sq = standalone_plans(toy_retailer, tight)
    # grid oracle over confirmation fractions on a 0.01 lattice
    oracle = SupplierValueOracle(tight)
    fracs = np.arange(0.0, 1.0 + 0.01, 0.01)
    g1, g2 = np.meshgrid(fracs * 40.0, fracs * 60.0)
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    vals = oracle(pts)
    best = pts[np.argmax(vals)]
    got = supplier_utility(tight, sq.supplier_plan).value
    assert got >= vals.max() - 1e-6
    assert np.all(np.abs(sq.supplier_plan - best) <= 0.6 + 1e-9)  # lattice granularity
    assert np.allclose(sq.supplier_plan, [10.0, 30.0], atol=1e-6)


def test_efficient_plan_toy_first_best(toy_retailer, toy_supplier):
    plan = efficient_plan(toy_retailer, toy_supplier)
    assert np.allclose(plan, [10.0, 90.0], atol=1e-7)


def test_additive_fee_never_moves_the_plan(toy_retailer, toy_supplier):
    base = efficient_plan(toy_retailer, toy_supplier)
    boosted = efficient_plan(toy_retailer, toy_supplier, fee=FeePolicy.additive(50.0))
    assert np.allclose(base, boosted, atol=1e-9)


def test_linear_deviation_penalty_pins_the_status_quo(toy_retailer, toy_supplier, toy_status_quo):
    fee = FeePolicy.linear_deviation(over_rate=100.0, under_rate=100.0)
    plan = efficient_plan(toy_retailer, toy_supplier, fee=fee, status_quo=toy_status_quo)
    assert np.allclose(plan, [40.0, 60.0], atol=1e-7)
    # centralized oracle: dense integer lattice with the same penalty
    r_oracle = RetailerValueOracle(toy_retailer)
    s_oracle = SupplierValueOracle(toy_supplier)
    axis = np.arange(0.0, 101.0)
    g1, g2 = np.meshgrid(axis, axis)
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    pts = pts[pts.sum(axis=1) <= 100.0]
    pen = 100.0 * np.abs(pts - np.array([40.0, 60.0])).sum(axis=1)
    scores = r_oracle(pts) + s_oracle(pts) - pen
    assert np.allclose(pts[np.argmax(scores)], [40.0, 60.0])


def test_vcg_transfers_toy(toy_retailer, toy_supplier, toy_status_quo):
    plan = efficient_plan(toy_retailer, toy_supplier)
    for alpha in (0.0, 50.0, 110.0):
        fee = FeePolicy.additive(alpha) if alpha else FeePolicy.none()
        report = vcg_transfers(toy_retailer, toy_supplier, toy_status_quo, plan, fee)
        assert report.transfer_supplier == pytest.approx(30.0 + alpha, abs=1e-7)
        assert report.transfer_retailer == pytest.approx(-150.0, abs=1e-7)
        assert report.gain == pytest.approx(120.0, abs=1e-7)
        report.verify()


def test_vcg_transfers_zero_at_status_quo(toy_retailer, toy_supplier, toy_status_quo):
    report = vcg_transfers(toy_retailer, toy_supplier, toy_status_quo, [40.0, 60.0])
    assert report.transfer_supplier == pytest.approx(0.0, abs=1e-9)
    assert report.transfer_retailer == pytest.approx(0.0, abs=1e-9)


def test_surplus_split_matches_worked_example(toy_retailer, toy_supplier, toy_status_quo):
    plan = efficient_plan(toy_retailer, toy_supplier)
    report = vcg_transfers(toy_retailer, toy_supplier, toy_status_quo, plan,
                           FeePolicy.additive(50.0))
    assert report.supplier_surplus == pytest.approx(70.0, abs=1e-7)
    assert report.retailer_surplus == pytest.approx(50.0, abs=1e-7)
    assert report.supplier_accepts


def test_budget_check_toy_deficit(toy_retailer, toy_supplier, toy_status_quo):
    plan = efficient_plan(toy_retailer, toy_supplier)
    report = vcg_transfers(toy_retailer, toy_supplier, toy_status_quo, plan)
    diag = budget_balance_check(report)
    assert isinstance(diag, BudgetDiagnosis)
    assert diag.total == pytest.approx(-120.0, abs=1e-7)
    assert diag.total == pytest.approx(-report.gain, abs=1e-7)
    assert diag.regime == "deficit"


def test_budget_check_balanced_at_status_quo(toy_retailer, toy_supplier, toy_status_quo):
    report = vcg_transfers(toy_retailer, toy_supplier, toy_status_quo, [40.0, 60.0])
    assert budget_balance_check(report).regime == "balanced"
    assert report.gain == pytest.approx(0.0, abs=1e-9)


def test_budget_check_requires_fee_free_report(toy_retailer, toy_supplier, toy_status_quo):
    report = vcg_transfers(toy_retailer, toy_supplier, toy_status_quo, [10.0, 90.0],
                           FeePolicy.additive(1.0))
    with pytest.raises(ParameterError):
        budget_balance_check(report)


def test_budget_sign_agrees_with_complements_condition():
    rng = np.random.default_rng(101)
    for _ in range(60):
        retailer, supplier = random_bilateral(rng, cover_demand=True)
        sq = standalone_plans(retailer, supplier)
        plan = efficient_plan(retailer, supplier)
        report = vcg_transfers(retailer, supplier, sq, plan)
        joint_star = report.retailer_value_plan + report.supplier_value_plan
        joint_sq = report.retailer_value_standalone + report.supplier_value_standalone
        diag = budget_balance_check(report)
        if diag.regime == "deficit":
            assert joint_star >= joint_sq - 1e-6
        elif diag.regime == "surplus":
            assert joint_star <= joint_sq + 1e-6
        assert report.gain >= -1e-6
        # participation holds whenever the fee (zero here) is below the gain
        assert report.supplier_value_plan - report.transfer_supplier >= \
            report.supplier_value_standalone - 1e-6


def test_deviation_penalty_values():
    assert deviation_penalty([10.0, 60.0], [10.0, 60.0], 2.0, 1.0) == 0.0
    assert deviation_penalty([13.0, 60.0], [10.0, 60.0], 2.0, 0.0) == pytest.approx(6.0)
    assert deviation_penalty([5.0, 60.0], [10.0, 60.0], 2.0, 1.0) == pytest.approx(5.0)
    with pytest.raises(ParameterError):
        deviation_penalty([1.0], [1.0], 1.0, 2.0)
    with pytest.raises(ParameterError):
        FeePolicy.linear_deviation(over_rate=1.0, under_rate=2.0)


def test_menu_prices_match_worked_example(toy_retailer, toy_status_quo):
    plans = [[30.0, 70.0], [20.0, 80.0], [10.0, 90.0], [0.0, 100.0]]
    menu = build_menu(toy_retailer, toy_status_quo, plans, alpha=50.0)
    assert np.allclose(menu.fees, [60.0, 70.0, 80.0, 90.0])


def test_menu_fee_at_standalone_plan_is_alpha(toy_retailer, toy_status_quo):
    menu = build_menu(toy_retailer, toy_status_quo, [toy_status_quo.retailer_plan], alpha=17.5)
    assert menu.fees[0] == pytest.approx(17.5, abs=1e-9)


def test_menu_fees_match_formula_on_random_plans(toy_retailer, toy_status_quo):
    rng = np.random.default_rng(7)
    plans = [rng.uniform(0, 100, size=2) for _ in range(10)]
    menu = build_menu(toy_retailer, toy_status_quo, plans, alpha=12.0)
    u_sq = retailer_utility(toy_retailer, toy_status_quo.retailer_plan).value
    for plan, fee in zip(menu.plans, menu.fees):
        assert fee == pytest.approx(u_sq - retailer_utility(toy_retailer, plan).value + 12.0,
                                    abs=1e-9)


def test_default_menu_sweep_matches_worked_example(toy_status_quo):
    plans = default_menu_plans(toy_status_quo.retailer_plan, [10.0, 90.0])
    assert np.allclose(plans, [[30.0, 70.0], [20.0, 80.0], [10.0, 90.0], [0.0, 100.0]])


def test_supplier_choice_worked_example(toy_retailer, toy_supplier, toy_status_quo):
    plans = [[30.0, 70.0], [20.0, 80.0], [10.0, 90.0], [0.0, 100.0]]
    menu = build_menu(toy_retailer, toy_status_quo, plans, alpha=50.0)
    reservation = supplier_utility(toy_supplier, toy_status_quo.supplier_plan).value
    choice = supplier_choose(toy_supplier, menu, reservation=reservation)
    assert choice.accepted
    assert choice.index == 2
    assert np.allclose(choice.plan, [10.0, 90.0])
    assert choice.fee == pytest.approx(80.0)
    assert choice.net_value == pytest.approx(1460.0)
    assert np.allclose(choice.option_alpha_nets, [1390.0, 1440.0, 1490.0, 1480.0])


def test_supplier_choice_single_item_participation(toy_retailer, toy_supplier, toy_status_quo):
    menu = build_menu(toy_retailer, toy_status_quo, [toy_status_quo.retailer_plan], alpha=10.0)
    reservation = supplier_utility(toy_supplier, toy_status_quo.supplier_plan).value
    choice = supplier_choose(toy_supplier, menu, reservation=reservation)
    assert not choice.accepted  # net = reservation - 10 < reservation
    free = build_menu(toy_retailer, toy_status_quo, [toy_status_quo.retailer_plan], alpha=0.0)
    assert supplier_choose(toy_supplier, free, reservation=reservation).accepted


def test_supplier_choice_skips_unfillable_plans(toy_retailer, toy_supplier, toy_status_quo):
    plans = [[120.0, 120.0], [10.0, 90.0]]
    menu = build_menu(toy_retailer, toy_status_quo, plans, alpha=0.0)
    choice = supplier_choose(toy_supplier, menu)
    assert choice.index == 1
    assert choice.option_values[0] == -np.inf


def test_supplier_choice_matches_enumeration_on_random_menus(toy_retailer, toy_supplier,
                                                             toy_status_quo):
    rng = np.random.default_rng(19)
    for _ in range(10):
        plans = [rng.uniform(0, 55, size=2) for _ in range(int(rng.integers(1, 6)))]
        menu = build_menu(toy_retailer, toy_status_quo, plans, alpha=float(rng.uniform(0, 30)))
        choice = supplier_choose(toy_supplier, menu)
        nets = [supplier_utility(toy_supplier, p).value - f
                for p, f in zip(menu.plans, menu.fees)]
        assert choice.index == int(np.argmax(nets))


def test_menu_containing_efficient_plan_selects_it(toy_retailer, toy_supplier, toy_status_quo):
    x_star = efficient_plan(toy_retailer, toy_supplier)
    plans = default_menu_plans(toy_status_quo.retailer_plan, x_star)
    menu = build_menu(toy_retailer, toy_status_quo, plans, alpha=50.0)
    choice = supplier_choose(toy_supplier, menu)
    assert np.allclose(choice.plan, x_star, atol=1e-7)


def test_additive_boost_argmax_invariance_random():
    rng = np.random.default_rng(55)
    for _ in range(20):
        retailer, supplier = random_bilateral(rng, cover_demand=True)
        base = efficient_plan(retailer, supplier)
        boosted = efficient_plan(retailer, supplier, fee=FeePolicy.additive(37.0))
        ja = retailer_utility(retailer, base).value + supplier_utility(supplier, base).value
        jb = retailer_utility(retailer, boosted).value + supplier_utility(supplier, boosted).value
        assert abs(ja - jb) <= 1e-6 * (1 + abs(ja))


def test_joint_lp_matches_highs_for_every_fee():
    # the reported joint objective at efficient_plan's plan against HiGHS on
    # the same LP, for each fee variant, on pairs short of capacity and covered
    rng = np.random.default_rng(2027)
    for t in range(300):
        retailer, supplier = random_bilateral(rng, cover_demand=bool(t % 2))
        sq = standalone_plans(retailer, supplier)
        over = float(rng.uniform(0, 30))
        fees = (FeePolicy.none(), FeePolicy.additive(float(rng.uniform(0, 50))),
                FeePolicy.multiplicative(float(rng.uniform(0, 1))),
                FeePolicy.roi(float(rng.uniform(0, 0.9))),
                FeePolicy.linear_deviation(over, float(rng.uniform(0, over))))
        for fee in fees:
            plan = efficient_plan(retailer, supplier, fee=fee, status_quo=sq)
            assert plan.sum() <= retailer.demand.sum() + 1e-9
            scale = fee.report_scale
            got = (scale * retailer_utility(retailer, plan).value
                   + supplier_utility(supplier, plan).value)
            kwargs = {}
            if fee.variant == "linear_deviation":
                got -= deviation_penalty(plan, sq.retailer_plan, fee.over_rate, fee.under_rate)
                kwargs = dict(reference=sq.retailer_plan, over_rate=fee.over_rate,
                              under_rate=fee.under_rate)
            _, want = solve_joint_lp(retailer, supplier, scale=scale, **kwargs)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (t, fee.variant)


def test_joint_lp_without_inbound_nodes_plans_nothing():
    from coplan.transport import RetailerSpec
    retailer = RetailerSpec(demand=[10.0], arc_costs=np.zeros((0, 1)), gross_profit=[5.0])
    supplier = SupplierSpec(capacities=[5.0], arc_costs=np.zeros((1, 0)), gross_profit=[])
    for fee in (FeePolicy.none(), FeePolicy.linear_deviation(2.0, 1.0)):
        assert efficient_plan(retailer, supplier, fee=fee).shape == (0,)


def test_truthful_reporting_is_dominant_for_the_supplier():
    rng = np.random.default_rng(77)
    for _ in range(25):
        retailer, supplier = random_bilateral(rng, cover_demand=True)
        sq = standalone_plans(retailer, supplier)
        alpha = float(rng.uniform(0, 20))
        fee = FeePolicy.additive(alpha)
        truthful_plan = efficient_plan(retailer, supplier, fee=fee)
        truthful = vcg_transfers(retailer, supplier, sq, truthful_plan, fee)
        truthful_net = truthful.supplier_value_plan - truthful.transfer_supplier
        for _ in range(8):
            fake = SupplierSpec(
                capacities=supplier.capacities * rng.uniform(0.5, 1.5, supplier.capacities.size),
                arc_costs=supplier.arc_costs * rng.uniform(0.5, 1.5, supplier.arc_costs.shape),
                gross_profit=supplier.gross_profit,
            )
            plan = efficient_plan(retailer, fake, fee=fee)
            if plan.sum() > supplier.total_capacity + 1e-9:
                continue  # the true supplier cannot deliver this outcome
            outcome = vcg_transfers(retailer, supplier, sq, plan, fee)
            net = outcome.supplier_value_plan - outcome.transfer_supplier
            assert net <= truthful_net + 1e-6


def test_multiplicative_and_roi_fees_bias_reported_utility(toy_retailer, toy_supplier,
                                                           toy_status_quo):
    for fee in (FeePolicy.multiplicative(0.5), FeePolicy.roi(0.5)):
        plan = efficient_plan(toy_retailer, toy_supplier, fee=fee, status_quo=toy_status_quo)
        report = vcg_transfers(toy_retailer, toy_supplier, toy_status_quo, plan, fee)
        report.verify()
        drop = report.retailer_value_standalone - report.retailer_value_plan
        expected = (fee.beta * drop if fee.variant == "multiplicative"
                    else fee.roi_rate * abs(drop))
        assert report.fee_term == pytest.approx(expected, abs=1e-9)
    with pytest.raises(ParameterError):
        FeePolicy.roi(1.0)


def test_jit_plan_deterministic_under_cost_ties():
    from coplan.transport import RetailerSpec
    spec = RetailerSpec(demand=[10.0, 10.0], arc_costs=[[2.0, 2.0], [2.0, 2.0]],
                        gross_profit=[5.0, 5.0], lost_sales_penalty=50.0)
    assert np.allclose(jit_plan(spec), jit_plan(spec))
