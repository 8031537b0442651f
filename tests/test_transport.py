import json
from pathlib import Path

import numpy as np
import pytest

from conftest import enumerate_min_cost, one_sided_diffs
from coplan.errors import DimensionError, InfeasibleError, ParameterError
from coplan.transport import (
    RetailerSpec,
    SupplierSpec,
    retailer_utility,
    solve_transport,
    supplier_utility,
)


def test_retailer_jit_cost_and_flows(toy_retailer):
    sol = solve_transport(
        toy_retailer.arc_costs,
        row_bounds=[40, 60],
        col_requirements=toy_retailer.demand,
        slack_penalty=toy_retailer.lost_sales_penalty,
    )
    assert sol.objective == pytest.approx(220.0, abs=1e-9)
    assert np.allclose(sol.flow, [[40.0, 0.0], [0.0, 60.0]])
    assert np.all(sol.slack_flow == 0)


def test_supplier_cost_at_jit_order(toy_supplier):
    sol = solve_transport(
        toy_supplier.arc_costs,
        row_bounds=toy_supplier.capacities,
        col_requirements=[40, 60],
    )
    assert sol.objective == pytest.approx(610.0, abs=1e-9)
    assert np.allclose(sol.flow, [[30.0, 60.0], [10.0, 0.0]])


def test_zero_requirements_zero_cost(toy_retailer):
    sol = solve_transport(toy_retailer.arc_costs, [40, 60], [0.0, 0.0])
    assert sol.objective == 0.0
    assert np.all(sol.flow == 0)


def test_infeasible_without_slack():
    with pytest.raises(InfeasibleError):
        solve_transport([[1.0, 2.0]], [5.0], [4.0, 3.0])


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_transport([[1.0, 2.0]], [5.0, 1.0], [4.0, 3.0])
    with pytest.raises(DimensionError):
        solve_transport([[1.0, 2.0]], [5.0], [4.0])


def test_matches_enumeration_on_random_integer_instances():
    rng = np.random.default_rng(7)
    for case in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        costs = rng.integers(0, 9, size=(m, n)).astype(float)
        total = int(rng.integers(0, 13))
        reqs = rng.multinomial(total, np.ones(n) / n).astype(float)
        bounds = rng.integers(0, 7, size=m).astype(float)
        slack = 20.0 if bounds.sum() < reqs.sum() or rng.random() < 0.3 else None
        expected = enumerate_min_cost(costs, bounds, reqs, slack_penalty=slack)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve_transport(costs, bounds, reqs, slack_penalty=slack)
            continue
        sol = solve_transport(costs, bounds, reqs, slack_penalty=slack)
        assert sol.objective == expected  # integral data: exact equality


def test_strong_duality_and_feasibility_on_random_instances():
    rng = np.random.default_rng(21)
    for case in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        costs = rng.uniform(0.5, 10.0, size=(m, n))
        bounds = rng.uniform(0.0, 50.0, size=m)
        reqs = rng.uniform(0.0, 50.0, size=n)
        slack = 25.0 if rng.random() < 0.5 else None
        if slack is None and bounds.sum() < reqs.sum():
            bounds = bounds * (reqs.sum() / max(bounds.sum(), 1e-9) + 0.1)
        sol = solve_transport(costs, bounds, reqs, slack_penalty=slack)
        served = sol.flow.sum(axis=0) + sol.slack_flow
        assert np.all(served >= reqs - 1e-7)
        assert np.all(sol.flow.sum(axis=1) <= bounds + 1e-7)
        assert np.all(sol.flow >= 0)
        # strong duality
        assert sol.dual_objective == pytest.approx(sol.objective, abs=1e-6 * (1 + abs(sol.objective)))
        # complementary slackness on row bounds
        unused = bounds - sol.flow.sum(axis=1)
        assert np.all(np.abs(unused * sol.row_duals) < 1e-6 * (1 + bounds.max()))
        assert np.all(sol.row_duals <= 1e-9)
        assert np.all(sol.col_duals >= -1e-9)


def test_retailer_utility_matches_worked_example(toy_retailer):
    assert retailer_utility(toy_retailer, [40, 60]).value == pytest.approx(1780.0, abs=1e-9)
    assert retailer_utility(toy_retailer, [10, 90]).value == pytest.approx(1750.0, abs=1e-9)


def test_retailer_utility_all_demand_lost(toy_retailer):
    ev = retailer_utility(toy_retailer, [0.0, 0.0])
    expected = toy_retailer.gross_profit_total - 1000.0 * 100.0
    assert ev.value == pytest.approx(expected, abs=1e-9)
    assert np.all(ev.transport.slack_flow == toy_retailer.demand)


def test_supplier_utility_matches_worked_example(toy_supplier):
    assert supplier_utility(toy_supplier, [40, 60]).value == pytest.approx(1390.0, abs=1e-9)
    assert supplier_utility(toy_supplier, [10, 90]).value == pytest.approx(1540.0, abs=1e-9)
    assert supplier_utility(toy_supplier, [0, 0]).value == 0.0


def test_supplier_infeasible_beyond_capacity(toy_supplier):
    with pytest.raises(InfeasibleError):
        supplier_utility(toy_supplier, [60, 60])


def test_supergradient_zero_on_slack_capacity(toy_retailer):
    ev = retailer_utility(toy_retailer, [120.0, 120.0])
    assert np.allclose(ev.supergradient, 0.0, atol=1e-9)


@pytest.mark.parametrize("x", [[40.0, 60.0], [10.0, 90.0], [25.0, 30.0], [0.0, 55.0]])
def test_retailer_supergradient_brackets_one_sided_diffs(toy_retailer, x):
    ev = retailer_utility(toy_retailer, x)
    g = ev.supergradient
    fwd, bwd = one_sided_diffs(lambda p: retailer_utility(toy_retailer, p).value, np.asarray(x))
    hi = np.where(np.isnan(bwd), np.inf, bwd)
    # concavity pins any valid supergradient between the one-sided slopes
    assert np.all(g >= fwd - 1e-3 * (1 + np.abs(fwd)))
    assert np.all(g <= hi + 1e-3 * (1 + np.abs(hi)))


@pytest.mark.parametrize("x", [[40.0, 60.0], [10.0, 90.0], [50.0, 50.0]])
def test_supplier_supergradient_brackets_one_sided_diffs(toy_supplier, x):
    ev = supplier_utility(toy_supplier, x)
    g = ev.supergradient
    fwd, bwd = one_sided_diffs(lambda p: supplier_utility(toy_supplier, p).value, np.asarray(x))
    hi = np.where(np.isnan(bwd), np.inf, bwd)
    assert np.all(g >= fwd - 1e-3 * (1 + np.abs(fwd)))
    assert np.all(g <= hi + 1e-3 * (1 + np.abs(hi)))


def test_retailer_utility_monotone_in_plan(toy_retailer):
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.uniform(0, 120, size=2)
        i = int(rng.integers(0, 2))
        bump = np.zeros(2)
        bump[i] = rng.uniform(0, 20)
        lo = retailer_utility(toy_retailer, x).value
        hi = retailer_utility(toy_retailer, x + bump).value
        assert hi >= lo - 1e-9


@pytest.mark.parametrize("agent", ["retailer", "supplier"])
def test_utility_concavity(toy_retailer, toy_supplier, agent):
    rng = np.random.default_rng(11)
    if agent == "retailer":
        fn = lambda p: retailer_utility(toy_retailer, p).value
        hi = 120.0
    else:
        fn = lambda p: supplier_utility(toy_supplier, p).value
        hi = 55.0  # stay within total capacity
    for _ in range(30):
        a = rng.uniform(0, hi, size=2)
        b = rng.uniform(0, hi, size=2)
        lam = rng.uniform()
        mid = lam * a + (1 - lam) * b
        assert fn(mid) >= lam * fn(a) + (1 - lam) * fn(b) - 1e-9


@pytest.mark.parametrize("agent", ["retailer", "supplier"])
def test_supergradient_inequality(toy_retailer, toy_supplier, agent):
    rng = np.random.default_rng(13)
    if agent == "retailer":
        ev_fn = lambda p: retailer_utility(toy_retailer, p)
        hi = 120.0
    else:
        ev_fn = lambda p: supplier_utility(toy_supplier, p)
        hi = 55.0
    for _ in range(30):
        x = rng.uniform(0, hi, size=2)
        y = rng.uniform(0, hi, size=2)
        ev = ev_fn(x)
        assert ev_fn(y).value <= ev.value + ev.supergradient @ (y - x) + 1e-9


def test_spec_validation():
    with pytest.raises(ParameterError):
        RetailerSpec(demand=[10.0], arc_costs=[[5.0]], gross_profit=[20.0], lost_sales_penalty=4.0)
    with pytest.raises(DimensionError):
        RetailerSpec(demand=[10.0, 5.0], arc_costs=[[5.0]], gross_profit=[20.0])
    with pytest.raises(ParameterError):
        SupplierSpec(capacities=[-1.0], arc_costs=[[1.0]], gross_profit=[5.0])
    with pytest.raises(DimensionError):
        retailer_utility(
            RetailerSpec(demand=[10.0], arc_costs=[[5.0]], gross_profit=[20.0]),
            [1.0, 2.0],
        )


def test_northwest_corner_places_a_leftover_sliver_of_supply():
    # the second default menu plan of the 12-region shortage pair stored as
    # perfbench/faults/northwest-corner-index.json: its thirds leave about
    # 3e-14 of supply after the last column is full, which once ran the
    # initial basis off the end of the demand vector (IndexError)
    supplier = SupplierSpec(
        capacities=[10.0, 52.0, 4.0, 71.0, 24.0, 192.0, 47.0, 72.0, 21.0, 63.0, 0.0],
        arc_costs=[[8, 8, 7, 2, 1], [1, 1, 2, 9, 1], [6, 3, 7, 4, 6], [3, 9, 4, 10, 10],
                   [4, 9, 8, 3, 3], [1, 8, 9, 2, 2], [9, 10, 6, 9, 8], [4, 6, 5, 7, 6],
                   [8, 9, 4, 1, 10], [5, 1, 2, 8, 8], [10, 1, 5, 8, 9]],
        gross_profit=[26.0, 24.0, 16.0, 30.0, 27.0],
    )
    plan = [float.fromhex(h) for h in (
        "0x1.2a00000000000p+7", "0x1.1d55555555555p+6", "0x1.1555555555556p+2",
        "0x1.7600000000000p+7", "0x1.1caaaaaaaaaaap+7")]
    ev = supplier_utility(supplier, plan)
    # HiGHS: transport cost 1460.333..., utility 13648
    assert ev.value == pytest.approx(13648.0, abs=1e-9)
    assert ev.transport.dual_objective == pytest.approx(ev.transport.objective, abs=1e-9)
    assert np.allclose(ev.transport.flow.sum(axis=0), plan, atol=1e-9)


def test_objective_matches_scipy_on_larger_instances():
    from scipy.optimize import linprog

    rng = np.random.default_rng(71)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        costs = rng.uniform(0.0, 12.0, size=(m, n))
        bounds = rng.uniform(0.0, 40.0, size=m)
        reqs = rng.uniform(0.0, 40.0, size=n)
        slack = 30.0 if rng.random() < 0.5 or bounds.sum() < reqs.sum() else None
        sol = solve_transport(costs, bounds, reqs, slack_penalty=slack)

        c_full = costs.reshape(-1)
        rows = []
        rhs = []
        width = m * n + (n if slack is not None else 0)
        if slack is not None:
            c_full = np.concatenate([c_full, np.full(n, slack)])
        for j in range(n):
            row = np.zeros(width)
            for i in range(m):
                row[i * n + j] = -1.0
            if slack is not None:
                row[m * n + j] = -1.0
            rows.append(row)
            rhs.append(-reqs[j])
        for i in range(m):
            row = np.zeros(width)
            row[i * n:(i + 1) * n] = 1.0
            rows.append(row)
            rhs.append(bounds[i])
        res = linprog(c_full, A_ub=np.asarray(rows), b_ub=np.asarray(rhs),
                      bounds=(0, None), method="highs")
        assert res.status == 0
        assert sol.objective == pytest.approx(res.fun, abs=1e-6 * (1 + abs(res.fun)))


# ---------------------------------------------------------------------------
# Tie-breaking bits: degenerate instances pinned by tests/golden.

DEGENERATE_GOLDEN = Path(__file__).parent / "golden" / "transport_degenerate.json"


def degenerate_instances():
    """Seeded instances with tied costs (integers 1-5), zero rows and
    columns, balanced totals and a slack penalty that can tie the dearest
    arc, at 1-10 nodes a side, half of them with slack.  A third have
    quantities in thirds, so ties in the leaving rule meet rounding."""
    rng = np.random.default_rng(2026)
    cases = []
    for k in range(200):
        m = 1 + k % 10
        n = int(rng.integers(1, 11))
        costs = rng.integers(1, 6, size=(m, n))
        bounds = rng.integers(0, 21, size=m) * (rng.random(m) >= 0.3)
        reqs = rng.integers(0, 21, size=n) * (rng.random(n) >= 0.3)
        if k % 3 == 2:
            bounds, reqs = bounds / 3.0, reqs / 3.0
        slack = int(rng.choice([5, 6, 20])) if k % 2 else None
        if slack is None and bounds.sum() < reqs.sum():
            bounds[int(rng.integers(0, m))] += reqs.sum() - bounds.sum()
        elif slack is None and k % 4 == 0:
            reqs[int(rng.integers(0, n))] += bounds.sum() - reqs.sum()  # balanced
        cases.append({"costs": costs.tolist(), "row_bounds": bounds.tolist(),
                      "col_requirements": reqs.tolist(), "slack_penalty": slack})
    return cases


def _bits(sol):
    def hexed(a):
        return np.vectorize(float.hex, otypes=[object])(np.asarray(a, dtype=float)).tolist()

    return {"flow": hexed(sol.flow), "row_duals": hexed(sol.row_duals),
            "col_duals": hexed(sol.col_duals), "slack_flow": hexed(sol.slack_flow),
            "objective": float.hex(sol.objective),
            "dual_objective": float.hex(sol.dual_objective)}


def _outcome(case):
    return _bits(solve_transport(case["costs"], case["row_bounds"], case["col_requirements"],
                                 slack_penalty=case["slack_penalty"]))


def test_degenerate_instances_keep_their_bits():
    # flows of tied optima and duals of degenerate bases, bit for bit; rewrite
    # the golden file (PYTHONPATH=src python tests/test_transport.py) only
    # when they are meant to change
    cases = [json.loads(line) for line in DEGENERATE_GOLDEN.read_text().splitlines()]
    for k, case in enumerate(cases):
        assert _outcome(case) == case["outcome"], f"instance {k}"


if __name__ == "__main__":
    DEGENERATE_GOLDEN.write_text("".join(
        json.dumps({**case, "outcome": _outcome(case)},
                   separators=(",", ":")) + "\n"
        for case in degenerate_instances()))
