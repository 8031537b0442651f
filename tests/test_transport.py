import json
from pathlib import Path

import numpy as np
import pytest

from conftest import enumerate_min_cost, one_sided_diffs, random_bilateral
from coplan.errors import DimensionError, InfeasibleError, ParameterError
from coplan.transport import (
    _EPS,
    RetailerSpec,
    SupplierSpec,
    basis_holds,
    basis_order,
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


def test_no_rows_and_no_slack_is_the_empty_solution():
    # a supplier with no sources ships nothing; there is no initial basis to
    # build, so the solver returns the empty solution directly
    ev = supplier_utility(SupplierSpec(capacities=[], arc_costs=np.zeros((0, 2)),
                                       gross_profit=[1.0, 1.0]), [0.0, 0.0])
    sol = ev.transport
    assert ev.value == 0.0 and sol.objective == 0.0 and sol.flow.shape == (0, 2)
    assert sol.row_duals.shape == (0,) and np.array_equal(sol.col_duals, np.zeros(2))
    assert np.array_equal(sol.slack_flow, np.zeros(2))
    with pytest.raises(InfeasibleError):
        solve_transport(np.zeros((0, 2)), [], [1.0, 0.0])


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
LARGE_GOLDEN = Path(__file__).parent / "golden" / "transport_large.json"


def _tied_instances(seed, count, lo, hi):
    """Seeded instances with tied costs (integers 1-5), zero rows and
    columns, balanced totals and a slack penalty that can tie the dearest
    arc, at ``lo``-``hi`` nodes a side, half of them with slack.  A third
    have quantities in thirds, so ties in the leaving rule meet rounding."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        m = lo + k % (hi - lo + 1)
        n = int(rng.integers(lo, hi + 1))
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


def degenerate_instances():
    """200 tied instances at 1-10 nodes a side."""
    return _tied_instances(2026, 200, 1, 10)


def large_instances():
    """30 tied instances at 11-40 nodes a side, one per row count: deep basis
    trees, where a pivot can cut off and re-hang a long subtree."""
    return _tied_instances(2027, 30, 11, 40)


def _bits(sol):
    def hexed(a):
        return np.vectorize(float.hex, otypes=[object])(np.asarray(a, dtype=float)).tolist()

    return {"flow": hexed(sol.flow), "row_duals": hexed(sol.row_duals),
            "col_duals": hexed(sol.col_duals), "slack_flow": hexed(sol.slack_flow),
            "objective": float.hex(sol.objective),
            "dual_objective": float.hex(sol.dual_objective)}


def _solve(case):
    return solve_transport(case["costs"], case["row_bounds"], case["col_requirements"],
                           slack_penalty=case["slack_penalty"])


def _outcome(case):
    return _bits(_solve(case))


def _golden_cases(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_degenerate_instances_keep_their_bits():
    # flows of tied optima and duals of degenerate bases, bit for bit; rewrite
    # the golden files (PYTHONPATH=src python tests/test_transport.py) only
    # when they are meant to change
    for k, case in enumerate(_golden_cases(DEGENERATE_GOLDEN)):
        assert _outcome(case) == case["outcome"], f"instance {k}"


def test_large_instances_keep_their_bits():
    for k, case in enumerate(_golden_cases(LARGE_GOLDEN)):
        assert _outcome(case) == case["outcome"], f"instance {k}"


def test_pivot_counts_match_the_pinned_sequence():
    # pivots per cold solve, summed over each golden file: the totals of the
    # walk-the-whole-tree solver these files were written with, so each
    # solve takes the same pivots, not just reaches the same final basis
    for path, total in ((DEGENERATE_GOLDEN, 2079), (LARGE_GOLDEN, 7735)):
        assert sum(_solve(case).pivots for case in _golden_cases(path)) == total, path.name


if __name__ == "__main__":
    for path, cases in ((DEGENERATE_GOLDEN, degenerate_instances()),
                        (LARGE_GOLDEN, large_instances())):
        path.write_text("".join(json.dumps({**case, "outcome": _outcome(case)},
                                           separators=(",", ":")) + "\n"
                                for case in cases))


def tree_flows(basis, costs, supply, demand):
    """Flows on the arcs of a basis tree at the balanced tableau's ``supply``
    and ``demand``, by least squares on its incidence matrix (exact for a
    tree), and their cost at the tableau's ``costs``."""
    rows = len(supply)
    arcs = [(i, j - rows) for i in range(rows) for j in basis[i]]
    incidence = np.zeros((len(basis), len(arcs)))
    for k, (i, j) in enumerate(arcs):
        incidence[i, k], incidence[rows + j, k] = 1.0, -1.0
    net = np.concatenate([supply, -np.asarray(demand, dtype=float)])
    flows = np.linalg.lstsq(incidence, net, rcond=None)[0]
    return flows, sum(costs[i, j] * f for (i, j), f in zip(arcs, flows))


def test_a_kept_basis_holds_exactly_where_its_flows_stay_feasible():
    # integer data, so ties and degenerate trees occur.  Where the tree kept
    # from a solve at x0 holds at x1, it is optimal there: a cold solve has
    # its cost, and the cut it gave is exact at x1 and still overestimates
    # the utility elsewhere.  Where it does not hold, a tree flow is negative
    rng = np.random.default_rng(27)
    seen = {True: 0, False: 0}
    for _ in range(150):
        retailer, supplier = random_bilateral(rng, max_nodes=int(rng.integers(3, 6)),
                                              cover_demand=True)
        cap = supplier.total_capacity

        def draw(near=None):
            x = rng.integers(0, 60, size=retailer.n_inbound).astype(float)
            if near is not None:
                x = np.maximum(near + rng.integers(-3, 4, size=near.size), 0.0)
            return np.floor(x * cap / x.sum()) if x.sum() > cap else x

        for utility, spec in ((retailer_utility, retailer), (supplier_utility, supplier)):
            x0 = draw()
            x1 = draw(x0 if rng.random() < 0.7 else None)
            ev0 = utility(spec, x0)
            basis = ev0.transport.basis
            costs = np.zeros((spec.arc_costs.shape[0], spec.arc_costs.shape[1] + 1))
            costs[:, :-1] = spec.arc_costs
            if utility is retailer_utility:
                held = basis_holds(basis_order(basis), x1.tolist(), spec.demand.tolist(),
                                   slack=True)
                costs = np.vstack([costs, [spec.lost_sales_penalty] * costs.shape[1]])
                costs[-1, -1] = 0.0
                flows, cost = tree_flows(basis, costs, [*x1, spec.demand.sum()],
                                         [*spec.demand, x1.sum()])
            else:
                held = basis_holds(basis_order(basis), spec.capacities.tolist(), x1.tolist(),
                                   slack=False)
                flows, cost = tree_flows(basis, costs, spec.capacities, [*x1, cap - x1.sum()])
            seen[held] += 1
            if not held:
                assert flows.min() < -_EPS
                continue
            assert flows.min() >= -1e-9
            cold = utility(spec, x1)
            assert abs(cost - cold.transport.objective) <= 1e-9 * max(1.0, abs(cost))

            def cut(y):
                return ev0.value + float(ev0.supergradient @ (y - x0))

            assert abs(cut(x1) - cold.value) <= 1e-9 * max(1.0, abs(cold.value))
            for _ in range(3):
                y = draw()
                assert utility(spec, y).value <= cut(y) + 1e-9 * max(1.0, abs(cut(y)))
    assert min(seen.values()) >= 30, seen
