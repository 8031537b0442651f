"""Output checks computed apart from coplan.

The transport and joint-plan values come from scipy's HiGHS LP solver on
LPs written out here from the scenario document; the rolling-horizon
payments, flow utilities and inventory ledger are coded by hand from the
formulas in the paper.  Nothing here imports coplan, so a fault in the
package cannot hide itself in its own check.

Each ``check_*`` function takes the scenario document and the machine report
(``Report.machine``) and returns a list of failure reasons; an empty list
means the report passed.
"""

import numpy as np
from scipy.optimize import linprog

# One cent is the smallest error the checks must see; LP values here are at
# most a few 1e4, where HiGHS agrees with the transport simplex to ~1e-9.
ABS_TOL = 1e-4
REL_TOL = 1e-9


def close(a, b, tol=ABS_TOL):
    return abs(a - b) <= tol + REL_TOL * max(abs(a), abs(b))


def _lp(c, A, b, bounds=(0, None)):
    res = linprog(np.asarray(c, float), A_ub=np.asarray(A, float),
                  b_ub=np.asarray(b, float), bounds=bounds, method="highs")
    if res.status != 0:
        raise ArithmeticError(f"oracle LP failed: {res.message}")
    return res


class Pair:
    """The bilateral data of one scenario document as arrays."""

    def __init__(self, doc):
        r, s = doc["retailer"], doc["supplier"]
        self.demand = np.asarray(r["demand"], float)
        self.rc = np.asarray(r["arc_costs"], float)            # (I, J)
        self.rg = np.asarray(r["gross_profit_per_unit"], float)
        self.penalty = float(r.get("lost_sales_penalty", 1000.0))
        self.caps = np.asarray(s["capacities"], float)
        self.sc = np.asarray(s["arc_costs"], float)            # (K, I)
        self.sg = np.asarray(s["gross_profit_per_unit"], float)
        self.I, self.J = self.rc.shape
        self.K = self.caps.size

    # -- utilities -----------------------------------------------------------

    def retailer_cost(self, plan):
        """min sum c v + P lost  s.t.  sum_j v_ij <= plan_i,  sum_i v_ij + lost_j >= d_j."""
        I, J = self.I, self.J
        n = I * J + J
        c = np.concatenate([self.rc.reshape(-1), np.full(J, self.penalty)])
        A, b = [], []
        for i in range(I):
            row = np.zeros(n)
            row[i * J:(i + 1) * J] = 1.0
            A.append(row)
            b.append(plan[i])
        for j in range(J):
            row = np.zeros(n)
            row[j:I * J:J] = -1.0
            row[I * J + j] = -1.0
            A.append(row)
            b.append(-self.demand[j])
        return float(_lp(c, A, b).fun)

    def retailer_utility(self, plan):
        return float(self.rg @ self.demand) - self.retailer_cost(plan)

    def supplier_cost(self, plan):
        """min sum c w  s.t.  sum_i w_ki <= cap_k,  sum_k w_ki >= plan_i;  None
        when the plan exceeds total capacity."""
        plan = np.asarray(plan, float)
        if plan.sum() > self.caps.sum() + 1e-9 * (1.0 + self.caps.sum()):
            return None
        K, I = self.K, self.I
        n = K * I
        A, b = [], []
        for k in range(K):
            row = np.zeros(n)
            row[k * I:(k + 1) * I] = 1.0
            A.append(row)
            b.append(self.caps[k])
        for i in range(I):
            row = np.zeros(n)
            row[i:n:I] = -1.0
            A.append(row)
            b.append(-plan[i])
        return float(_lp(self.sc.reshape(-1), A, b).fun)

    def supplier_utility(self, plan):
        cost = self.supplier_cost(plan)
        return None if cost is None else float(self.sg @ np.asarray(plan, float)) - cost

    # -- plans ---------------------------------------------------------------

    def standalone_cost(self):
        """The retailer's cost with unlimited supply: every region served from
        its cheapest inbound node (or lost, if that is cheaper)."""
        return float(self.demand @ np.minimum(self.rc.min(axis=0), self.penalty))

    def best_confirmation(self, order):
        """max u_S(x) over 0 <= x <= order (the supplier's partial confirmation)."""
        K, I = self.K, self.I
        n = I + K * I
        c = np.concatenate([-self.sg, self.sc.reshape(-1)])
        A, b = [], []
        for i in range(I):
            row = np.zeros(n)
            row[i] = 1.0
            row[I + i:n:I] = -1.0
            A.append(row)
            b.append(0.0)
        for k in range(K):
            row = np.zeros(n)
            row[I + k * I:I + (k + 1) * I] = 1.0
            A.append(row)
            b.append(self.caps[k])
        bounds = [(0.0, float(q)) for q in order] + [(0.0, None)] * (K * I)
        return -float(_lp(c, A, b, bounds).fun)

    def joint_optimum(self, scale=1.0, over=0.0, under=0.0, reference=None):
        """max scale*u_A(x) + u_S(x) - over*sum(x-ref)^+ - under*sum(ref-x)^+
        over x >= 0, sum(x) <= total demand, by one LP over the plan, both
        flows, lost sales and the deviation parts."""
        I, J, K = self.I, self.J, self.K
        dev = reference is not None
        nx, nv, nl, nw, nd = I, I * J, J, K * I, (2 * I if dev else 0)
        n = nx + nv + nl + nw + nd
        c = np.zeros(n)
        c[:nx] = -self.sg
        c[nx:nx + nv] = scale * self.rc.reshape(-1)
        c[nx + nv:nx + nv + nl] = scale * self.penalty
        c[nx + nv + nl:nx + nv + nl + nw] = self.sc.reshape(-1)
        if dev:
            c[n - 2 * I:n - I] = over
            c[n - I:] = under
        A, b = [], []
        for j in range(J):                      # demand met or lost
            row = np.zeros(n)
            row[nx + j:nx + nv:J] = -1.0
            row[nx + nv + j] = -1.0
            A.append(row)
            b.append(-self.demand[j])
        for i in range(I):                      # retailer ships at most the plan
            row = np.zeros(n)
            row[i] = -1.0
            row[nx + i * J:nx + (i + 1) * J] = 1.0
            A.append(row)
            b.append(0.0)
        for i in range(I):                      # supplier delivers the plan
            row = np.zeros(n)
            row[i] = 1.0
            row[nx + nv + nl + i:nx + nv + nl + nw:I] = -1.0
            A.append(row)
            b.append(0.0)
        for k in range(K):                      # source capacity
            row = np.zeros(n)
            row[nx + nv + nl + k * I:nx + nv + nl + (k + 1) * I] = 1.0
            A.append(row)
            b.append(self.caps[k])
        row = np.zeros(n)                       # no order beyond total demand
        row[:nx] = 1.0
        A.append(row)
        b.append(self.demand.sum())
        if dev:
            for i in range(I):
                row = np.zeros(n)
                row[i] = 1.0
                row[n - 2 * I + i] = -1.0
                A.append(row)
                b.append(reference[i])
                row = np.zeros(n)
                row[i] = -1.0
                row[n - I + i] = -1.0
                A.append(row)
                b.append(-reference[i])
        res = _lp(c, A, b)
        return scale * float(self.rg @ self.demand) - float(res.fun)


def fee_term(fee, drop, plan, reference):
    """The activity fee added to the supplier transfer, by variant."""
    variant = fee.get("variant", "none")
    if variant == "none":
        return 0.0
    if variant == "additive":
        return float(fee.get("alpha", 0.0))
    if variant == "multiplicative":
        return float(fee.get("beta", 0.0)) * drop
    if variant == "roi":
        return float(fee.get("roi_rate", 0.0)) * abs(drop)
    delta = np.asarray(plan, float) - np.asarray(reference, float)
    return float(fee.get("over_rate", 0.0) * delta.clip(min=0).sum()
                 + fee.get("under_rate", 0.0) * (-delta).clip(min=0).sum())


def _report_scale(fee):
    variant = fee.get("variant", "none")
    if variant == "multiplicative":
        return 1.0 + fee.get("beta", 0.0)
    if variant == "roi":
        return 1.0 - fee.get("roi_rate", 0.0)
    return 1.0


class _Checker:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)

    def equal(self, got, want, what, tol=ABS_TOL):
        if got is None or want is None:
            self.expect(got is None and want is None, f"{what}: {got} != {want}")
        else:
            self.expect(close(got, want, tol), f"{what}: {got!r} != {want!r}")


def _check_jit(ck, pair, jit):
    sq_r = np.asarray(jit["retailer_plan"], float)
    sq_s = np.asarray(jit["supplier_plan"], float)
    ck.equal(jit["retailer_cost"], pair.standalone_cost(), "jit retailer cost vs cheapest routes")
    ck.equal(jit["retailer_cost"], pair.retailer_cost(sq_r), "jit retailer cost vs LP")
    ck.equal(jit["supplier_cost"], pair.supplier_cost(sq_s), "jit supplier cost vs LP")
    ck.equal(jit["total_cost"], jit["retailer_cost"] + jit["supplier_cost"], "jit total cost")
    u_a = pair.retailer_utility(sq_r)
    u_s = pair.supplier_utility(sq_s)
    ck.equal(jit["retailer_utility"], u_a, "jit retailer utility")
    ck.equal(jit["supplier_utility"], u_s, "jit supplier utility")
    covered = pair.caps.sum() >= sq_r.sum()
    if covered:
        ck.expect(np.array_equal(sq_s, sq_r), "status quo: a covered order is confirmed in full")
    else:
        ck.expect(bool(np.all(sq_s >= -1e-9) and np.all(sq_s <= sq_r + 1e-7)),
                  "status quo: confirmation outside 0..order")
        ck.equal(u_s, pair.best_confirmation(sq_r), "status quo: confirmation is not the best")
    return sq_r, sq_s, u_a, u_s, covered


def _joint(ck, pair, plan, what):
    """u_A + u_S at a plan, or None (and a failure) when the supplier cannot
    deliver it."""
    u_s = pair.supplier_utility(plan)
    ck.expect(u_s is not None, f"{what} exceeds the supplier's capacity")
    return None if u_s is None else pair.retailer_utility(plan) + u_s


def _check_settlement(ck, doc, pair, report, sq_r, sq_s, u_a_sq, u_s_sq, covered):
    fb = report["firstbest"]
    x_star = np.asarray(fb["plan"], float)
    opt = pair.joint_optimum()
    joint = _joint(ck, pair, x_star, "firstbest plan")
    if joint is None:
        return x_star, opt
    ck.equal(fb["joint_utility"], joint, "firstbest joint utility at its plan")
    gain = joint - u_a_sq - u_s_sq
    ck.equal(fb["gain"], gain, "firstbest gain")
    # Under a shortage the status quo pairs the retailer's full order with the
    # supplier's partial confirmation (``mechanism.standalone_plans``); that
    # pair is no single plan, so its joint value can exceed the optimum.
    if covered:
        ck.expect(fb["gain"] >= -1e-6, f"firstbest gain {fb['gain']} is negative")
    if "vcg" in report:
        _check_vcg(ck, doc, pair, report["vcg"], x_star, opt, sq_r, u_a_sq, u_s_sq)
    return x_star, opt


def _check_vcg(ck, doc, pair, vcg, x_star, opt, sq_r, u_a_sq, u_s_sq):
    fee = doc["fee"]
    plan = np.asarray(vcg["plan"], float)
    u_a = pair.retailer_utility(plan)
    u_s = pair.supplier_utility(plan)
    if u_s is None:
        ck.expect(False, "vcg plan exceeds the supplier's capacity")
        return
    drop = u_a_sq - u_a
    term = fee_term(fee, drop, plan, sq_r)
    ck.equal(vcg["fee_term"], term, "vcg fee term")
    ck.equal(vcg["transfer_supplier"], drop + term, "vcg transfer = u_A(sq) - u_A(x) + fee")
    ck.equal(vcg["gain"], u_a + u_s - u_a_sq - u_s_sq, "vcg gain")
    ck.equal(vcg["supplier_surplus"] + vcg["retailer_surplus"], vcg["gain"],
             "vcg surpluses add up to the gain")
    ck.equal(vcg["supplier_surplus"], u_s - vcg["transfer_supplier"] - u_s_sq,
             "vcg supplier surplus")
    ck.equal(vcg["budget_sum_fee_free"], u_a_sq + u_s_sq - opt, "fee-free budget = -gain")
    variant = fee.get("variant", "none")
    if variant in ("none", "additive"):
        ck.equal(u_a + u_s, opt, "vcg plan is off the joint optimum")
    else:
        scale = _report_scale(fee)
        biased = scale * u_a + u_s
        ref = None
        if variant == "linear_deviation":
            ref = sq_r
            biased -= fee_term(fee, 0.0, plan, sq_r)
        want = pair.joint_optimum(scale=scale, over=fee.get("over_rate", 0.0),
                                  under=fee.get("under_rate", 0.0), reference=ref)
        ck.equal(biased, want, "vcg plan is off the fee-biased optimum")
    margin = u_s - vcg["transfer_supplier"] - u_s_sq
    if abs(margin) > 1e-6:
        ck.expect(vcg["supplier_accepts"] == (margin > 0),
                  f"supplier_accepts={vcg['supplier_accepts']} with net margin {margin}")


def _check_menu(ck, doc, pair, menu, sq_r, x_star, u_a_sq, u_s_sq):
    fee = doc["fee"]
    alpha = float(fee.get("alpha", 0.0)) if fee.get("variant") == "additive" else 0.0
    ck.equal(menu["alpha"], alpha, "menu alpha")
    step = (x_star - sq_r) / 3.0
    nets = []
    for k, opt in enumerate(menu["options"]):
        plan = np.asarray(opt["plan"], float)
        want_plan = np.maximum(sq_r + (k + 1) * step, 0.0)
        ck.expect(np.allclose(plan, want_plan, rtol=0, atol=1e-9),
                  f"menu option {k} plan is not the default sweep")
        ck.equal(opt["fee"], u_a_sq - pair.retailer_utility(plan) + alpha,
                 f"menu option {k} fee = u_A(sq) - u_A(plan) + alpha")
        u_s = pair.supplier_utility(plan)
        ck.equal(opt["supplier_utility"], u_s, f"menu option {k} supplier utility")
        nets.append(-np.inf if u_s is None else u_s - opt["fee"])
    best = max(nets)
    idx = menu["chosen_index"]
    if menu["accepted"]:
        ck.expect(idx is not None and 0 <= idx < len(nets), f"menu choice {idx} is no option")
        if not ck.failures:
            ck.expect(nets[idx] >= best - 1e-6, f"menu choice {idx} does not maximise the net")
            ck.expect(nets[idx] >= u_s_sq - 1e-6, "menu choice pays less than the reservation")
            chosen = menu["options"][idx]
            ck.expect(menu["chosen_plan"] == chosen["plan"] and menu["chosen_fee"] == chosen["fee"],
                      "menu choice does not match its option")
    else:
        ck.expect(idx is None and menu["chosen_plan"] is None, "declined menu names a choice")
        ck.expect(not np.isfinite(best) or best <= u_s_sq + 1e-6,
                  "menu declined although an option beats the reservation")


def check_settle(doc, report):
    ck = _Checker()
    pair = Pair(doc)
    sq_r, sq_s, u_a_sq, u_s_sq, covered = _check_jit(ck, pair, report["jit"])
    x_star, opt = _check_settlement(ck, doc, pair, report, sq_r, sq_s, u_a_sq, u_s_sq, covered)
    ck.equal(report["firstbest"]["joint_utility"], opt, "firstbest joint utility vs joint LP")
    if "menu" in report:
        _check_menu(ck, doc, pair, report["menu"], sq_r, x_star, u_a_sq, u_s_sq)
    return ck.failures


# consensus stops at a residual tolerance, so its plan is near, not at, the
# optimum; the same relative bound the acceptance suite applies
WIRE_REL_TOL = 1e-3


def check_wire(doc, report):
    ck = _Checker()
    pair = Pair(doc)
    sq_r, sq_s, u_a_sq, u_s_sq, covered = _check_jit(ck, pair, report["jit"])
    fb = report["firstbest"]
    x_star = np.asarray(fb["plan"], float)
    opt = pair.joint_optimum()
    joint = _joint(ck, pair, x_star, "consensus plan")
    if joint is None:
        return ck.failures
    ck.equal(fb["joint_utility"], joint, "firstbest joint utility at its plan")
    ck.expect(abs(fb["joint_utility"] - opt) <= WIRE_REL_TOL * max(1.0, abs(opt)),
              f"consensus joint utility {fb['joint_utility']} not within 1e-3 of {opt}")
    ck.equal(fb["gain"], joint - u_a_sq - u_s_sq, "firstbest gain")
    vcg = report["vcg"]
    plan = np.asarray(vcg["plan"], float)
    ck.expect(np.array_equal(plan, x_star), "vcg settles another plan than the consensus plan")
    u_a = pair.retailer_utility(plan)
    u_s = pair.supplier_utility(plan)
    if u_s is None:
        return ck.failures
    term = fee_term(doc["fee"], u_a_sq - u_a, plan, sq_r)
    ck.equal(vcg["fee_term"], term, "vcg fee term")
    ck.equal(vcg["transfer_supplier"], u_a_sq - u_a + term, "vcg transfer = u_A(sq) - u_A(x) + fee")
    ck.equal(vcg["supplier_surplus"] + vcg["retailer_surplus"], vcg["gain"],
             "vcg surpluses add up to the gain")
    margin = u_s - vcg["transfer_supplier"] - u_s_sq
    if abs(margin) > 1e-6:
        ck.expect(vcg["supplier_accepts"] == (margin > 0),
                  f"offer answered {vcg['supplier_accepts']} with net margin {margin}")
    return ck.failures


# -- rolling horizon ------------------------------------------------------------

def _order_up_to(forecasts, window, on_hand, pinned=None, committed=()):
    orders = []
    on = on_hand
    for idx, t in enumerate(window):
        if idx < len(committed):
            q = committed[idx]
        elif idx == 0 and pinned is not None:
            q = pinned
        else:
            q = max(forecasts[t] - on, 0.0)
        orders.append(q)
        on = max(on + q - forecasts[t], 0.0)
    return orders


def _retailer_total(d, window, on_hand, orders):
    on, total = on_hand, 0.0
    for t, q in zip(window, orders):
        have = on + q
        sold = min(d["forecasts"][t], have)
        on = have - sold
        total += (d["retailer_margin"] * sold - d["holding_cost"] * on
                  - d["lost_sales_cost"] * (d["forecasts"][t] - sold))
    return total


def _supplier_total(d, last_order, orders):
    prev, total = last_order, 0.0
    for q in orders:
        total += d["supplier_margin"] * q - d["smoothing_cost"] * (q - prev) ** 2
        prev = q
    return total


def check_rolling(doc, report):
    ck = _Checker()
    d = doc["dynamic"]
    dyn = report["dynamic"]
    mode = d["commitment"]
    ck.expect(dyn["commitment"] == mode, "commitment mode")
    n, horizon = len(d["forecasts"]), d["horizon"]
    ck.expect(len(dyn["weeks"]) == n, f"{len(dyn['weeks'])} weeks reported of {n}")
    on_hand, last_order, record, cumulative = d["initial_inventory"], 0.0, None, 0.0
    for t, week in enumerate(dyn["weeks"]):
        window = list(range(t, min(t + horizon, n)))
        plan = week["coordinated_orders"]
        jit = _order_up_to(d["forecasts"], window, on_hand)
        ck.expect(np.allclose(week["jit_orders"], jit, rtol=0, atol=1e-9),
                  f"week {t}: order-up-to orders")
        ck.expect(len(plan) == len(window) and week["order"] == plan[0],
                  f"week {t}: the issued order is not the plan's first")
        r_plan = _retailer_total(d, window, on_hand, plan)
        joint_plan = r_plan + _supplier_total(d, last_order, plan)
        joint_jit = (_retailer_total(d, window, on_hand, jit)
                     + _supplier_total(d, last_order, jit))
        ck.equal(week["joint_total_plan"], joint_plan, f"week {t}: joint total of the plan", 1e-6)
        ck.equal(week["joint_total_jit"], joint_jit, f"week {t}: joint total of the baseline", 1e-6)
        if mode == "none":
            pinned = _order_up_to(d["forecasts"], window, on_hand, pinned=plan[0])
            cbt = (_retailer_total(d, window, on_hand, jit)
                   - _retailer_total(d, window, on_hand, pinned))
            ck.expect(week["cbt"] >= -1e-6, f"week {t}: negative cbt {week['cbt']}")
            ck.expect(week["joint_total_plan"] >= week["joint_total_jit"] - 1e-9,
                      f"week {t}: coordination lowers the joint total")
        else:
            base = _order_up_to(d["forecasts"], window, on_hand,
                                committed=record[:len(window)] if record is not None else ())
            cbt = _retailer_total(d, window, on_hand, base) - r_plan
            joint_base = (_retailer_total(d, window, on_hand, base)
                          + _supplier_total(d, last_order, base))
            ck.expect(joint_plan >= joint_base - 1e-9,
                      f"week {t}: coordination lowers the joint total below the plan of record")
        ck.equal(week["cbt"], cbt, f"week {t}: cbt vs the hand-coded formula", 1e-6)
        demand = d["demand_path"][t]
        have = on_hand + plan[0]
        sold = min(demand, have)
        ck.equal(week["realized_demand"], demand, f"week {t}: realized demand", 0.0)
        ck.equal(week["sales"], sold, f"week {t}: sales", 1e-9)
        ck.equal(week["end_inventory"], have - sold, f"week {t}: inventory ledger", 1e-9)
        cumulative += week["cbt"]
        ck.equal(week["cumulative_cbt"], cumulative, f"week {t}: cumulative cbt", 1e-9)
        on_hand, last_order = week["end_inventory"], plan[0]
        record = plan[1:] if mode == "full-horizon" else None
    ck.equal(dyn["cumulative_cbt"], cumulative, "final cumulative cbt", 1e-9)
    return ck.failures


CHECKS = {"settle": check_settle, "rolling": check_rolling, "wire": check_wire}
