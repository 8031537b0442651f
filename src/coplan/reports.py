"""Scenario runner: execute the requested analyses and emit both a
machine-readable document (full precision, byte-stable) and a human table.

Analyses and what they add to the report:

  jit        standalone order plan, both sides' transport costs and utilities
  firstbest  coordinated plan (centralized LP, consensus, or consensus over
             the wire protocol, per the scenario mode) and the gain
  vcg        externality transfer with the activity fee, surplus split,
             fee-free budget diagnosis, acceptance
  menu       priced plan menu and the supplier's dominant-strategy choice
  dynamic    weekly rolling-horizon ledger with cost-benefit transfers

Dependencies are computed as needed but only requested sections are emitted.
Each side's utility is solved once per distinct plan of a report; settlement
identities are re-verified on those values before the report is returned.
"""

import json
from dataclasses import dataclass

import numpy as np

from .consensus import SupplierAgent
from .dynamic import simulate
from .errors import ParameterError
from .mechanism import (
    budget_balance_check,
    build_menu,
    check_identity,
    consensus_plan,
    default_menu_plans,
    efficient_plan,
    standalone_plans,
    supplier_choose,
    vcg_transfers,
)
from .protocol import served
from .scenario import ANALYSES
from .transport import as_plan


@dataclass(frozen=True)
class Report:
    machine: dict
    text: str

    def to_json(self):
        """Canonical machine-readable form: full float precision, sorted keys,
        byte-identical for identical scenario and flags."""
        return json.dumps(self.machine, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"


def run(scenario, analyses=ANALYSES, trace=None, seed=None):
    requested = list(analyses)
    unknown = set(requested) - set(ANALYSES)
    if unknown:
        raise ParameterError(f"unknown analyses {sorted(unknown)}")
    needed = set(requested)
    if "menu" in needed or "vcg" in needed:
        needed.update(("jit", "firstbest"))
    if "firstbest" in needed:
        needed.add("jit")

    machine = {"scenario": scenario.name, "mode": scenario.mode,
               "analyses": sorted(requested)}
    if seed is not None:
        machine["seed"] = int(seed)
    lines = [f"Scenario: {scenario.name} (mode: {scenario.mode})"]

    sections = {}
    retailer_at = _evaluator(scenario.retailer)
    supplier_at = _evaluator(scenario.supplier)
    if "jit" in needed:
        payload, rendered, status_quo = _run_jit(scenario, retailer_at, supplier_at)
        sections["jit"] = (payload, rendered)
    if "firstbest" in needed:
        fb_payload, rendered, plan = _run_firstbest(scenario, retailer_at, supplier_at,
                                                    status_quo, sections["jit"][0], trace)
        sections["firstbest"] = (fb_payload, rendered)
    if "vcg" in needed:
        sections["vcg"] = _run_vcg(scenario, retailer_at, supplier_at, status_quo, plan)
    if "menu" in needed:
        sections["menu"] = _run_menu(scenario, retailer_at, supplier_at, status_quo, plan)
    if "dynamic" in needed:
        sections["dynamic"] = _run_dynamic(scenario)

    for name in ANALYSES:
        if name in requested:
            payload, rendered = sections[name]
            machine[name] = payload
            lines.extend(rendered)
    return Report(machine=machine, text="\n".join(lines) + "\n")


def _evaluator(spec):
    """The utility ``spec(plan)`` solved once per distinct plan, keyed on its bytes
    after ``as_plan`` (an infeasible plan raises on every call, before any solve)."""
    memo = {}

    def at(plan):
        key = as_plan(plan, spec.n_inbound).tobytes()
        if key not in memo:
            memo[key] = spec(plan)
        return memo[key]
    return at


def _plan_list(plan):
    return [float(v) for v in np.asarray(plan, dtype=float)]


def _fmt_plan(plan):
    return "[" + ", ".join(f"{v:.2f}" for v in plan) + "]"


def _run_jit(scenario, retailer_at, supplier_at):
    status_quo = standalone_plans(scenario.retailer, scenario.supplier, retailer_at)
    ev_r, ev_s = retailer_at(status_quo.retailer_plan), supplier_at(status_quo.supplier_plan)
    payload = {
        "retailer_plan": _plan_list(status_quo.retailer_plan),
        "supplier_plan": _plan_list(status_quo.supplier_plan),
        "retailer_cost": ev_r.transport.objective,
        "supplier_cost": ev_s.transport.objective,
        "total_cost": ev_r.transport.objective + ev_s.transport.objective,
        "retailer_utility": ev_r.value,
        "supplier_utility": ev_s.value,
    }
    rendered = [
        "== Standalone (JIT) ==",
        f"retailer order plan     : {_fmt_plan(status_quo.retailer_plan)}",
        f"retailer transport cost : ${ev_r.transport.objective:,.2f}",
        f"supplier transport cost : ${ev_s.transport.objective:,.2f}",
        f"total supply chain cost : ${payload['total_cost']:,.2f}",
        f"retailer utility        : ${ev_r.value:,.2f}",
        f"supplier utility        : ${ev_s.value:,.2f}",
    ]
    return payload, rendered, status_quo


def _coordinate(scenario, status_quo, fee=None, trace=None):
    """Efficient plan under the reported utilities, by the scenario's mode:
    the joint LP in ``centralized`` mode, else the consensus loop (over the
    wire in ``protocol`` mode) with its result; the result is None for the LP."""
    if scenario.mode == "centralized":
        return efficient_plan(scenario.retailer, scenario.supplier, fee=fee,
                              status_quo=status_quo), None
    return consensus_plan(scenario.retailer, scenario.supplier, fee=fee,
                          status_quo=status_quo, config=scenario.consensus, trace=trace,
                          endpoints=served if scenario.mode == "protocol" else None)


def _run_firstbest(scenario, retailer_at, supplier_at, status_quo, jit_payload, trace):
    # true socially efficient plan; fee-induced allocation bias (if any)
    # shows up in the settlement section instead
    plan, result = _coordinate(scenario, status_quo, trace=trace)
    ev_r, ev_s = retailer_at(plan), supplier_at(plan)
    total_cost = ev_r.transport.objective + ev_s.transport.objective
    jit_cost = jit_payload["total_cost"]
    reduction = 100.0 * (jit_cost - total_cost) / jit_cost if jit_cost else 0.0
    gain = (ev_r.value + ev_s.value
            - jit_payload["retailer_utility"] - jit_payload["supplier_utility"])
    payload = {
        "plan": _plan_list(plan),
        "retailer_cost": ev_r.transport.objective,
        "supplier_cost": ev_s.transport.objective,
        "total_cost": total_cost,
        "joint_utility": ev_r.value + ev_s.value,
        "gain": gain,
        "cost_reduction_pct": reduction,
    }
    if result is not None:
        payload["consensus_iterations"] = result.iterations
        payload["converged"] = result.converged
    rendered = [
        "== First-best coordination ==",
        f"coordinated plan        : {_fmt_plan(plan)}",
        f"total supply chain cost : ${total_cost:,.2f} ({reduction:.2f}% below standalone)",
        f"joint utility           : ${payload['joint_utility']:,.2f}",
        f"coordination gain       : ${gain:,.2f}",
    ]
    if result is not None and not result.converged:
        rendered.append(f"consensus               : did not converge in {result.iterations}"
                        " iterations; the plan is not first-best")
    return payload, rendered, plan


def _run_vcg(scenario, retailer_at, supplier_at, status_quo, plan):
    settled_plan, replan = plan, None
    if scenario.fee.moves_plan:
        settled_plan, replan = _coordinate(scenario, status_quo, fee=scenario.fee)
    report = vcg_transfers(retailer_at, supplier_at, status_quo, settled_plan, scenario.fee)
    report.verify()
    fee_free = vcg_transfers(retailer_at, supplier_at, status_quo, plan)
    fee_free.verify()
    # distorted: the fee-biased plan loses joint utility past the tolerance of
    # how both plans were made, LP rounding or acceptance 3's consensus bound
    joint = fee_free.retailer_value_plan + fee_free.supplier_value_plan
    loss = joint - report.retailer_value_plan - report.supplier_value_plan
    tol = 1e-9 if scenario.mode == "centralized" else 1e-3
    distorted = bool(loss > tol * (1.0 + abs(joint)))
    diagnosis = budget_balance_check(fee_free)
    accepted = report.supplier_accepts
    if scenario.mode == "protocol":  # the supplier's server takes or leaves the offer
        with served([SupplierAgent(scenario.supplier)],
                    reservation=supplier_at(status_quo.supplier_plan).value) as (remote,):
            accepted = remote.offer(report.plan, report.transfer_supplier)
    payload = {
        "plan": _plan_list(report.plan),
        "plan_distorted_by_fee": distorted,
        "transfer_supplier": report.transfer_supplier,
        "transfer_retailer": report.transfer_retailer,
        "fee_variant": scenario.fee.variant,
        "fee_term": report.fee_term,
        "gain": report.gain,
        "supplier_surplus": report.supplier_surplus,
        "retailer_surplus": report.retailer_surplus,
        "budget_sum_fee_free": diagnosis.total,
        "budget_regime": diagnosis.regime,
        "supplier_accepts": bool(accepted),
    }
    if replan is not None:
        payload["consensus_iterations"] = replan.iterations
        payload["converged"] = replan.converged
    if not accepted:
        payload["settled_plan"] = _plan_list(status_quo.retailer_plan)
        payload["settled_transfer_supplier"] = 0.0
    rendered = [
        "== VCG settlement ==",
        f"supplier transfer       : ${report.transfer_supplier:,.2f}"
        f" (fee term ${report.fee_term:,.2f})",
        f"supplier surplus        : ${report.supplier_surplus:,.2f}",
        f"retailer surplus        : ${report.retailer_surplus:,.2f}",
        f"budget, fee-free        : ${diagnosis.total:,.2f} ({diagnosis.regime})",
        f"supplier accepts        : {'yes' if accepted else 'no (reverts to status quo)'}",
    ]
    if replan is not None and not replan.converged:
        rendered.append(f"fee-biased re-plan      : did not converge in {replan.iterations}"
                        " iterations; the settled plan is not the fee-biased optimum")
    return payload, rendered


def _run_menu(scenario, retailer_at, supplier_at, status_quo, plan):
    alpha = scenario.fee.flat_fee
    plans = scenario.menu_plans
    if plans is None:
        plans = default_menu_plans(status_quo.retailer_plan, plan)
    menu = build_menu(retailer_at, status_quo, plans, alpha=alpha)
    choice = supplier_choose(supplier_at, menu, supplier_at(status_quo.supplier_plan).value)
    u_sq = retailer_at(status_quo.retailer_plan).value
    for menu_plan, fee in zip(menu.plans, menu.fees):
        value = retailer_at(menu_plan).value
        check_identity(fee, u_sq - value + alpha, (u_sq, value, alpha),
                       "menu pricing identity broken")
    payload = {
        "alpha": alpha,
        "options": [
            {
                "plan": _plan_list(p),
                "fee": float(f),
                "supplier_utility": None if not np.isfinite(v) else float(v),
                "net": None if not np.isfinite(n) else float(n),
                "utility_net_of_alpha": None if not np.isfinite(a) else float(a),
            }
            for p, f, v, n, a in zip(menu.plans, menu.fees, choice.option_values,
                                     choice.option_nets, choice.option_alpha_nets)
        ],
        "accepted": choice.accepted,
        "chosen_index": choice.index,
        "chosen_plan": None if choice.plan is None else _plan_list(choice.plan),
        "chosen_fee": choice.fee,
    }
    rendered = ["== Menu of contracts =="]
    for k, opt in enumerate(payload["options"]):
        value = "unfillable" if opt["net"] is None else f"nets ${opt['net']:,.2f}"
        rendered.append(
            f"option {k + 1}: plan {_fmt_plan(opt['plan'])} fee ${opt['fee']:,.2f} -> {value}")
    if choice.accepted:
        rendered.append(f"chosen: option {choice.index + 1} at fee ${choice.fee:,.2f}")
    else:
        rendered.append("chosen: none (declined)")
    return payload, rendered


def _run_dynamic(scenario):
    if scenario.dynamic is None:
        raise ParameterError("scenario has no dynamic block")
    settings = scenario.dynamic
    records, final = simulate(settings.model, settings.demand_path,
                              mode=settings.commitment,
                              on_hand=settings.initial_inventory)
    payload = {
        "commitment": settings.commitment,
        "weeks": [
            {
                "week": rec.week,
                "order": rec.order,
                "realized_demand": rec.realized_demand,
                "sales": rec.sales,
                "end_inventory": rec.end_inventory,
                "cbt": rec.cbt,
                "cumulative_cbt": rec.cumulative_cbt,
                "jit_orders": _plan_list(rec.jit_orders),
                "coordinated_orders": _plan_list(rec.coordinated_orders),
                "joint_total_jit": rec.joint_total_jit,
                "joint_total_plan": rec.joint_total_plan,
            }
            for rec in records
        ],
        "cumulative_cbt": final.cumulative_cbt,
    }
    rendered = ["== Dynamic (rolling horizon) =="]
    for rec in records:
        rendered.append(
            f"week {rec.week + 1}: order {rec.order:.2f}, demand {rec.realized_demand:.2f},"
            f" inventory {rec.end_inventory:.2f}, cbt ${rec.cbt:,.2f}")
    rendered.append(f"cumulative cost-benefit transfer: ${final.cumulative_cbt:,.2f}")
    return payload, rendered
