import json
import math
import re
import socket
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_bilateral
from coplan import mechanism, reports, transport
from coplan.cli import main
from coplan.consensus import ConsensusConfig
from coplan.errors import ParameterError, SchemaError
from coplan.reports import run
from coplan.scenario import (
    bundled_scenario_path,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)


@pytest.fixture(scope="module")
def toy():
    return load_scenario("toy")


def test_load_bundled_toy(toy):
    assert toy.name == "toy"
    assert toy.retailer.n_inbound == 2
    assert toy.retailer.demand.size == 2
    assert toy.supplier.capacities.size == 2
    assert toy.fee.variant == "additive" and toy.fee.alpha == 50.0
    assert toy.mode == "centralized"
    assert len(toy.menu_plans) == 4


def test_roundtrip_save_load_identity(toy, tmp_path):
    path, again_path = tmp_path / "copy.scn", tmp_path / "again.scn"
    save_scenario(toy, path)
    again = load_scenario(path)
    assert again.to_dict() == toy.to_dict()
    save_scenario(again, again_path)
    assert again_path.read_bytes() == path.read_bytes()
    # a missing consensus block takes ConsensusConfig's own defaults
    assert scenario_from_dict({**toy.to_dict(), "consensus": {}}).consensus == ConsensusConfig()


def test_schema_rejects_missing_supplier(toy):
    doc = toy.to_dict()
    del doc["supplier"]
    with pytest.raises(SchemaError, match="supplier"):
        scenario_from_dict(doc)


def test_schema_rejects_unknown_fields(toy):
    doc = toy.to_dict()
    doc["retailer"]["demandd"] = [1.0]
    with pytest.raises(SchemaError, match="retailer.demandd"):
        scenario_from_dict(doc)
    doc = toy.to_dict()
    doc["extra_block"] = {}
    with pytest.raises(SchemaError, match="extra_block"):
        scenario_from_dict(doc)


def test_schema_rejects_inconsistent_dimensions(toy):
    doc = toy.to_dict()
    doc["supplier"]["arc_costs"] = [[1.0], [2.0]]
    with pytest.raises(SchemaError, match="supplier"):
        scenario_from_dict(doc)
    doc = toy.to_dict()
    doc["supplier"]["arc_costs"] = [[1.0], [2.0]]
    doc["supplier"]["gross_profit_per_unit"] = [20.0]
    doc["menu_plans"] = None
    with pytest.raises(SchemaError, match="inbound"):
        scenario_from_dict(doc)


def test_schema_error_on_bad_dynamic_block(toy):
    doc = toy.to_dict()
    doc["dynamic"] = {"forecasts": [5.0, 5.0], "demand_path": [5.0]}
    with pytest.raises(SchemaError, match="dynamic.demand_path"):
        scenario_from_dict(doc)


DROP = object()


def edited(base, edits):
    """The bundled scenario ``base`` as a JSON document, with each dotted key of
    ``edits`` set to its value, or deleted for ``DROP``."""
    doc = json.loads(bundled_scenario_path(base).read_text())
    for dotted, value in edits.items():
        *outer, last = dotted.split(".")
        node = doc
        for key in outer:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return doc


FEE_CHOICES = "('none', 'additive', 'multiplicative', 'roi', 'linear_deviation')"

# Each rejection's SchemaError path and message.  A reader's rejection inside
# the retailer, supplier and fee blocks, and inside the dynamic block's cost
# fields, names the block first, as the block's dataclass does for its own checks.
REJECTIONS = [
    ("unknown-top", edited("toy", {"extra": 1}), "extra", "extra: unknown field"),
    ("unknown-in-block", edited("toy", {"retailer.demandd": [1]}),
     "retailer.demandd", "retailer.demandd: unknown field"),
    ("unknown-in-dynamic", edited("toy_dynamic", {"dynamic.bogus": 1}),
     "dynamic.bogus", "dynamic.bogus: unknown field"),
    ("document-not-object", [], "", "expected an object, got list"),
    ("block-not-object", edited("toy", {"retailer": [1]}),
     "retailer", "retailer: expected an object, got list"),
    ("fee-not-object", edited("toy", {"fee": 5}), "fee", "fee: expected an object, got int"),
    ("consensus-not-object", edited("toy", {"consensus": None}),
     "consensus", "consensus: expected an object, got NoneType"),
    ("missing-retailer", edited("toy", {"retailer": DROP}),
     "retailer", "retailer: required block is missing"),
    ("missing-supplier", edited("toy", {"supplier": DROP}),
     "supplier", "supplier: required block is missing"),
    ("name-not-string", edited("toy", {"name": 5}), "name", "name: expected a string"),
    ("missing-field", edited("toy", {"retailer.demand": DROP}),
     "retailer", "retailer: retailer.demand: required field is missing"),
    ("missing-forecasts", edited("toy_dynamic", {"dynamic.forecasts": DROP}),
     "dynamic.forecasts", "dynamic.forecasts: required field is missing"),
    ("bad-number", edited("toy", {"retailer.lost_sales_penalty": "x"}),
     "retailer", "retailer: retailer.lost_sales_penalty: expected a number"),
    ("bool-number", edited("toy", {"fee.alpha": True}),
     "fee", "fee: fee.alpha: expected a number"),
    ("bad-dynamic-cost", edited("toy_dynamic", {"dynamic.holding_cost": "x"}),
     "dynamic", "dynamic: dynamic.holding_cost: expected a number"),
    ("bad-initial-inventory", edited("toy_dynamic", {"dynamic.initial_inventory": [0]}),
     "dynamic.initial_inventory", "dynamic.initial_inventory: expected a number"),
    ("bad-consensus-number", edited("toy", {"consensus.eps_abs": "1e-6"}),
     "consensus.eps_abs", "consensus.eps_abs: expected a number"),
    ("empty-vector", edited("toy", {"retailer.demand": []}),
     "retailer", "retailer: retailer.demand: expected a nonempty list of numbers"),
    ("bool-in-vector", edited("toy", {"supplier.capacities": [100, True]}),
     "supplier", "supplier: supplier.capacities: expected a nonempty list of numbers"),
    ("bad-forecasts", edited("toy_dynamic", {"dynamic.forecasts": "x"}),
     "dynamic.forecasts", "dynamic.forecasts: expected a nonempty list of numbers"),
    ("bad-demand-path", edited("toy_dynamic", {"dynamic.demand_path": [1, "a"]}),
     "dynamic.demand_path", "dynamic.demand_path: expected a nonempty list of numbers"),
    ("empty-matrix", edited("toy", {"retailer.arc_costs": []}),
     "retailer", "retailer: retailer.arc_costs: expected a nonempty matrix"),
    ("null-matrix", edited("toy", {"supplier.arc_costs": None}),
     "supplier", "supplier: supplier.arc_costs: expected a nonempty matrix"),
    ("row-not-list", edited("toy", {"supplier.arc_costs": [[10, 5], 2]}),
     "supplier", "supplier: supplier.arc_costs: expected a nonempty matrix"),
    ("ragged-matrix", edited("toy", {"retailer.arc_costs": [[1, 5], [2]]}),
     "retailer", "retailer: retailer.arc_costs: rows must be equal-length lists of numbers"),
    ("bool-in-matrix", edited("toy", {"supplier.arc_costs": [[10, 5], [1, False]]}),
     "supplier", "supplier: supplier.arc_costs: rows must be equal-length lists of numbers"),
    ("bad-variant", edited("toy", {"fee.variant": "flat"}),
     "fee.variant", f"fee.variant: expected one of {FEE_CHOICES}"),
    ("bad-commitment", edited("toy_dynamic", {"dynamic.commitment": "partial"}),
     "dynamic.commitment", "dynamic.commitment: expected one of ('none', 'full-horizon')"),
    ("bad-mode", edited("toy", {"mode": "fast"}),
     "mode", "mode: expected one of ('centralized', 'cpp', 'protocol')"),
    ("float-horizon", edited("toy_dynamic", {"dynamic.horizon": 6.0}),
     "dynamic.horizon", "dynamic.horizon: expected an integer"),
    ("bool-horizon", edited("toy_dynamic", {"dynamic.horizon": True}),
     "dynamic.horizon", "dynamic.horizon: expected an integer"),
    ("zero-max-iters", edited("toy", {"consensus.max_iters": 0}),
     "consensus.max_iters", "consensus.max_iters: expected a positive integer"),
    ("float-max-iters", edited("toy", {"consensus.max_iters": 2.5}),
     "consensus.max_iters", "consensus.max_iters: expected a positive integer"),
    ("int-adapt-rho", edited("toy", {"consensus.adapt_rho": 1}),
     "consensus.adapt_rho", "consensus.adapt_rho: expected a boolean"),
    ("zero-rho", edited("toy", {"consensus.rho": 0}),
     "consensus.rho", "consensus.rho: must be positive"),
    ("negative-rho", edited("toy", {"consensus.rho": -1.0}),
     "consensus.rho", "consensus.rho: must be positive"),
    ("menu-plan-length", edited("toy", {"menu_plans": [[30, 70], [1, 2, 3]]}),
     "menu_plans[1]", "menu_plans[1]: expected 2 numbers"),
    ("menu-plan-entry", edited("toy", {"menu_plans": [[30, "70"]]}),
     "menu_plans[0]", "menu_plans[0]: expected 2 numbers"),
    ("menu-empty", edited("toy", {"menu_plans": []}),
     "menu_plans", "menu_plans: expected a nonempty list of plans"),
    ("short-demand-path", edited("toy_dynamic", {"dynamic.demand_path": [1]}),
     "dynamic.demand_path", "dynamic.demand_path: must cover every forecast week"),
    ("inbound-mismatch", edited("toy", {"supplier.arc_costs": [[1], [2]],
                                        "supplier.gross_profit_per_unit": [20]}),
     "supplier.arc_costs", "supplier.arc_costs: supplier serves 1 inbound nodes, retailer has 2"),
    ("supplier-dimensions", edited("toy", {"supplier.arc_costs": [[1], [2]]}), "supplier",
     "supplier: arc_costs (2, 1), capacities (2,), gross_profit (2,) disagree"),
    ("retailer-penalty", edited("toy", {"retailer.lost_sales_penalty": 5}),
     "retailer", "retailer: lost_sales_penalty must exceed every arc cost"),
    ("fee-negative", edited("toy", {"fee.alpha": -1}),
     "fee", "fee: fee parameter alpha must be nonnegative"),
    ("fee-roi-rate", edited("toy", {"fee.variant": "roi", "fee.roi_rate": 1.0}),
     "fee", "fee: roi_rate must be below 1"),
    ("horizon-below-one", edited("toy_dynamic", {"dynamic.horizon": 0}),
     "dynamic", "dynamic: planning horizon must be at least one week"),
    ("target-inventory-unknown", edited("toy_dynamic", {"dynamic.target_inventory": [1, 2]}),
     "dynamic.target_inventory", "dynamic.target_inventory: unknown field"),
]


@pytest.mark.parametrize("doc, path, message", [case[1:] for case in REJECTIONS],
                         ids=[case[0] for case in REJECTIONS])
def test_schema_rejections_keep_their_path_and_message(doc, path, message):
    with pytest.raises(SchemaError) as caught:
        scenario_from_dict(doc)
    assert (caught.value.path, str(caught.value)) == (path, message)


def test_a_missing_matrix_is_a_missing_field():
    with pytest.raises(SchemaError) as caught:
        scenario_from_dict(edited("toy", {"supplier.arc_costs": DROP}))
    assert (caught.value.path, str(caught.value)) == (
        "supplier", "supplier: supplier.arc_costs: required field is missing")


BIG = 10 ** 400  # a JSON integer no float holds

# (bundled scenario, dotted key, value, path named in the error); each was
# accepted, or crashed the CLI, before numbers had to be finite
NON_FINITE = [
    ("toy", "consensus.rho", math.inf, "consensus.rho"),
    ("toy", "consensus.rho", math.nan, "consensus.rho"),
    ("toy", "retailer.lost_sales_penalty", math.nan, "retailer.lost_sales_penalty"),
    ("toy_dynamic", "dynamic.holding_cost", math.nan, "dynamic.holding_cost"),
    ("toy_dynamic", "dynamic.retailer_margin", math.nan, "dynamic.retailer_margin"),
    ("toy_dynamic", "dynamic.initial_inventory", math.nan, "dynamic.initial_inventory"),
    ("toy_dynamic", "dynamic.smoothing_cost", math.inf, "dynamic.smoothing_cost"),
    ("toy", "fee.alpha", BIG, "fee.alpha"),
    ("toy", "retailer.demand", [BIG, 60], "retailer.demand"),
    ("toy", "menu_plans", [[30, 70], [BIG, 80]], "menu_plans[1]"),
    ("toy", "fee.alpha", math.nan, "fee.alpha"),
    ("toy", "fee.alpha", math.inf, "fee.alpha"),
    ("toy", "retailer.arc_costs", [[1, 5], [math.nan, 3]], "retailer.arc_costs"),
    ("toy", "supplier.capacities", [-math.inf, 10], "supplier.capacities"),
]


@pytest.mark.parametrize("base, key, value, path", NON_FINITE,
                         ids=[f"{key}={json.dumps(value).replace(str(BIG), 'BIG')}"
                              for _, key, value, _ in NON_FINITE])
def test_non_finite_numbers_are_schema_errors(base, key, value, path, tmp_path, capsys):
    doc = edited(base, {key: value})
    with pytest.raises(SchemaError, match=rf"{re.escape(path)}: non-finite number"):
        scenario_from_dict(doc)
    # JSON text carries NaN, Infinity and the long integer as literals
    scn = tmp_path / "bad.scn"
    scn.write_text(json.dumps(doc))
    assert main(["--scenario", str(scn), "--mode", "cpp", "--analyses", "all"]) == 2
    assert f"{path}: non-finite number" in capsys.readouterr().err


def test_jit_only_report_omits_mechanism_sections(toy):
    report = run(toy, analyses=["jit"])
    assert "jit" in report.machine
    assert "vcg" not in report.machine and "menu" not in report.machine
    assert "VCG" not in report.text


def test_toy_report_matches_worked_example(toy):
    report = run(toy, analyses=["jit", "firstbest", "vcg", "menu"])
    m = report.machine
    assert m["jit"]["retailer_cost"] == pytest.approx(220.0, abs=1e-9)
    assert m["jit"]["supplier_cost"] == pytest.approx(610.0, abs=1e-9)
    assert m["jit"]["total_cost"] == pytest.approx(830.0, abs=1e-9)
    assert m["firstbest"]["plan"] == pytest.approx([10.0, 90.0], abs=1e-7)
    assert m["firstbest"]["total_cost"] == pytest.approx(710.0, abs=1e-9)
    assert m["firstbest"]["gain"] == pytest.approx(120.0, abs=1e-9)
    assert m["vcg"]["transfer_supplier"] == pytest.approx(80.0, abs=1e-9)
    assert m["vcg"]["supplier_surplus"] == pytest.approx(70.0, abs=1e-9)
    assert m["vcg"]["retailer_surplus"] == pytest.approx(50.0, abs=1e-9)
    assert m["menu"]["chosen_index"] == 2


def test_modes_agree_on_first_best(toy):
    from dataclasses import replace
    central = run(toy, analyses=["firstbest"]).machine["firstbest"]["plan"]
    cpp = run(replace(toy, mode="cpp"), analyses=["firstbest"]).machine["firstbest"]["plan"]
    assert np.all(np.abs(np.asarray(central) - np.asarray(cpp)) <= 0.05)


def test_protocol_mode_reproduces_cpp(toy):
    from dataclasses import replace
    cpp = run(replace(toy, mode="cpp"), analyses=["jit", "firstbest", "vcg"])
    wire = run(replace(toy, mode="protocol"), analyses=["jit", "firstbest", "vcg"])
    assert wire.machine["firstbest"]["plan"] == cpp.machine["firstbest"]["plan"]
    assert wire.machine["vcg"]["supplier_accepts"] is True


def test_protocol_fee_replan_goes_over_the_wire(toy, monkeypatch):
    from dataclasses import replace

    from coplan import protocol, reports
    from coplan.mechanism import FeePolicy

    sessions = []

    def served(agents, **kwargs):
        sessions.append([getattr(agent, "fee", None) for agent in agents])
        return protocol.served(agents, **kwargs)

    monkeypatch.setattr(reports, "served", served)
    fee = FeePolicy.multiplicative(0.2)
    analyses = ["jit", "firstbest", "vcg"]
    cpp = run(replace(toy, mode="cpp", fee=fee), analyses=analyses).machine
    assert sessions == []
    wire = run(replace(toy, mode="protocol", fee=fee), analyses=analyses).machine
    assert (cpp.pop("mode"), wire.pop("mode")) == ("cpp", "protocol")
    assert wire == cpp
    # first-best consensus, the fee-biased re-plan, then the offer
    assert sessions == [[FeePolicy.none(), None], [fee, None], [None]]


def test_unconverged_consensus_is_flagged(toy):
    from dataclasses import replace
    assert run(replace(toy, mode="cpp"), analyses=["firstbest"]).machine["firstbest"]["converged"]
    short = replace(toy, mode="cpp", consensus=replace(toy.consensus, max_iters=3))
    report = run(short, analyses=["firstbest"])
    firstbest = report.machine["firstbest"]
    assert firstbest["consensus_iterations"] == 3
    assert firstbest["converged"] is False
    assert "did not converge in 3 iterations" in report.text
    assert "converged" not in run(toy, analyses=["firstbest"]).machine["firstbest"]


def test_unconverged_fee_replan_is_flagged(toy):
    from dataclasses import replace

    from coplan.mechanism import FeePolicy
    biased = replace(toy, mode="cpp", fee=FeePolicy.multiplicative(0.2))
    vcg = run(biased, analyses=["vcg"]).machine["vcg"]
    assert vcg["converged"] is True and vcg["consensus_iterations"] > 3
    short = replace(biased, consensus=replace(toy.consensus, max_iters=3))
    report = run(short, analyses=["vcg"])
    vcg = report.machine["vcg"]
    assert vcg["consensus_iterations"] == 3
    assert vcg["converged"] is False
    assert "re-plan      : did not converge in 3 iterations" in report.text
    # no re-plan, no flag: the additive fee settles the first-best plan, and
    # the joint LP has no iterations to report
    assert "converged" not in run(replace(toy, mode="cpp"), analyses=["vcg"]).machine["vcg"]
    assert "converged" not in run(replace(biased, mode="centralized"),
                                  analyses=["vcg"]).machine["vcg"]


def _count_solves(monkeypatch):
    """The argument tuples of every transport solve from here on."""
    solves = []
    real = transport.solve_transport

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "solve_transport", counted)
    monkeypatch.setattr(mechanism, "solve_transport", counted)
    return solves


def test_report_solves_each_plan_once(toy, monkeypatch):
    # toy settles with 12 distinct transport solves: the standalone order, the
    # joint LP, and each side at the status quo, at the first-best plan and at
    # the three menu plans that differ from it
    solves = _count_solves(monkeypatch)
    for _ in range(2):  # nothing carries over from one report to the next
        solves.clear()
        run(replace(toy, mode="centralized"), analyses=["jit", "firstbest", "vcg", "menu"])
        assert len(solves) == 12


def test_one_inbound_standalone_order_is_solved_once(toy, monkeypatch):
    # with one inbound node the standalone order is the uncapped plan that
    # chose it, so the jit section reads the retailer's value from that solve:
    # one retailer solve and one supplier solve
    solves = _count_solves(monkeypatch)
    pair = replace(toy, mode="centralized", menu_plans=None,
                   retailer=transport.RetailerSpec(demand=[40.0, 60.0], arc_costs=[[1.0, 5.0]],
                                                   gross_profit=[20.0, 20.0]),
                   supplier=transport.SupplierSpec(capacities=[100.0, 10.0],
                                                   arc_costs=[[10.0], [1.0]],
                                                   gross_profit=[20.0]))
    payload = run(pair, analyses=["jit"]).machine["jit"]
    assert payload["retailer_plan"] == [100.0]
    assert payload["retailer_cost"] == 340.0
    assert len(solves) == 2


def test_report_prices_through_the_mechanism(toy, monkeypatch):
    # the report prices with the same three functions a library caller does,
    # so the tracer books settlement and menu pricing to the mechanism
    calls = []

    def counted(name):
        real = getattr(reports, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("vcg_transfers", "build_menu", "supplier_choose"):
        monkeypatch.setattr(reports, name, counted(name))
    run(toy, analyses=["jit", "firstbest", "vcg", "menu"])
    assert sorted(calls) == ["build_menu", "supplier_choose", "vcg_transfers", "vcg_transfers"]


@pytest.mark.parametrize("fee, distorted", [
    (mechanism.FeePolicy.multiplicative(0.2), False),
    (mechanism.FeePolicy.roi(0.2), False),
    (mechanism.FeePolicy.linear_deviation(5, 2), True),
], ids=lambda value: getattr(value, "variant", str(value)))
def test_fee_distortion_agrees_across_modes(toy, fee, distorted):
    # a consensus re-plan differs from the consensus first-best plan by the
    # loop's tolerance even when the fee leaves the optimum where it was; only
    # a loss of joint utility past acceptance 3's tolerance is a distortion
    for mode in ("centralized", "cpp"):
        vcg = run(replace(toy, mode=mode, fee=fee), analyses=["vcg"]).machine["vcg"]
        assert vcg["plan_distorted_by_fee"] is distorted, mode


def test_a_fee_that_picks_a_tied_optimum_does_not_distort():
    # regression: this multiplicative fee moves the joint LP from one tied
    # optimum to another; centralized mode compared plans and flagged a
    # distortion although the settled plan loses no joint utility
    doc = {"name": "settle-147",
           "retailer": {"demand": [71.0, 16.0], "arc_costs": [[7.0, 3.0], [9.0, 8.0]],
                        "gross_profit_per_unit": [27.0, 17.0], "lost_sales_penalty": 1000.0},
           "supplier": {"capacities": [77.0, 84.0, 37.0],
                        "arc_costs": [[6.0, 5.0], [4.0, 10.0], [2.0, 6.0]],
                        "gross_profit_per_unit": [19.0, 24.0]},
           "fee": {"variant": "multiplicative", "beta": 0.338}, "menu_plans": None,
           "dynamic": None, "consensus": {"rho": 1.0, "eps_abs": 1e-06, "eps_rel": 1e-06,
                                         "max_iters": 5000, "adapt_rho": False},
           "mode": "centralized"}
    machine = run(scenario_from_dict(doc), analyses=["firstbest", "vcg"]).machine
    assert machine["vcg"]["plan"] != machine["firstbest"]["plan"]
    assert machine["vcg"]["gain"] == machine["firstbest"]["gain"]
    assert machine["vcg"]["plan_distorted_by_fee"] is False


def _menu_fees_off_by_one(build_menu):
    def priced(*args, **kwargs):
        menu = build_menu(*args, **kwargs)
        return replace(menu, fees=tuple(fee + 1.0 for fee in menu.fees))
    return priced


def _transfer_drifted(vcg_transfers):
    def priced(*args, **kwargs):
        report = vcg_transfers(*args, **kwargs)
        return replace(report, transfer_supplier=report.transfer_supplier + 1.0)
    return priced


@pytest.mark.parametrize("name, skew, message", [
    ("build_menu", _menu_fees_off_by_one, "menu pricing identity broken"),
    ("vcg_transfers", _transfer_drifted, "transfer identity broken"),
])
def test_self_checks_fire_on_reused_evaluations(toy, name, skew, message, monkeypatch,
                                                capsys):
    # the checks read the same per-report evaluations the pricing reads, so a
    # priced value that drifts from them must still fail the report
    monkeypatch.setattr(reports, name, skew(getattr(reports, name)))
    with pytest.raises(AssertionError, match=message):
        run(toy, analyses=["jit", "firstbest", "vcg", "menu"])
    assert main(["--scenario", "toy"]) == 3
    assert "report failed its self-check" in capsys.readouterr().err


def test_machine_report_is_byte_identical_across_runs(toy):
    a = run(toy, analyses=["jit", "firstbest", "vcg", "menu"]).to_json()
    b = run(toy, analyses=["jit", "firstbest", "vcg", "menu"]).to_json()
    assert a == b


@pytest.mark.parametrize("name, argv", [
    ("toy-centralized", ["--scenario", "toy", "--mode", "centralized"]),
    ("toy-cpp", ["--scenario", "toy", "--mode", "cpp"]),
    ("toy-protocol", ["--scenario", "toy", "--mode", "protocol"]),
    ("toy_dynamic-all", ["--scenario", "toy_dynamic", "--analyses", "all"]),
])
def test_bundled_reports_match_golden_bytes(name, argv, tmp_path, capsys):
    # the golden files pin the bundled reports byte for byte; regenerate one
    # with the same argv plus --json only when a report is meant to change
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 0
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("listen", ["bogus", ":99999"])
def test_cli_rejects_bad_listen_address(listen, monkeypatch, capsys):
    monkeypatch.setenv("COPLAN_LISTEN", listen)
    assert main(["--scenario", "toy", "--mode", "protocol"]) == 2
    assert "COPLAN_LISTEN" in capsys.readouterr().err


def test_cli_fixed_listen_port_serves_one_agent(monkeypatch, capsys):
    # protocol mode serves two agents, so a fixed port leaves the second
    # without an address: a documented error, not a traceback
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    monkeypatch.setenv("COPLAN_LISTEN", f"127.0.0.1:{port}")
    assert main(["--scenario", "toy", "--mode", "protocol"]) == 2
    assert f"127.0.0.1:{port} (from COPLAN_LISTEN)" in capsys.readouterr().err


def test_dynamic_report_runs(tmp_path):
    scenario = load_scenario("toy_dynamic")
    report = run(scenario, analyses=["dynamic"])
    weeks = report.machine["dynamic"]["weeks"]
    assert len(weeks) == 6
    assert all(w["cbt"] >= -1e-9 for w in weeks)
    assert report.machine["dynamic"]["cumulative_cbt"] == pytest.approx(
        sum(w["cbt"] for w in weeks))


def test_dynamic_analysis_requires_dynamic_block(toy):
    with pytest.raises(ParameterError, match="dynamic"):
        run(toy, analyses=["dynamic"])


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--scenario", "toy", "--analyses", "jit,firstbest,vcg,menu",
                 "--json", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "$830.00" in stdout and "$120.00" in stdout and "option 3" in stdout
    doc = json.loads(out.read_text())
    assert doc["vcg"]["transfer_supplier"] == 80.0


def test_cli_alpha_and_mode_overrides(capsys):
    code = main(["--scenario", "toy", "--alpha", "100", "--mode", "cpp",
                 "--analyses", "jit,firstbest,vcg"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "$130.00" in stdout  # transfer = 30 + alpha


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text('{"retailer": {}}')
    assert main(["--scenario", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_trace_goes_to_stderr(capsys):
    code = main(["--scenario", "toy", "--mode", "cpp", "--analyses", "firstbest",
                 "--trace"])
    assert code == 0
    err = capsys.readouterr().err
    first = json.loads(err.splitlines()[0])
    assert {"iteration", "z", "r_primal", "r_dual", "rho"} == set(first)


def test_schema_rejects_nonpositive_rho(toy):
    doc = toy.to_dict()
    doc["consensus"]["rho"] = 0.0
    with pytest.raises(SchemaError, match="consensus.rho"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("fee", [mechanism.FeePolicy.additive(50.0),
                                 mechanism.FeePolicy.multiplicative(0.2),
                                 mechanism.FeePolicy.linear_deviation(5, 2)],
                         ids=lambda fee: fee.variant)
def test_protocol_mode_runs_adaptive_penalty_as_cpp(toy, fee):
    adaptive = replace(toy, fee=fee, consensus=replace(toy.consensus, adapt_rho=True))
    analyses = ["jit", "firstbest", "vcg"]
    rhos = []
    cpp = run(replace(adaptive, mode="cpp"), analyses=analyses).machine
    wire = run(replace(adaptive, mode="protocol"), analyses=analyses,
               trace=lambda record: rhos.append(record["rho"])).machine
    assert len(set(rhos)) > 1  # the penalty moved mid-session
    assert (cpp.pop("mode"), wire.pop("mode")) == ("cpp", "protocol")
    assert wire == cpp


def test_dynamic_scenario_roundtrip():
    scenario = load_scenario("toy_dynamic")
    import json as _json
    doc = _json.loads(_json.dumps(scenario.to_dict()))
    from coplan.scenario import scenario_from_dict as _sfd
    again = _sfd(doc)
    assert again.to_dict() == scenario.to_dict()
    assert again.dynamic.commitment == "none"
    assert again.dynamic.model.horizon == 6


# A 4-node, 1-region pair on which the fee re-plan's retailer session, holding
# 6 cuts, re-evaluated cuts it already held until its 120 evaluations ran out
# (exit 2, "gap 4.515e-10"), in cpp mode and over the wire alike.
STALL = {
    "name": "stall", "mode": "cpp",
    "retailer": {"demand": [6], "arc_costs": [[5], [1], [8], [10]],
                 "gross_profit_per_unit": [14], "lost_sales_penalty": 1000},
    "supplier": {"capacities": [81, 46, 12, 98],
                 "arc_costs": [[6, 10, 2, 8], [5, 1, 3, 9], [8, 9, 6, 2], [3, 3, 3, 1]],
                 "gross_profit_per_unit": [28, 13, 26, 25]},
    "fee": {"variant": "linear_deviation", "over_rate": 1, "under_rate": 0.5},
    "consensus": {"rho": 1, "eps_abs": 1e-6, "eps_rel": 1e-6, "max_iters": 3000,
                  "adapt_rho": True},
}


@pytest.mark.parametrize("mode", ["cpp", "protocol"])
def test_a_best_response_stops_on_a_cut_it_already_holds(mode, tmp_path, capsys):
    path = tmp_path / "stall.scn"
    path.write_text(json.dumps(STALL))
    assert main(["--scenario", str(path), "--mode", mode]) == 0, capsys.readouterr().err


# A supplier with no capacity at rho = 1e-3: w / rho in the QP master rounds
# at about 1e-6, so its 4th best response handed supplier_utility a plan of
# total 0.000000 above the cap 0 (exit 2, in cpp mode and over the wire).
# The full scenario runs max_iters 5000 and does not converge; 20 reach the
# fault and keep the test fast.
ZERO_CAP = {
    "name": "zero-cap", "mode": "cpp",
    "retailer": {"demand": [4000, 6000], "arc_costs": [[1000, 5000], [2000, 3000]],
                 "gross_profit_per_unit": [20000, 20000], "lost_sales_penalty": 1000000},
    "supplier": {"capacities": [0], "arc_costs": [[10000, 5000]],
                 "gross_profit_per_unit": [20000, 20000]},
    "fee": {"variant": "none"},
    "consensus": {"rho": 0.001, "eps_abs": 0.0001, "eps_rel": 1e-06, "max_iters": 20,
                  "adapt_rho": False},
}


@pytest.mark.parametrize("mode", ["cpp", "protocol"])
def test_a_master_plan_past_a_zero_cap_by_rounding_is_projected(mode, tmp_path, capsys):
    path = tmp_path / "zero-cap.scn"
    path.write_text(json.dumps(ZERO_CAP))
    argv = ["--scenario", str(path), "--mode", mode, "--analyses", "jit,firstbest,vcg"]
    assert main(argv) == 0, capsys.readouterr().err


def pair_doc(retailer, supplier, fee, mode, quantity=1.0, money=1.0):
    """Scenario document of a pair with every quantity scaled by ``quantity``
    and every amount of money by ``money``; the consensus block scales with
    them (rho in money per squared quantity, eps_abs in quantity)."""
    unit = money / quantity  # money per unit of quantity
    fee = dict(fee)
    for key, scale in (("alpha", money), ("over_rate", unit), ("under_rate", unit)):
        if key in fee:
            fee[key] *= scale
    return {
        "name": "pair", "mode": mode, "fee": fee,
        "retailer": {"demand": (retailer.demand * quantity).tolist(),
                     "arc_costs": (retailer.arc_costs * unit).tolist(),
                     "gross_profit_per_unit": (retailer.gross_profit * unit).tolist(),
                     "lost_sales_penalty": retailer.lost_sales_penalty * unit},
        "supplier": {"capacities": (supplier.capacities * quantity).tolist(),
                     "arc_costs": (supplier.arc_costs * unit).tolist(),
                     "gross_profit_per_unit": (supplier.gross_profit * unit).tolist()},
        "consensus": {"rho": money / quantity ** 2, "eps_abs": 1e-6 * quantity,
                      "eps_rel": 1e-6, "max_iters": 5000, "adapt_rho": False},
    }


FIVE_FEES = [{"variant": "none"}, {"variant": "additive", "alpha": 50.0},
             {"variant": "multiplicative", "beta": 0.3}, {"variant": "roi", "roi_rate": 0.4},
             {"variant": "linear_deviation", "over_rate": 2.0, "under_rate": 1.0}]


@pytest.mark.parametrize("pair, message", [(16, "surplus split"), (17, "transfer identity")])
def test_self_checks_scale_with_the_amounts_they_check(pair, message, tmp_path, capsys):
    # quantities x1e8 put utilities near 1e11 on a fractional consensus plan;
    # the identities then hold to a few units in the last place, about 1e-4,
    # which an absolute tolerance of 1e-6 read as broken (exit 3)
    rng = np.random.default_rng(11)
    for _ in range(pair + 1):
        retailer, supplier = random_bilateral(rng, max_nodes=4)
    # unit prices stay, so every amount of money grows with the quantities;
    # the penalty stays at the toy's
    doc = pair_doc(retailer, supplier, FIVE_FEES[pair % 5], "cpp", quantity=1e8, money=1e8)
    doc["consensus"]["rho"] = 1.0
    path = tmp_path / "scaled.scn"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path)]) == 0, message + ": " + capsys.readouterr().err


def scaled_report(payload, quantity, money, scale=None):
    """The ``centralized`` report a unit-free program gives after the scaling
    of :func:`pair_doc`: plans scale as quantities, percentages not at all,
    every other number as money."""
    if isinstance(payload, dict):
        return {key: scaled_report(value, quantity, money,
                                   quantity if "plan" in key else
                                   1.0 if key.endswith("_pct") else money)
                for key, value in payload.items()}
    if isinstance(payload, list):
        return [scaled_report(value, quantity, money, scale) for value in payload]
    if isinstance(payload, float):
        return payload * scale
    return payload


def test_centralized_reports_do_not_depend_on_units():
    # powers of two scale exactly in floating point, so a report free of
    # units scales bit for bit (metamorphic; not a runtime gate)
    analyses = ["jit", "firstbest", "vcg", "menu"]
    rng = np.random.default_rng(5)
    for _ in range(20):
        retailer, supplier = random_bilateral(rng, max_nodes=4)
        for fee in FIVE_FEES:
            base = run(scenario_from_dict(pair_doc(retailer, supplier, fee, "centralized")),
                       analyses=analyses)
            for a, b in ((3, 0), (0, 5), (-2, 4), (6, -3)):
                doc = pair_doc(retailer, supplier, fee, "centralized", 2.0 ** a, 2.0 ** b)
                got = json.loads(run(scenario_from_dict(doc), analyses=analyses).to_json())
                want = json.loads(json.dumps(scaled_report(base.machine, 2.0 ** a, 2.0 ** b)))
                assert got == want, (fee["variant"], a, b)


@pytest.mark.parametrize("mode", ["centralized", "protocol"])
def test_a_spent_pivot_budget_exits_2(mode, monkeypatch, capsys):
    # regression: the simplex raised ArithmeticError, which is no CoplanError,
    # so the CLI ended in a traceback
    monkeypatch.setattr(transport, "_MAX_PIVOTS", 0)
    assert main(["--scenario", "toy", "--mode", mode]) == 2
    assert "exceeded its pivot budget" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_a_non_finite_alpha_flag_exits_2(alpha, capsys):
    # regression: FeePolicy checked only alpha < 0, so the report failed its
    # transfer identity and the CLI exited 3 on bad input
    assert main(["--scenario", "toy", "--alpha", alpha]) == 2
    assert "fee parameter alpha must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("eps_abs", -1), ("eps_rel", -0.5)])
def test_a_negative_consensus_tolerance_exits_2(key, value, tmp_path, capsys):
    # regression: the scenario loaded, and a cpp run spent all 5000
    # iterations to report converged: false
    scn = tmp_path / "bad.scn"
    scn.write_text(json.dumps(edited("toy", {f"consensus.{key}": value})))
    assert main(["--scenario", str(scn), "--mode", "cpp"]) == 2
    assert f"consensus: {key} must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("dynamic.demand_path", [-1, 10, 10, 10, 10, 10], "realized demand must be nonnegative"),
    ("dynamic.initial_inventory", -5, "must be nonnegative"),
])
def test_negative_realized_demand_and_stock_are_schema_errors(key, value, message, tmp_path,
                                                              capsys):
    # regression: both ran; a demand of -1 sold -1 unit in week 1
    doc = edited("toy_dynamic", {key: value})
    with pytest.raises(SchemaError) as caught:
        scenario_from_dict(doc)
    assert (caught.value.path, str(caught.value)) == (key, f"{key}: {message}")
    scn = tmp_path / "bad.scn"
    scn.write_text(json.dumps(doc))
    assert main(["--scenario", str(scn), "--analyses", "dynamic"]) == 2
    assert f"{key}: {message}" in capsys.readouterr().err


def test_the_seed_is_recorded_in_the_machine_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--scenario", "toy", "--analyses", "jit", "--seed", "7",
                 "--json", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 7


def test_all_analyses_skip_dynamic_without_a_dynamic_block(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--scenario", "toy", "--analyses", "all", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["analyses"] == ["firstbest", "jit", "menu", "vcg"]


@pytest.mark.parametrize("case, message", [
    ("bundled", "nosuch: no such bundled scenario"),
    ("directory", "cannot read scenario: "),
    ("invalid-json", "invalid json: Expecting ',' delimiter (line 2)"),
    ("analyses", "unknown analyses ['bogus']"),
])
def test_unusable_cli_input_exits_2(case, message, tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text('{"name": "x",\n "retailer": {} "supplier": {}}')
    argv = {"bundled": ["--scenario", "nosuch"],
            "directory": ["--scenario", str(tmp_path)],
            "invalid-json": ["--scenario", str(bad)],
            "analyses": ["--scenario", "toy", "--analyses", "jit,bogus"]}[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
