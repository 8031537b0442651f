import json
import socket
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coplan import mechanism, reports, transport
from coplan.cli import main
from coplan.errors import ParameterError, SchemaError
from coplan.reports import run
from coplan.scenario import load_scenario, save_scenario, scenario_from_dict


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
    path = tmp_path / "copy.scn"
    save_scenario(toy, path)
    again = load_scenario(path)
    assert again.to_dict() == toy.to_dict()


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

    def served(agents, rho, **kwargs):
        sessions.append([getattr(agent, "fee", None) for agent in agents])
        return protocol.served(agents, rho, **kwargs)

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


def test_report_solves_each_plan_once(toy, monkeypatch):
    # toy settles with 12 distinct transport solves: the standalone order, the
    # joint LP, and each side at the status quo, at the first-best plan and at
    # the three menu plans that differ from it
    solves = []
    real = transport.solve_transport

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "solve_transport", counted)
    monkeypatch.setattr(mechanism, "solve_transport", counted)
    for _ in range(2):  # nothing carries over from one report to the next
        solves.clear()
        run(replace(toy, mode="centralized"), analyses=["jit", "firstbest", "vcg", "menu"])
        assert len(solves) == 12


def _menu_fees_off_by_one(price_menu):
    def priced(*args, **kwargs):
        menu = price_menu(*args, **kwargs)
        return replace(menu, fees=tuple(fee + 1.0 for fee in menu.fees))
    return priced


def _transfer_drifted(price_settlement):
    def priced(*args, **kwargs):
        report = price_settlement(*args, **kwargs)
        return replace(report, transfer_supplier=report.transfer_supplier + 1.0)
    return priced


@pytest.mark.parametrize("name, skew, message", [
    ("price_menu", _menu_fees_off_by_one, "menu pricing identity broken"),
    ("price_settlement", _transfer_drifted, "transfer identity broken"),
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
    assert {"iteration", "z", "r_primal", "r_dual"} == set(first)


def test_schema_rejects_nonpositive_rho(toy):
    doc = toy.to_dict()
    doc["consensus"]["rho"] = 0.0
    with pytest.raises(SchemaError, match="consensus.rho"):
        scenario_from_dict(doc)


def test_protocol_mode_rejects_adaptive_penalty(toy):
    from dataclasses import replace
    bad = replace(toy, mode="protocol",
                  consensus=replace(toy.consensus, adapt_rho=True))
    with pytest.raises(ParameterError, match="pin"):
        run(bad, analyses=["firstbest"])


def test_dynamic_scenario_roundtrip():
    scenario = load_scenario("toy_dynamic")
    import json as _json
    doc = _json.loads(_json.dumps(scenario.to_dict()))
    from coplan.scenario import scenario_from_dict as _sfd
    again = _sfd(doc)
    assert again.to_dict() == scenario.to_dict()
    assert again.dynamic.commitment == "none"
    assert again.dynamic.model.horizon == 6
