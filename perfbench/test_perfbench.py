"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that inputs are reproducible, that every output check rejects a
report corrupted on purpose, and that the summary line names every metric
in ``BENCHMARK.json``.  The last group runs the benchmark command for a
fraction of a second per mode.
"""

import copy
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import _import_coplan, classify  # noqa: E402

coplan = _import_coplan()


def _docs(workload, seed):
    """The seeded documents of a round, without the fixed fault reproducers."""
    return [item["doc"] for item in workloads.round_items(workload, seed)
            if item["expect"] is None]


def _report(doc, workload):
    scenario = coplan.scenario.scenario_from_dict(doc)
    return coplan.reports.run(scenario, analyses=workloads.ANALYSES[workload]).machine


# -- inputs ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = json.dumps(workloads.round_items(workload, 7), sort_keys=True)
    b = json.dumps(workloads.round_items(workload, 7), sort_keys=True)
    assert a == b
    assert a != json.dumps(workloads.round_items(workload, 8), sort_keys=True)


@pytest.mark.parametrize("workload", ["settle", "wire"])
def test_seed_orders_the_same_corpus(workload):
    """Which items fail cannot depend on the seed: only the order does."""
    def key(items):
        return sorted(json.dumps(item, sort_keys=True) for item in items)
    assert key(workloads.round_items(workload, 1)) == key(workloads.round_items(workload, 2))


def test_inputs_are_valid_scenarios():
    for workload in workloads.WORKLOADS:
        for item in workloads.round_items(workload, 3):
            coplan.scenario.scenario_from_dict(item["doc"])


def test_settle_mix_covers_every_fee_variant_and_a_shortage():
    docs = _docs("settle", 1)
    assert {d["fee"]["variant"] for d in docs} == set(workloads.FEE_VARIANTS)
    assert any(sum(d["supplier"]["capacities"]) < sum(d["retailer"]["demand"]) for d in docs)


def test_rolling_mix_uses_both_commitments():
    assert {d["dynamic"]["commitment"] for d in _docs("rolling", 1)} == {"none", "full-horizon"}


def test_fault_reproducers_fail_with_their_fault():
    for workload in workloads.WORKLOADS:
        for fault, doc in workloads.fault_items(workload):
            errors = []
            hook = threading.excepthook
            threading.excepthook = lambda a: errors.append(
                (a.exc_type.__name__, str(a.exc_value)))
            try:
                with pytest.raises(Exception) as info:
                    _report(doc, workload)
            finally:
                threading.excepthook = hook
            assert classify(info.value, errors) == fault


# -- output checks ----------------------------------------------------------------

@pytest.fixture(scope="module")
def settle_case():
    # an additive-fee pair that accepts its menu, and a multiplicative-fee pair
    # short of capacity that declines it
    docs = workloads.corpus("settle")
    return [(d, _report(d, "settle")) for d in (docs[1], docs[2])]


def test_settle_checks_pass_on_real_reports(settle_case):
    for doc, report in settle_case:
        assert oracles.check_settle(doc, report) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["vcg"].__setitem__("transfer_supplier", r["vcg"]["transfer_supplier"] + 0.01),
    lambda r: r["jit"].__setitem__("retailer_cost", r["jit"]["retailer_cost"] - 0.01),
    lambda r: r["firstbest"].__setitem__("joint_utility", r["firstbest"]["joint_utility"] + 0.01),
    lambda r: r["firstbest"]["plan"].__setitem__(0, r["firstbest"]["plan"][0] + 1.0),
    lambda r: r["vcg"]["plan"].__setitem__(0, r["vcg"]["plan"][0] + 1.0),
    lambda r: r["menu"]["options"][1].__setitem__("fee", r["menu"]["options"][1]["fee"] + 0.01),
    lambda r: r["menu"].__setitem__("chosen_index", (r["menu"]["chosen_index"] or 0) ^ 1),
], ids=["transfer-cent", "jit-cost", "joint-utility", "plan-off-optimum", "vcg-plan",
        "menu-fee", "menu-choice"])
def test_settle_checks_reject_corruption(settle_case, corrupt):
    for doc, report in settle_case:
        bad = copy.deepcopy(report)
        corrupt(bad)
        assert oracles.check_settle(doc, bad), "corrupted report passed"


@pytest.fixture(scope="module")
def rolling_case():
    docs = _docs("rolling", 2)
    return [(d, _report(d, "rolling")) for d in (docs[0], docs[5])]


def test_rolling_checks_pass_on_real_reports(rolling_case):
    assert {d["dynamic"]["commitment"] for d, _ in rolling_case} == {"none", "full-horizon"}
    for doc, report in rolling_case:
        assert oracles.check_rolling(doc, report) == []


def _flip_cbt(report):
    week = max(report["dynamic"]["weeks"], key=lambda w: abs(w["cbt"]))
    assert week["cbt"] != 0.0
    week["cbt"] = -week["cbt"]


@pytest.mark.parametrize("corrupt", [
    _flip_cbt,
    lambda r: r["dynamic"]["weeks"][2].__setitem__(
        "end_inventory", r["dynamic"]["weeks"][2]["end_inventory"] + 0.5),
    lambda r: r["dynamic"]["weeks"][1].__setitem__(
        "joint_total_plan", r["dynamic"]["weeks"][1]["joint_total_plan"] + 0.01),
    lambda r: r["dynamic"].__setitem__("cumulative_cbt", r["dynamic"]["cumulative_cbt"] + 0.01),
], ids=["cbt-sign", "inventory-ledger", "joint-total", "cumulative-cbt"])
def test_rolling_checks_reject_corruption(rolling_case, corrupt):
    doc, report = rolling_case[0]
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert oracles.check_rolling(doc, bad), "corrupted report passed"


@pytest.fixture(scope="module")
def wire_case():
    doc = workloads.corpus("wire")[0]
    return doc, _report(dict(doc, mode="cpp"), "wire")


def test_wire_checks_pass_on_real_report(wire_case):
    assert oracles.check_wire(*wire_case) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["vcg"].__setitem__("transfer_supplier", r["vcg"]["transfer_supplier"] + 0.01),
    lambda r: r["firstbest"].__setitem__("joint_utility", r["firstbest"]["joint_utility"] * 0.99),
    lambda r: r["vcg"].__setitem__("supplier_accepts", not r["vcg"]["supplier_accepts"]),
], ids=["transfer-cent", "joint-off-optimum", "offer-answer"])
def test_wire_checks_reject_corruption(wire_case, corrupt):
    doc, report = wire_case
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert oracles.check_wire(doc, bad), "corrupted report passed"


# -- the command --------------------------------------------------------------------

def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_summary_line_names_every_metric(trace, section):
    proc = _run(ROOT, "--workload", "settle", "--seed", "5", "--seconds", "0.2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] >= 1
    want = {m["name"]: m["unit"] for m in _bench_json()[section]}
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in summary["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "settle", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
