import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package, the CLI and the report
    # runner must import without it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import sys, coplan, coplan.cli, coplan.reports; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_loads_nothing_new_at_start_up():
    # start-up guard: past numpy and the standard modules the package is built
    # on, importing the package, the CLI and the report runner loads only coplan
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import sys; import numpy, json, socket, selectors, threading, dataclasses, "
             "argparse, contextlib, pathlib, importlib.resources; base = set(sys.modules); "
             "import coplan, coplan.cli, coplan.reports; "
             "print(sorted(m for m in set(sys.modules) - base if m.split('.')[0] != 'coplan'))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def load(name, path):
    """The module of the script at ``path``, which is not on the import path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_spans_name_existing_functions():
    # the tracer wraps coplan by name: a rename must fail here, not only in
    # the slow traced benchmark run
    spans = load("spans", ROOT / "perfbench" / "spans.py")
    for mod_name, attr, *_ in spans._FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"coplan.{mod_name}"), attr, None)), attr
    for mod_name, cls_name, attr, _ in spans._METHODS:
        cls = getattr(importlib.import_module(f"coplan.{mod_name}"), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{cls_name}.{attr}"


# sha256 over the machine reports of each benchmark workload's seed-101 round,
# as `python tests/report_drift.py --seed 101` prints it.  A change that
# keeps every report's bytes keeps these; a declared report change updates
# its line and says so in CHANGES.md.
REPORT_DIGESTS = {
    "settle": "d8bc8c407840bc9baf4b44eb0a4b25f5a6e619bddad4a131b8dfd72452003fd3",
    "rolling": "1802c704bc5c9f0a9d73e218527ce0f30b468762d55d87e2d273208df6f35dbd",
    "wire": "9a8bf47d8c42832754c0ab2cf7c6d8107531c06c3dd6f7414c4f7d5805034076",
}


@pytest.mark.parametrize("workload", REPORT_DIGESTS)
def test_benchmark_round_reports_keep_their_bytes(workload):
    drift = load("report_drift", ROOT / "tests" / "report_drift.py")
    assert drift.digest(workload, 101).split()[-1] == REPORT_DIGESTS[workload]
