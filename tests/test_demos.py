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
