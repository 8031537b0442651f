"""Closed-loop benchmark of coplan.

    python3 perfbench/run.py --workload settle --seed 1 --seconds 20 --trace 0

Runs one workload (``settle``, ``rolling`` or ``wire``) from the root of a
checkout and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from a traced run.  See ``perfbench/README.md`` for the workloads, metrics
and reference figures.

Steps, each in a fresh Python process so nothing imported here skews the
timings:

1. ``probe`` x4: set up as the workload does and exit, for ``setup_s``;
2. ``run``: set up, run whole rounds for ``--seconds``, check the outputs.

The round of scenario documents is generated here from the seed first (see
``workloads.py``) and written to ``.perfbench/`` for the workers to load.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUTDIR = ROOT / ".perfbench"
PROBES = 4
TIMEOUT = 150  # seconds for any one child; the whole run must end within 180


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child(args, deadline):
    """Run a worker task to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "coplan" / "__init__.py").is_file():
        print(f"error: no coplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return _bench(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _bench(args):
    deadline = time.monotonic() + TIMEOUT
    OUTDIR.mkdir(exist_ok=True)

    inputs = OUTDIR / f"inputs-{args.workload}-{args.seed}.json"
    payload = {"workload": args.workload, "seed": args.seed,
               "items": workloads.round_items(args.workload, args.seed)}
    inputs.write_text(json.dumps(payload, sort_keys=True) + "\n")

    setups = []
    for _ in range(PROBES):
        spawned = time.monotonic()
        setups.append(json.loads(_child(["probe", inputs, spawned], deadline))["setup_s"])
    spawned = time.monotonic()
    result = json.loads(_child(["run", args.workload, inputs, args.seconds, args.trace,
                                spawned, OUTDIR], deadline))
    setups.append(result["setup_s"])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    detail = dict(result, setup_samples_s=setups, seed=args.seed, trace=args.trace)
    (OUTDIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if args.trace:
        for name, m in metrics.items():
            print(f"{args.workload:8s} {name:28s} {m['value']:12.3f} {m['unit']}", file=sys.stderr)
    for reason, count in sorted(result["failures"].items()):
        print(f"{args.workload}: {count} of {result['attempted']} items failed: {reason}",
              file=sys.stderr)
    for name, reasons in sorted(result["check_failures"].items()):
        print(f"{args.workload}: {name} failed its checks: {reasons[:3]}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
