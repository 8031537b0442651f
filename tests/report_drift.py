"""Digest the machine reports of the benchmark rounds, or compare them with
another checkout's.

    python tests/report_drift.py --seed 101
    python tests/report_drift.py --against ../other-checkout --seed 101

For each workload of ``perfbench/workloads.py`` a checkout runs every item of
the round that a benchmark run with ``--seed`` repeats, in a child process
that imports its own ``src``; the round comes from this checkout's
``perfbench``.  An item that raises contributes its exception type and message
instead of a report.

Without ``--against`` the script prints per workload the item count and one
sha256 over this checkout's ``Report.to_json()`` outputs in round order.  Two
checkouts that print the same lines produce byte-identical reports on every
item.  With ``--against`` both checkouts run the rounds, and the script prints
per workload how many items' reports differ at all, the largest absolute move
of a float with its JSON path, and how many other values (counts, flags,
strings, shapes, raised errors) differ.  The script is not a test module, so
pytest does not collect it.
"""

import argparse
import hashlib
import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def round_outputs(workload, seed):
    """Yield each item's report JSON (or ``"Type: message"`` if it raised)
    under the coplan and the ``workloads`` module that ``sys.path`` finds."""
    import workloads
    from coplan import reports, scenario

    for item in workloads.round_items(workload, seed):
        try:
            out = reports.run(scenario.scenario_from_dict(item["doc"]),
                              analyses=workloads.ANALYSES[workload]).to_json()
        except Exception as exc:  # a raising item is part of the digest and the comparison too
            out = f"{type(exc).__name__}: {exc}\n"
        yield out


def emit(root, workload, seed):
    """Print, one JSON string per line, each item's output under the coplan
    of ``root``."""
    sys.path[:0] = [str(Path(root) / "src"), str(ROOT / "perfbench")]
    for out in round_outputs(workload, seed):
        print(json.dumps(out), flush=True)


def outputs(root, workload, seed):
    proc = subprocess.run([sys.executable, __file__, "--emit", str(root),
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff(a, b, path, moves, changes):
    """Walk two JSON values side by side: append (|move|, path) for each
    float that differs and the path of each other difference."""
    if _number(a) and _number(b) and (isinstance(a, float) or isinstance(b, float)):
        if not (a == b or (a != a and b != b)):  # NaN on both sides is no move
            move = abs(a - b)
            moves.append((move if math.isfinite(move) else math.inf, path))
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            diff(a[key], b[key], f"{path}.{key}", moves, changes)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", moves, changes)
    elif type(a) is not type(b) or a != b:
        changes.append(path)


def _parse(out):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return out  # the message of an item that raised


def digest(workload, seed):
    items = outputs(ROOT, workload, seed)
    sha = hashlib.sha256("".join(items).encode()).hexdigest()
    return f"{workload:8s} {len(items):4d} items  sha256 {sha}"


def compare(workload, seed, against):
    with ThreadPoolExecutor(2) as pool:
        mine, theirs = pool.map(lambda root: outputs(root, workload, seed), (ROOT, against))
    if len(mine) != len(theirs):
        return f"{workload:8s} item counts differ: {len(mine)} here, {len(theirs)} there"
    moved, moves, changes = 0, [], []
    for i, (a, b) in enumerate(zip(mine, theirs)):
        if a != b:
            moved += 1
            diff(_parse(a), _parse(b), f"[{i}]", moves, changes)
    largest = max(moves, default=(0.0, "none"))
    return (f"{workload:8s} {len(mine):4d} items  moved {moved}  largest float move "
            f"{largest[0]:.3g} at {largest[1]}  non-float changes {len(changes)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="root of the other checkout")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        return emit(args.emit, args.workload, args.seed)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        print(digest(workload, args.seed) if args.against is None else
              compare(workload, args.seed, args.against.resolve()), flush=True)


if __name__ == "__main__":
    main()
