"""Digest the machine reports of the benchmark rounds, one sha256 per workload.

    python tests/report_digests.py --seed 101

For each workload of ``perfbench/workloads.py`` this builds the round that a
benchmark run with ``--seed`` repeats, runs every item through
``coplan.reports.run`` with the workload's analyses, and prints the item count
and one sha256 over the ``Report.to_json()`` outputs in round order.  An item
that raises contributes its exception type and message instead.  Two
checkouts that print the same lines produce byte-identical reports on every
item.  perfbench is only imported; coplan comes from this checkout's ``src``.
The script is not a test module, so pytest does not collect it.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from coplan import reports, scenario  # noqa: E402


def item_outputs(workload, seed):
    """Each item's report JSON, or ``"Type: message"`` if it raised, in round order."""
    for item in workloads.round_items(workload, seed):
        try:
            yield reports.run(scenario.scenario_from_dict(item["doc"]),
                              analyses=workloads.ANALYSES[workload]).to_json()
        except Exception as exc:  # a raising item is part of the digest too
            yield f"{type(exc).__name__}: {exc}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for out in item_outputs(workload, args.seed):
            digest.update(out.encode())
            count += 1
        print(f"{workload:8s} {count:4d} items  sha256 {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
