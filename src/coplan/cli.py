"""Command-line scenario runner.

    coplan --scenario toy --analyses jit,firstbest,vcg,menu
    coplan --scenario path/to/case.scn --mode cpp --alpha 50 --trace
    coplan --scenario toy --json report.json

``--scenario`` accepts a file path or a bundled name (``toy``,
``toy_dynamic``).  The human-readable report goes to stdout; ``--json PATH``
additionally writes the byte-stable machine-readable report.  ``--trace``
streams one consensus record per iteration to stderr in cpp/protocol modes.
In protocol mode the runner serves both agents on local sockets (listen
address from ``COPLAN_LISTEN`` when set) and coordinates over the wire.
"""

import argparse
import sys
from dataclasses import replace

from .errors import CoplanError
from .mechanism import FeePolicy
from .reports import run
from .scenario import ANALYSES, RUN_MODES, load_scenario


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coplan",
        description="Coordinate a bilateral supply plan and settle it with "
                    "externality transfers, fees, menus, and rolling-horizon payments.",
    )
    parser.add_argument("--scenario", required=True,
                        help="scenario file path or bundled name (toy, toy_dynamic)")
    parser.add_argument("--analyses", default="jit,firstbest,vcg,menu",
                        help=f"comma-separated subset of {','.join(ANALYSES)}, or 'all'")
    parser.add_argument("--mode", choices=RUN_MODES, default=None,
                        help="override the scenario's coordination mode")
    parser.add_argument("--alpha", type=float, default=None,
                        help="override the fee policy with a flat activity fee")
    parser.add_argument("--trace", action="store_true",
                        help="stream per-iteration consensus records to stderr")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the report")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report to PATH")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.mode is not None:
            scenario = replace(scenario, mode=args.mode)
        if args.alpha is not None:
            scenario = replace(scenario, fee=FeePolicy.additive(args.alpha))
        if args.analyses.strip() == "all":
            analyses = list(ANALYSES)
            if scenario.dynamic is None:
                analyses.remove("dynamic")
        else:
            analyses = [a.strip() for a in args.analyses.split(",") if a.strip()]
        trace = sys.stderr if args.trace else None
        report = run(scenario, analyses=analyses, trace=trace, seed=args.seed)
    except CoplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"report failed its self-check: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report.text)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
