"""Split the time of each transport solve of a benchmark round into phases.

    python tests/solve_split.py --seed 101
    python tests/solve_split.py --seed 101 --root ../other-checkout

Runs the ``settle`` round that a benchmark run with ``--seed`` repeats (the
round comes from this checkout's ``perfbench``) under the coplan of
``--root`` (this checkout by default), in process, ``--passes`` times.  A
solve is each outermost call of ``retailer_utility``, ``supplier_utility`` or
``solve_transport``, and its time is split by timestamps taken in wrappers of
the module's own helpers:

- ``validate``: the outermost calls of ``as_plan``, ``_as_array`` and
  ``checked`` inside the solve;
- ``tableau``: the rest of the time before ``_northwest_corner`` starts;
- ``simplex``: from ``_northwest_corner``'s start to ``_optimize``'s end;
- ``assemble``: from there to the solve's end (result arrays, objective,
  duals, the utility's value and supergradient).

The script prints one JSON object: the solve count of a pass and the
microseconds per solve of each phase in the pass with the least total.  The wrappers add
their own overhead to every phase, so compare only runs of this script.  The
script is not a test module, so pytest does not collect it.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_ENTRIES = ("retailer_utility", "supplier_utility", "solve_transport")
_CHECKS = ("as_plan", "_as_array", "checked")
_PHASES = ("validate", "tableau", "simplex", "assemble")


class _Split:
    """Phase clocks of the solve in progress and totals over all solves."""

    def __init__(self):
        self.depth = self.checking = 0
        self.reset()

    def reset(self):
        self.solves, self.totals = 0, dict.fromkeys(_PHASES, 0.0)

    def entry(self, fn):
        def timed(*args, **kwargs):
            self.depth += 1
            if self.depth == 1:
                self.start, self.validate = time.perf_counter(), 0.0
                self.simplex_start = self.simplex_end = None
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self._close(time.perf_counter())
        return timed

    def _close(self, end):
        if self.simplex_start is None:  # refused before any simplex: no solve
            return
        self.solves += 1
        t = self.totals
        t["validate"] += self.validate
        t["tableau"] += self.simplex_start - self.start - self.validate
        t["simplex"] += self.simplex_end - self.simplex_start
        t["assemble"] += end - self.simplex_end

    def check(self, fn):
        def timed(*args, **kwargs):
            self.checking += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.checking -= 1
                if self.checking == 0 and self.depth:
                    self.validate += time.perf_counter() - start
        return timed

    def corner(self, fn):
        def timed(*args, **kwargs):
            self.simplex_start = time.perf_counter()
            return fn(*args, **kwargs)
        return timed

    def optimize(self, fn):
        def timed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.simplex_end = time.perf_counter()
        return timed


def _install(split):
    """Wrap every binding of the timed functions in coplan's modules."""
    import importlib
    from coplan import transport

    modules = [importlib.import_module(f"coplan.{m}")
               for m in ("transport", "mechanism", "consensus", "reports", "_qp")]
    wraps = [(name, split.entry) for name in _ENTRIES] + [(name, split.check) for name in _CHECKS]
    wraps += [("_northwest_corner", split.corner), ("_optimize", split.optimize)]
    for name, wrap in wraps:
        fn = getattr(transport, name)
        timed = wrap(fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, timed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose coplan runs")
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root.resolve() / "src"), str(ROOT / "perfbench")]
    import workloads
    from coplan import reports, scenario

    items = [scenario.scenario_from_dict(item["doc"])
             for item in workloads.round_items("settle", args.seed)]
    split = _Split()
    _install(split)
    best = None
    for _ in range(args.passes):
        split.reset()
        for item in items:
            try:
                reports.run(item, analyses=workloads.ANALYSES["settle"])
            except Exception:  # an item that raises still timed its solves
                pass
        us = {k: round(v / split.solves * 1e6, 2) for k, v in split.totals.items()}
        if best is None or sum(us.values()) < sum(best.values()):
            best = us
    print(json.dumps({"root": str(args.root), "seed": args.seed, "solves": split.solves,
                      "us_per_solve": best, "total_us": round(sum(best.values()), 2)}))


if __name__ == "__main__":
    main()
