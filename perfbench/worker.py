"""Benchmark worker: one fresh process per task, started by ``run.py``.

    worker.py probe INPUTS SPAWNED          set up only, report the set-up time
    worker.py run WORKLOAD INPUTS SECONDS TRACE SPAWNED OUTDIR

``SPAWNED`` is the ``time.monotonic()`` reading the parent took just before
starting this process, so set-up time covers interpreter start, ``import
coplan`` and loading the scenario documents.  ``run`` prints one JSON object
as its last line.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))


def _import_coplan():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import coplan
    import coplan.reports
    import coplan.scenario
    if Path(coplan.__file__).resolve().parent != (src / "coplan").resolve():
        raise ImportError(f"coplan imported from {coplan.__file__}, not from {src}")
    return coplan


# -- known faults ---------------------------------------------------------------

def classify(exc, thread_errors):
    """Name the known fault an item hit, or describe an unexpected one.
    Over the wire a fault kills the agent's session thread and the caller
    sees the stream close, so the thread's exception names the fault."""
    tb = exc.__traceback__
    frames = []
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    if isinstance(exc, IndexError) and "_northwest_corner" in frames:
        return "northwest-corner-index"
    errors = [(type(exc).__name__, str(exc))]
    if isinstance(exc, ConnectionError) and "peer closed the stream" in str(exc):
        errors = thread_errors
    for name, msg in errors:
        if name == "NonConvergenceError" and "did not close its gap" in msg:
            return "best-response-gap-tolerance"
        if name == "NonConvergenceError" and "master exceeded its iteration budget" in msg:
            return "qp-master-iteration-budget"
    return f"unexpected {type(exc).__name__}: {exc}"


# -- run ------------------------------------------------------------------------

def _quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Loop:
    """Closed loop with one caller: each item starts when the last returns."""

    def __init__(self, coplan, items, analyses):
        self.coplan = coplan
        self.items = items
        self.analyses = analyses
        self.thread_errors = []
        self.first = {}          # slot -> report json of its first success
        self.times = []          # wall time of each successful item (s)
        self.attempted = 0
        self.failures = {}       # reason -> count
        self.slot_attempts = {}
        self.nondeterministic = 0

    def run_rounds(self, seconds):
        reports, scenario = self.coplan.reports, self.coplan.scenario
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for slot, item in enumerate(self.items):
                self.thread_errors.clear()
                t = time.perf_counter()
                try:
                    out = reports.run(scenario.scenario_from_dict(item["doc"]),
                                      analyses=self.analyses).to_json()
                except Exception as exc:  # every failure is counted by cause
                    dt = time.perf_counter() - t
                    reason = classify(exc, self.thread_errors)
                    self.failures[reason] = self.failures.get(reason, 0) + 1
                    out = None
                else:
                    dt = time.perf_counter() - t
                    self.times.append(dt)
                self.attempted += 1
                self.slot_attempts[slot] = self.slot_attempts.get(slot, 0) + 1
                if out is not None:
                    if slot not in self.first:
                        self.first[slot] = out
                    elif out != self.first[slot]:
                        self.nondeterministic += 1
            now = time.perf_counter()
            # end on the round boundary nearest to the requested length
            if now - started + 0.5 * (now - round_start) >= seconds:
                return now - started


def _e2e(loop, elapsed, with_p90):
    p50 = 1e3 * _quantile(loop.times, 0.5) if loop.times else 0.0
    p90 = 1e3 * _quantile(loop.times, 0.9) if with_p90 and loop.times else p50
    return {"items_per_s": (loop.attempted / elapsed, "1/s"), "item_ms_p50": (p50, "ms"),
            "item_ms_p90": (p90, "ms")}


def _check(loop, workload):
    """Oracle checks on the first report of each slot; repeats were compared
    byte for byte with it inside the loop."""
    import oracles
    check = oracles.CHECKS[workload]
    bad = {}
    for slot, out in sorted(loop.first.items()):
        reasons = check(loop.items[slot]["doc"], json.loads(out))
        if reasons:
            bad[loop.items[slot]["doc"]["name"]] = reasons
            # every attempt of the slot produced this same report
            loop.failures["check"] = loop.failures.get("check", 0) + loop.slot_attempts[slot]
    if loop.nondeterministic:
        loop.failures["nondeterministic"] = loop.nondeterministic
    return bad


def _spot_check_wire(coplan, loop):
    """Replay two wire items with a trajectory trace, over the wire and in
    process, and require the same records bit for bit."""
    from dataclasses import replace
    reports, scenario = coplan.reports, coplan.scenario
    done, bad = 0, []
    for slot in sorted(loop.first):
        if done == 2:
            break
        base = scenario.scenario_from_dict(loop.items[slot]["doc"])
        runs = {}
        for mode in ("protocol", "cpp"):
            records = []
            rep = reports.run(replace(base, mode=mode), analyses=["jit", "firstbest"],
                              trace=records.append)
            runs[mode] = (records, rep.machine["firstbest"])
        if runs["protocol"] != runs["cpp"]:
            bad.append(base.name)
        done += 1
    return done, bad


def run(workload, inputs, seconds, trace, spawned, outdir):
    coplan = _import_coplan()
    imported = time.monotonic()
    payload = json.loads(Path(inputs).read_text())
    ready = time.monotonic()

    import threading
    import workloads
    items = payload["items"]
    loop = Loop(coplan, items, workloads.ANALYSES[workload])
    threading.excepthook = lambda a: loop.thread_errors.append(
        (a.exc_type.__name__, str(a.exc_value)))

    result = {"setup_s": ready - spawned, "import_ms": 1e3 * (imported - spawned)}
    if not trace:
        elapsed = loop.run_rounds(seconds)
        peak = _peak_rss_mb()
        metrics = _e2e(loop, elapsed, workload in workloads.P90_WORKLOADS)
        metrics["peak_rss_mb"] = (peak, "MB")
        result["elapsed_s"] = elapsed
    else:
        import spans as tracing
        untraced = loop.run_rounds(seconds / 2)
        base_rate = loop.attempted / untraced
        first_attempts = loop.attempted
        tracer = tracing.Tracer().install(coplan)
        tracer.enabled = True
        traced = loop.run_rounds(seconds / 2)
        tracer.enabled = False
        time.sleep(0.05)  # let server session threads record their last spans
        tracer.uninstall()
        n = loop.attempted - first_attempts
        metrics = tracing.layer_metrics(tracer.spans, n, threading.get_ident())
        metrics["setup.import_ms"] = (result["import_ms"], "ms")
        # traced / untraced items per second
        metrics["trace.overhead"] = ((n / traced) / base_rate, "ratio")
        spans_path = Path(outdir) / f"trace-{workload}-{payload['seed']}.json"
        spans_path.write_text(json.dumps(tracer.dump()) + "\n")
        result["trace_file"] = str(spans_path.relative_to(ROOT))
        result["elapsed_s"] = untraced + traced

    bad = _check(loop, workload)
    spot = None
    if workload == "wire":
        spot = _spot_check_wire(coplan, loop)
        if spot[1]:
            bad["wire spot-check"] = [f"trajectory differs over the wire: {spot[1]}"]
    expected = {item["expect"] for item in items if item["expect"]}
    result.update({
        "correct": not bad,
        "attempted": loop.attempted,
        "failed": sum(loop.failures.values()),
        "failures": loop.failures,
        "expected_faults": sorted(expected),
        "check_failures": bad,
        "round_size": len(items),
        "distinct_items_ok": len(loop.first),
        "spot_checked": None if spot is None else spot[0],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    print(json.dumps(result, sort_keys=True))


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(inputs, spawned):
    _import_coplan()
    json.loads(Path(inputs).read_text())
    print(json.dumps({"setup_s": time.monotonic() - spawned}))


def main(argv):
    task = argv[0]
    if task == "probe":
        probe(argv[1], float(argv[2]))
    elif task == "run":
        run(argv[1], argv[2], float(argv[3]), argv[4] == "1", float(argv[5]), argv[6])
    else:
        raise SystemExit(f"unknown task {task!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
