"""Span tracing of coplan from outside the package.

``Tracer.install`` replaces public functions of each coplan module with
wrappers that record a span per call: name, start, end, parent span and
thread.  Functions are patched where callers look them up (a module that did
``from .transport import retailer_utility`` holds its own binding), so every
binding of a traced function is replaced.  Spans stay in memory until the run
ends; ``layer_metrics`` turns them into the per-layer table.

Server threads of the wire protocol start their spans under a
``protocol.session`` span, so their work is attributed to the session that
asked for it and not to the coordinator thread waiting on the socket.
"""

import threading
import time
from collections import defaultdict

# (module, attribute, span name, extra recorder).  A recorder receives the
# call's arguments and result and returns a tuple of numbers stored on the
# span.
_FUNCTIONS = (
    ("transport", "solve_transport", "transport.solve", None),
    ("transport", "retailer_utility", "transport.utility", None),
    ("transport", "supplier_utility", "transport.utility", None),
    ("consensus", "maximize_cut_model", "qp.master", lambda a, r: (len(a[0]),)),
    ("consensus", "run_consensus", "consensus.run",
     lambda a, r: (r.iterations, int(not r.converged))),
    ("consensus", "best_response", "consensus.best_response", lambda a, r: (r.evaluations,)),
    ("consensus", "coordinator_step", "consensus.coordinator_step", None),
    ("mechanism", "linprog", "mechanism.linprog", None),
    ("mechanism", "standalone_plans", "mechanism.standalone", None),
    ("mechanism", "efficient_plan", "mechanism.efficient", None),
    ("mechanism", "vcg_transfers", "mechanism.vcg", None),
    ("mechanism", "budget_balance_check", "mechanism.vcg", None),
    ("mechanism", "default_menu_plans", "mechanism.menu", None),
    ("mechanism", "build_menu", "mechanism.menu", None),
    ("mechanism", "supplier_choose", "mechanism.menu", None),
    ("dynamic", "simulate", "dynamic.simulate", None),
    ("dynamic", "coordinated_plan", "dynamic.coordinate",
     lambda a, r: (int(r.fallback_to_baseline),)),
    ("dynamic", "roll_forward", "dynamic.roll", None),
    ("protocol", "encode", "protocol.encode", lambda a, r: (len(r),)),
    ("protocol", "decode", "protocol.decode", None),
    ("reports", "run", "reports.run", None),
    ("scenario", "scenario_from_dict", "scenario.parse", None),
)

# (module, class, method, span name)
_METHODS = (
    ("dynamic", "DynamicRetailerAgent", "evaluate", "dynamic.retailer_eval"),
    ("dynamic", "DynamicSupplierAgent", "evaluate", "dynamic.supplier_eval"),
    ("dynamic", "DynamicSupplierAgent", "prox_respond", "dynamic.supplier_prox"),
    ("protocol", "AgentServer", "__init__", "protocol.setup"),
    ("protocol", "AgentServer", "start", "protocol.setup"),
    ("protocol", "AgentServer", "stop", "protocol.teardown"),
    ("protocol", "AgentServer", "_run_session", "protocol.session"),
    ("protocol", "RemoteAgent", "__init__", "protocol.setup"),
    ("protocol", "RemoteAgent", "close", "protocol.teardown"),
    ("protocol", "RemoteAgent", "respond", "protocol.round"),
    ("protocol", "RemoteAgent", "offer", "protocol.offer"),
)

SHARE_LAYERS = ("transport", "qp", "consensus", "mechanism", "dynamic", "protocol",
                "protocol_wait", "reports", "scenario")

_MODULES = ("transport", "_qp", "consensus", "mechanism", "dynamic", "protocol",
            "scenario", "reports", "cli")


class Tracer:
    """In-memory span recorder.  A span is the tuple
    ``(id, name, parent_id, thread_id, start, end, extra)``."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62)).__next__
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, extra):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = tracer._ids()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = None
                if extra is not None and result is not None:
                    value = extra(args, result)
                tracer.spans.append((span_id, name, parent, threading.get_ident(),
                                     start, end, value))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, coplan):
        """Patch every binding of the traced functions in coplan's modules."""
        import importlib
        modules = [importlib.import_module(f"{coplan.__name__}.{m}") for m in _MODULES]
        for mod_name, attr, name, extra in _FUNCTIONS:
            home = importlib.import_module(f"{coplan.__name__}.{mod_name}")
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, name, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(f"{coplan.__name__}.{mod_name}"), cls_name)
            fn = cls.__dict__[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, None))
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def dump(self):
        """Spans as JSON-ready rows with times in ms from the first span."""
        if not self.spans:
            return []
        t0 = min(s[4] for s in self.spans)
        return [{"id": s[0], "name": s[1], "parent": s[2], "thread": s[3],
                 "start_ms": 1e3 * (s[4] - t0), "end_ms": 1e3 * (s[5] - t0),
                 "extra": s[6]} for s in self.spans]


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, items, main_thread):
    """Per-layer table from a list of spans over ``items`` attempted items.

    Times are ms per item and counts are per item, so whole rounds give the
    same counts whatever the run length.  ``share.*`` metrics split the item
    wall time (the main-thread ``reports.run`` and ``scenario.parse`` spans)
    by layer self time; ``share.protocol_wait`` is round-trip time not spent
    in the server's best responses.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]

    def dur(s):
        return s[5] - s[4]

    def self_time(s):
        return dur(s) - child_time[s[0]]

    def in_session(s):
        while s[2] is not None:
            s = by_id[s[2]]
        return s[1] == "protocol.session"

    total = defaultdict(float)
    count = defaultdict(int)
    extra = defaultdict(lambda: [0.0, 0.0])
    self_by_layer = defaultdict(float)
    server_br = 0.0
    for s in spans:
        name = s[1]
        total[name] += dur(s)
        count[name] += 1
        for k, value in enumerate(s[6] or ()):
            extra[name][k] += value
        served = s[3] != main_thread and in_session(s)
        if name == "consensus.best_response" and served:
            server_br += dur(s)
        if name in ("protocol.encode", "protocol.decode") and served:
            continue  # inside a round trip: counted as protocol_wait
        if name in ("protocol.session", "protocol.round"):
            continue  # idle session wait / round trip: counted as protocol_wait
        self_by_layer[layer_of(name)] += self_time(s)
    wall = sum(dur(s) for s in spans if s[3] == main_thread and s[2] is None)
    rounds = total["protocol.round"]
    # client-side encode/decode inside a round trip belongs to the wait
    client_io = sum(dur(s) for s in spans
                    if s[3] == main_thread and s[1] in ("protocol.encode", "protocol.decode")
                    and s[2] is not None and by_id[s[2]][1] == "protocol.round")
    self_by_layer["protocol"] -= client_io
    wait = rounds - server_br

    n = max(items, 1)
    ms = 1e3 / n
    metrics = {
        "transport.solve_calls": (count["transport.solve"] / n, "count/item"),
        "transport.solve_ms": (total["transport.solve"] * ms, "ms/item"),
        "qp.master_calls": (count["qp.master"] / n, "count/item"),
        "qp.master_ms": (total["qp.master"] * ms, "ms/item"),
        "qp.cuts_mean": (extra["qp.master"][0] / count["qp.master"]
                         if count["qp.master"] else 0.0, "count"),
        "consensus.runs": (count["consensus.run"] / n, "count/item"),
        "consensus.iterations": (extra["consensus.run"][0] / n, "count/item"),
        "consensus.br_calls": (count["consensus.best_response"] / n, "count/item"),
        "consensus.br_evals": (extra["consensus.best_response"][0] / n, "count/item"),
        "consensus.br_self_ms": (sum(self_time(s) for s in spans
                                     if s[1] == "consensus.best_response") * ms, "ms/item"),
        "consensus.coordinator_ms": (total["consensus.coordinator_step"] * ms, "ms/item"),
        "consensus.unconverged": (extra["consensus.run"][1] / n, "count/item"),
        "mechanism.lp_calls": (count["mechanism.linprog"] / n, "count/item"),
        "mechanism.lp_ms": (total["mechanism.linprog"] * ms, "ms/item"),
        "mechanism.standalone_ms": (total["mechanism.standalone"] * ms, "ms/item"),
        "mechanism.efficient_ms": (total["mechanism.efficient"] * ms, "ms/item"),
        "mechanism.vcg_ms": (total["mechanism.vcg"] * ms, "ms/item"),
        "mechanism.menu_ms": (total["mechanism.menu"] * ms, "ms/item"),
        "dynamic.weeks": (count["dynamic.roll"] / n, "count/item"),
        "dynamic.coordinate_ms": (total["dynamic.coordinate"] * ms, "ms/item"),
        "dynamic.fallbacks": (extra["dynamic.coordinate"][0] / n, "count/item"),
        "dynamic.retailer_evals": (count["dynamic.retailer_eval"] / n, "count/item"),
        "dynamic.retailer_eval_ms": (total["dynamic.retailer_eval"] * ms, "ms/item"),
        "dynamic.supplier_prox_calls": (count["dynamic.supplier_prox"] / n, "count/item"),
        "dynamic.supplier_prox_ms": (total["dynamic.supplier_prox"] * ms, "ms/item"),
        "dynamic.roll_ms": (total["dynamic.roll"] * ms, "ms/item"),
        "protocol.sessions": (count["protocol.session"] / n, "count/item"),
        "protocol.rounds": (count["protocol.round"] / n, "count/item"),
        "protocol.round_ms": (rounds * ms, "ms/item"),
        "protocol.server_br_ms": (server_br * ms, "ms/item"),
        "protocol.wait_ms": (wait * ms, "ms/item"),
        "protocol.messages": (count["protocol.encode"] / n, "count/item"),
        "protocol.bytes": (extra["protocol.encode"][0] / n, "B/item"),
        "protocol.encode_ms": (total["protocol.encode"] * ms, "ms/item"),
        "protocol.decode_ms": (total["protocol.decode"] * ms, "ms/item"),
        "protocol.session_setup_ms": (total["protocol.setup"] * ms, "ms/item"),
        "protocol.teardown_ms": (total["protocol.teardown"] * ms, "ms/item"),
        "scenario.parse_ms": (total["scenario.parse"] * ms, "ms/item"),
        "reports.assemble_self_ms": (self_by_layer["reports"] * ms, "ms/item"),
    }
    shares = dict(self_by_layer, protocol_wait=wait)
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = (100.0 * shares.get(layer, 0.0) / wall if wall else 0.0, "%")
    return metrics
