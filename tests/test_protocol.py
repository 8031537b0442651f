import json
import socket
import threading
import time

import numpy as np
import pytest

from coplan.consensus import (
    ConsensusConfig,
    RetailerAgent,
    SupplierAgent,
    best_response,
    run_consensus,
)
from coplan import protocol, transport
from coplan._qp import CutSet
from coplan.errors import (AgentTimeoutError, NonConvergenceError, ParameterError, ParseError,
                           ProtocolError)
from coplan.protocol import (
    MAX_LINE_BYTES,
    AgentServer,
    Message,
    RemoteAgent,
    decode,
    encode,
)
from coplan.transport import supplier_utility


def random_message(rng):
    kind = str(rng.choice(["hello", "query", "response", "offer", "accept",
                           "decline", "error", "bye"]))
    session = f"s{int(rng.integers(0, 1000))}"
    dim = int(rng.integers(1, 6))
    vec = lambda: rng.normal(scale=100.0, size=dim)
    iteration = int(rng.integers(0, 10_000))
    if kind == "hello":
        payload = {"dim": dim}
    elif kind == "query":
        payload = {"iteration": iteration, "dim": dim, "rho": float(rng.uniform(0.1, 10)),
                   "prices": vec(), "z": vec()}
    elif kind == "response":
        payload = {"iteration": iteration, "dim": dim, "plan": vec()}
    elif kind == "offer":
        payload = {"dim": dim, "plan": vec(), "fee": float(rng.normal(scale=50))}
    elif kind == "error":
        payload = {"reason": "test-reason"}
    else:
        payload = {}
    return Message(kind=kind, session=session, payload=payload)


def assert_messages_equal(a, b):
    assert a.kind == b.kind and a.session == b.session
    assert set(a.payload) == set(b.payload)
    for key, val in a.payload.items():
        other = b.payload[key]
        if isinstance(val, np.ndarray) or isinstance(other, np.ndarray):
            assert np.array_equal(np.asarray(val, dtype=float), np.asarray(other, dtype=float))
        else:
            assert val == other


def test_roundtrip_identity_on_random_messages():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        msg = random_message(rng)
        assert_messages_equal(decode(encode(msg)), msg)


def test_encoding_is_byte_stable():
    rng = np.random.default_rng(3)
    for _ in range(50):
        msg = random_message(rng)
        assert encode(msg) == encode(decode(encode(msg)))


def test_parse_errors():
    with pytest.raises(ParseError):
        decode(b"")
    with pytest.raises(ParseError):
        decode(b"not json at all")
    with pytest.raises(ParseError):
        decode(b'{"kind":"warp","session":"s1"}')
    with pytest.raises(ParseError, match="dimension-mismatch"):
        decode(b'{"kind":"response","session":"s1","iteration":1,"dim":3,"plan":[1.0,2.0]}')
    with pytest.raises(ParseError, match="non-finite"):
        decode(b'{"kind":"query","session":"s1","iteration":1,"dim":1,"rho":NaN,'
               b'"prices":[0.0],"z":[0.0]}')
    # an integer too large for a float is no finite number either
    with pytest.raises(ParseError, match="non-finite number in fee"):
        decode(b'{"kind":"offer","session":"s1","dim":1,"plan":[1.0],"fee":1%s}' % (b"0" * 400))
    with pytest.raises(ParseError, match="non-finite number in plan"):
        decode(b'{"kind":"offer","session":"s1","dim":1,"plan":[1%s],"fee":1.0}' % (b"0" * 400))
    with pytest.raises(ParseError, match="iteration must be a nonnegative integer"):
        decode(b'{"kind":"response","session":"s1","iteration":-1,"dim":1,"plan":[0.0]}')
    with pytest.raises(ParseError):
        decode(b'{"kind":"bye","session":"s1","stray":1}')
    with pytest.raises(ParseError):
        decode(b'{"kind":"bye"}')
    with pytest.raises(ParseError, match="BOM"):
        decode(b'\xef\xbb\xbf{"kind":"bye","session":"s1"}')


def test_decoder_survives_fuzzed_lines():
    rng = np.random.default_rng(11)
    okay = 0
    for _ in range(20_000):
        n = int(rng.integers(0, 60))
        line = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        try:
            decode(line)
            okay += 1
        except ParseError:
            pass
    assert okay <= 5  # random bytes essentially never form a valid message


@pytest.fixture()
def toy_supplier_server(toy_supplier):
    reservation = supplier_utility(toy_supplier, [40.0, 60.0]).value
    server = AgentServer(SupplierAgent(toy_supplier), reservation=reservation).start()
    yield server
    server.stop()


def test_served_response_matches_in_process(toy_supplier, toy_supplier_server):
    agent = SupplierAgent(toy_supplier)
    remote = RemoteAgent(toy_supplier_server.address, dim=2)
    rng = np.random.default_rng(7)
    cuts = CutSet()  # the session's cuts, replayed in process
    for it in range(1, 5):
        prices = rng.uniform(-5, 5, size=2)
        z = rng.uniform(0, 80, size=2)
        got = remote.respond(prices, z, 1.0, it)
        want = best_response(agent, prices, z, 1.0, cuts=cuts).plan
        assert np.array_equal(got, want)
    remote.close()


def test_offer_accept_and_decline(toy_supplier, toy_supplier_server):
    remote = RemoteAgent(toy_supplier_server.address, dim=2)
    # net 1540 - 80 = 1460 >= standalone 1390
    assert remote.offer([10.0, 90.0], 80.0) is True
    remote.close()
    remote = RemoteAgent(toy_supplier_server.address, dim=2)
    # fee exceeds the supplier's gain at this plan
    assert remote.offer([10.0, 90.0], 151.0) is False
    remote.close()


@pytest.mark.parametrize("adapt_rho", [False, True])
def test_consensus_over_wire_matches_in_process(toy_retailer, toy_supplier, adapt_rho):
    cfg = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, adapt_rho=adapt_rho,
                          initial_plan=np.array([40.0, 60.0]))
    local_trace, wire_trace = [], []
    local = run_consensus([RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)], cfg,
                          trace=local_trace.append)
    with protocol.served([RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)]) as remotes:
        wire = run_consensus(remotes, cfg, trace=wire_trace.append)

    assert np.array_equal(wire.plan, local.plan)
    assert wire.iterations == local.iterations
    assert wire_trace == local_trace   # every proposal, residual and penalty
    # an adaptive run changes the penalty mid-session, a fixed one never does
    assert (len({r["rho"] for r in wire_trace}) > 1) == adapt_rho


def test_silent_agent_times_out():
    listener = socket.create_server(("127.0.0.1", 0))

    def mute():
        conn, _ = listener.accept()
        time.sleep(3.0)
        conn.close()

    thread = threading.Thread(target=mute, daemon=True)
    thread.start()
    remote = RemoteAgent(listener.getsockname(), dim=2, timeout=0.3)
    with pytest.raises(AgentTimeoutError):
        remote.respond(np.zeros(2), np.zeros(2), 1.0, 1)
    listener.close()


def test_wrong_iteration_echo_is_protocol_error():
    listener = socket.create_server(("127.0.0.1", 0))

    def bad_echo():
        conn, _ = listener.accept()
        buf = b""
        while b"\n" not in buf:
            buf += conn.recv(65536)
        _, buf = buf.split(b"\n", 1)  # hello
        while b"\n" not in buf:
            buf += conn.recv(65536)
        line, _ = buf.split(b"\n", 1)
        query = decode(line)
        reply = Message("response", query.session,
                        payload={"iteration": query.payload["iteration"] + 1, "dim": 2,
                                 "plan": [0.0, 0.0]})
        conn.sendall(encode(reply))
        conn.close()

    thread = threading.Thread(target=bad_echo, daemon=True)
    thread.start()
    remote = RemoteAgent(listener.getsockname(), dim=2)
    with pytest.raises(ProtocolError, match="echoed iteration"):
        remote.respond(np.zeros(2), np.zeros(2), 1.0, 1)
    listener.close()


def test_dimension_mismatch_session_is_rejected(toy_supplier, toy_supplier_server):
    remote = RemoteAgent(toy_supplier_server.address, dim=3)
    with pytest.raises(ProtocolError):
        remote.respond(np.zeros(3), np.zeros(3), 1.0, 1)


HELLO = Message("hello", "s1", payload={"dim": 2})


def exchange(address, *messages):
    """Send raw messages on one connection and return every reply the server
    sends before it closes the connection."""
    conn = socket.create_connection(address, timeout=10.0)
    try:
        for msg in messages:
            conn.sendall(msg if isinstance(msg, bytes) else encode(msg))
        buf = b""
        while chunk := conn.recv(65536):
            buf += chunk
    finally:
        conn.close()
    return [decode(line) for line in buf.splitlines()]


def test_overlong_line_gets_error_and_closes_session(toy_supplier_server):
    replies = exchange(toy_supplier_server.address, HELLO,
                       b"x" * (MAX_LINE_BYTES + 1))  # no newline
    # one error and nothing after it: the server closed the session
    assert [r.kind for r in replies] == ["error"]
    assert "exceeds" in replies[0].payload["reason"]


def test_hello_carrying_rho_is_refused(toy_supplier_server):
    # the penalty rides in each query; a session-wide rho is not a field of hello
    replies = exchange(toy_supplier_server.address,
                       b'{"kind":"hello","session":"s1","dim":2,"rho":1.0}\n')
    assert [r.kind for r in replies] == ["error"]
    assert "unexpected fields" in replies[0].payload["reason"]


def test_query_at_nonpositive_rho_gets_error_and_server_lives_on(toy_supplier,
                                                                 toy_supplier_server):
    query = Message("query", "s1", payload={"iteration": 1, "dim": 2, "rho": 0.0,
                                            "prices": [0.0, 0.0], "z": [10.0, 90.0]})
    replies = exchange(toy_supplier_server.address, HELLO, query)
    # one error and nothing after it: the server closed the session
    assert [r.kind for r in replies] == ["error"]
    assert "rho must be positive" in replies[0].payload["reason"]
    remote = RemoteAgent(toy_supplier_server.address, dim=2)
    try:
        got = remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
    finally:
        remote.close()
    want = best_response(SupplierAgent(toy_supplier), np.zeros(2), np.array([10.0, 90.0]), 1.0)
    assert np.array_equal(got, want.plan)


@pytest.mark.parametrize("field", ["prices", "z", "rho"])
def test_query_with_a_number_too_large_for_a_float_gets_error(toy_supplier, field,
                                                              toy_supplier_server):
    # regression: json reads a 400-digit integer as an int that no float
    # holds; the finiteness check raised TypeError, the session thread died
    # and the client saw the stream close with no error reply
    huge = "9" * 400
    fields = {"prices": "[0.0,0.0]", "z": "[10.0,90.0]", "rho": "1.0"}
    fields[field] = f"[0.0,{huge}]" if field != "rho" else huge
    line = ('{"kind":"query","session":"s1","iteration":1,"dim":2,"rho":%s,'
            '"prices":%s,"z":%s}\n' % (fields["rho"], fields["prices"], fields["z"])).encode()
    with pytest.raises(ParseError, match="non-finite"):
        decode(line)
    replies = exchange(toy_supplier_server.address, HELLO, line)
    assert [r.kind for r in replies] == ["error"]
    assert "non-finite" in replies[0].payload["reason"]
    remote = RemoteAgent(toy_supplier_server.address, dim=2)
    try:
        got = remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
    finally:
        remote.close()
    want = best_response(SupplierAgent(toy_supplier), np.zeros(2), np.array([10.0, 90.0]), 1.0)
    assert np.array_equal(got, want.plan)


def test_offer_of_wrong_dimension_gets_error(toy_supplier_server):
    offer = Message("offer", "s1", payload={"dim": 3, "plan": [1.0, 2.0, 3.0], "fee": 0.0})
    replies = exchange(toy_supplier_server.address, HELLO, offer)
    assert [(r.kind, r.payload) for r in replies] == [("error", {"reason": "dimension-mismatch"})]


def test_offer_with_negative_entry_gets_error(toy_supplier_server):
    remote = RemoteAgent(toy_supplier_server.address, dim=2)
    try:
        with pytest.raises(ProtocolError, match="nonnegative"):
            remote.offer([-5.0, 10.0], 0.0)
    finally:
        remote.close()


def test_offer_at_the_settlement_tolerance_is_accepted(toy_supplier):
    # regression: the server took an offer only when value - fee >= reservation
    # exactly, while the settlement it answers for accepts a surplus down to
    # -1e-9, so cpp and protocol mode could disagree on the same settlement
    value = supplier_utility(toy_supplier, [10.0, 90.0]).value
    server = AgentServer(SupplierAgent(toy_supplier), reservation=value - 100.0).start()
    remote = RemoteAgent(server.address, dim=2)
    try:
        assert remote.offer([10.0, 90.0], 100.0 + 5e-10) is True
        assert remote.offer([10.0, 90.0], 100.0 + 2e-9) is False
    finally:
        remote.close()
        server.stop()


def test_offer_beyond_capacity_is_declined(toy_supplier):
    server = AgentServer(SupplierAgent(toy_supplier)).start()  # reservation -inf
    remote = RemoteAgent(server.address, dim=2)
    try:
        assert remote.offer([100.0, 100.0], 0.0) is False  # capacity is 110
        assert remote.offer([10.0, 90.0], 0.0) is True     # the session lives on
    finally:
        remote.close()
        server.stop()


class StallingSupplier(SupplierAgent):
    """Supplier whose utility oracle gives up while ``stall`` is set."""

    stall = True

    def evaluate(self, plan):
        if self.stall:
            raise NonConvergenceError("utility oracle did not converge")
        return super().evaluate(plan)


def test_failed_query_gets_error_and_server_lives_on(toy_supplier):
    agent = StallingSupplier(toy_supplier)
    server = AgentServer(agent).start()
    try:
        remote = RemoteAgent(server.address, dim=2)
        with pytest.raises(ProtocolError, match="did not converge"):
            remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
        remote.close()
        agent.stall = False
        remote = RemoteAgent(server.address, dim=2)
        got = remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
        remote.close()
        want = best_response(SupplierAgent(toy_supplier), np.zeros(2), np.array([10.0, 90.0]), 1.0)
        assert np.array_equal(got, want.plan)
    finally:
        server.stop()


def test_connection_past_the_session_cap_gets_server_busy(toy_supplier, toy_supplier_server):
    # MAX_SESSIONS idle sessions fill the server: the next connection gets one
    # error reply and starts no thread, and a session that ends frees its slot
    address = toy_supplier_server.address
    threads = threading.active_count()
    first = socket.create_connection(address, timeout=10.0)
    first.sendall(encode(HELLO))
    idle = [RemoteAgent(address, dim=2) for _ in range(protocol.MAX_SESSIONS - 1)]
    try:
        busy = RemoteAgent(address, dim=2)
        with pytest.raises(ProtocolError, match="server busy"):
            busy.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
        busy.close()
        assert threading.active_count() - threads <= protocol.MAX_SESSIONS
        first.sendall(encode(Message("bye", "s1")))
        assert first.recv(1) == b""  # the server ended that session
        idle.append(RemoteAgent(address, dim=2))
        got = idle[-1].respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
        want = best_response(SupplierAgent(toy_supplier), np.zeros(2), np.array([10.0, 90.0]), 1.0)
        assert np.array_equal(got, want.plan)
    finally:
        first.close()
        for remote in idle:
            remote.close()


def test_idle_session_is_closed(toy_supplier_server, monkeypatch):
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.2)
    started = time.monotonic()
    assert exchange(toy_supplier_server.address, HELLO) == []
    assert time.monotonic() - started < 5.0


def test_explicit_address_ignores_listen_env(toy_supplier, monkeypatch):
    monkeypatch.setenv("COPLAN_LISTEN", "bogus")
    AgentServer(SupplierAgent(toy_supplier), host="127.0.0.1", port=0).stop()
    with pytest.raises(ParameterError, match="COPLAN_LISTEN"):
        AgentServer(SupplierAgent(toy_supplier), host="127.0.0.1")


def test_bind_failure_names_the_address(toy_supplier, monkeypatch):
    busy = socket.create_server(("127.0.0.1", 0))
    port = busy.getsockname()[1]
    try:
        with pytest.raises(ParameterError, match=f"127.0.0.1:{port}: ") as info:
            AgentServer(SupplierAgent(toy_supplier), host="127.0.0.1", port=port)
        assert "COPLAN_LISTEN" not in str(info.value)
        monkeypatch.setenv("COPLAN_LISTEN", f"127.0.0.1:{port}")
        with pytest.raises(ParameterError, match=rf"127.0.0.1:{port} \(from COPLAN_LISTEN\)"):
            AgentServer(SupplierAgent(toy_supplier))
    finally:
        busy.close()


def test_messages_never_carry_private_fields():
    rng = np.random.default_rng(13)
    allowed = {"kind", "session", "iteration", "dim", "rho", "prices", "z", "plan",
               "fee", "reason"}
    import json
    for _ in range(200):
        doc = json.loads(encode(random_message(rng)).decode())
        assert set(doc) <= allowed
        blob = json.dumps(doc)
        for word in ("capacit", "cost", "demand", "profit", "margin"):
            assert word not in blob


def test_a_spent_pivot_budget_is_a_protocol_error_and_no_thread_dies(toy_retailer, toy_supplier,
                                                                    monkeypatch):
    # regression: the simplex raised ArithmeticError, which killed the session
    # thread, and the coordinator got "ConnectionError: peer closed the stream"
    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    agents = [RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)]
    with protocol.served(agents) as remotes:
        monkeypatch.setattr(transport, "_MAX_PIVOTS", 0)
        with pytest.raises(ProtocolError, match="exceeded its pivot budget"):
            run_consensus(remotes, ConsensusConfig(initial_plan=np.array([40.0, 60.0])))
    assert died == []


def test_a_closed_connection_is_a_protocol_error_naming_the_agent():
    # regression: a server that hung up surfaced as ConnectionError on the
    # query's receive and as BrokenPipeError on the next send
    listener = socket.create_server(("127.0.0.1", 0))

    def hang_up():
        conn, _ = listener.accept()
        conn.recv(65536)  # hello
        conn.close()

    thread = threading.Thread(target=hang_up, daemon=True)
    thread.start()
    remote = RemoteAgent(listener.getsockname(), dim=2)
    thread.join()
    try:
        for _ in range(2):
            with pytest.raises(ProtocolError, match=f"agent {remote.agent_id}: connection lost"):
                remote.respond(np.zeros(2), np.zeros(2), 1.0, 1)
    finally:
        remote.close()
        listener.close()


@pytest.mark.parametrize("messages, reason", [
    ((Message("bye", "s1"),), "expected hello"),
    ((HELLO, Message("bye", "s2")), "unknown session"),
    ((HELLO, Message("accept", "s1")), "unexpected accept"),
])
def test_a_session_out_of_order_is_refused(toy_supplier_server, messages, reason):
    replies = exchange(toy_supplier_server.address, *messages)
    assert [(r.kind, r.payload) for r in replies] == [("error", {"reason": reason})]


def stub_peer(reply):
    """A listener whose one session answers each message after the hello with
    ``reply(message)``, a message sent back as it is."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        channel = protocol._LineChannel(conn)
        try:
            channel.recv(timeout=10.0)  # hello
            while True:
                channel.send(reply(channel.recv(timeout=10.0)))
        except (OSError, ParseError):
            pass
        finally:
            conn.close()

    threading.Thread(target=serve, daemon=True).start()
    return listener


RESPONSE = {"iteration": 1, "dim": 2, "plan": [0.0, 0.0]}


@pytest.mark.parametrize("reply, call, message", [
    (Message("decline", "s1"), "respond", "expected response, got decline"),
    (Message("response", "s1", payload={**RESPONSE, "dim": 3, "plan": [0.0] * 3}), "respond",
     "response dimension does not match the session"),
    (Message("response", "s1", payload=RESPONSE), "offer",
     "expected accept/decline, got response"),
])
def test_a_reply_of_the_wrong_kind_or_dimension_is_a_protocol_error(reply, call, message):
    listener = stub_peer(lambda _: reply)
    remote = RemoteAgent(listener.getsockname(), dim=2)
    try:
        with pytest.raises(ProtocolError, match=message):
            if call == "respond":
                remote.respond(np.zeros(2), np.zeros(2), 1.0, 1)
            else:
                remote.offer([1.0, 2.0], 0.0)
    finally:
        remote.close()
        listener.close()


@pytest.mark.parametrize("line, reason", [
    (b'{"kind":"hello","session":"s1"}', "missing fields ['dim']"),
    (b'{"kind":"offer","session":"s1","dim":1,"plan":1.0,"fee":1.0}',
     "plan must be a list of numbers"),
    (b'{"kind":"offer","session":"s1","dim":1,"plan":[true],"fee":1.0}',
     "plan must be a list of numbers"),
    (b'{"kind":"offer","session":"s1","dim":1,"plan":[1.0],"fee":"1"}', "fee must be a number"),
    (b'{"kind":"error","session":"s1","reason":7}', "reason must be a string"),
])
def test_a_field_of_the_wrong_type_is_a_parse_error(line, reason):
    with pytest.raises(ParseError) as caught:
        decode(line)
    assert caught.value.reason == reason


def test_encode_refuses_an_unknown_kind_or_a_missing_field():
    with pytest.raises(ProtocolError, match="unknown message kind 'warp'"):
        encode(Message("warp", "s1"))
    with pytest.raises(ProtocolError, match="hello message is missing field 'dim'"):
        encode(Message("hello", "s1"))


@pytest.mark.parametrize("call, field", [
    (lambda remote: remote.offer([10.0, 90.0], float("nan")), "fee"),
    (lambda remote: remote.offer([10.0, float("inf")], 0.0), "plan"),
    (lambda remote: remote.respond(np.zeros(2), np.array([10.0, 90.0]), float("nan"), 1), "rho"),
    (lambda remote: remote.respond(np.array([float("inf"), 0.0]), np.array([10.0, 90.0]), 1.0, 1),
     "prices"),
    (lambda remote: remote.respond(np.zeros(2), np.array([10.0, -float("inf")]), 1.0, 1), "z"),
], ids=["offer-fee", "offer-plan", "query-rho", "query-prices", "query-z"])
def test_a_non_finite_number_is_refused_before_it_is_sent(toy_supplier, call, field):
    # regression: json.dumps(allow_nan=False) raised ValueError, a traceback
    # and not a CoplanError
    with protocol.served([SupplierAgent(toy_supplier)]) as (remote,):
        with pytest.raises(ParameterError, match=f"^{field} must be finite$"):
            call(remote)
        # nothing was sent, so the session still answers
        assert remote.offer([10.0, 90.0], 0.0) is True
        got = remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
    want = best_response(SupplierAgent(toy_supplier), np.zeros(2), np.array([10.0, 90.0]), 1.0)
    assert np.array_equal(got, want.plan)


def test_encode_names_the_non_finite_field():
    with pytest.raises(ParameterError, match="^fee must be finite$"):
        encode(Message("offer", "s1", payload={"dim": 1, "plan": [1.0], "fee": float("-inf")}))
    with pytest.raises(ParameterError, match="^plan must be finite$"):
        encode(Message("response", "s1", payload={"iteration": 1, "dim": 1,
                                                  "plan": np.array([np.nan])}))


def test_a_nan_reservation_is_refused_before_any_server_starts(toy_supplier, monkeypatch):
    # regression: participates() compared against NaN, so the server
    # declined every offer
    started = []
    monkeypatch.setattr(AgentServer, "start", lambda self: started.append(self) or self)
    with pytest.raises(ParameterError, match="reservation must not be NaN"):
        with protocol.served([SupplierAgent(toy_supplier)], reservation=float("nan")):
            pass
    assert started == []
    with pytest.raises(ParameterError, match="reservation must not be NaN"):
        AgentServer(SupplierAgent(toy_supplier), reservation=np.nan)


@pytest.mark.parametrize("reservation, taken", [(-np.inf, True), (0.0, True), (1e9, False)])
def test_an_infinite_or_finite_reservation_stays_valid(toy_supplier, reservation, taken):
    with protocol.served([SupplierAgent(toy_supplier)], reservation=reservation) as (remote,):
        assert remote.offer([10.0, 90.0], 0.0) is taken


QUERY = {"iteration": 1, "dim": 1, "rho": 1.0, "prices": [0.0], "z": [1.0]}


@pytest.mark.parametrize("msg, message", [
    (Message("hello", "s1", payload={"dim": float("nan")}), "dim must be a nonnegative integer"),
    (Message("hello", "s1", payload={"dim": 2.5}), "dim must be a nonnegative integer"),
    (Message("hello", "s1", payload={"dim": True}), "dim must be a nonnegative integer"),
    (Message("query", "s1", payload={**QUERY, "iteration": float("inf")}),
     "iteration must be a nonnegative integer"),
    (Message("query", "s1", payload={**QUERY, "iteration": -1}),
     "iteration must be a nonnegative integer"),
    (Message("query", "s1", payload={**QUERY, "rho": "1"}), "rho must be a number"),
    (Message("offer", "s1", payload={"dim": 1, "plan": [1.0], "fee": True}),
     "fee must be a number"),
    (Message("error", "s1", payload={"reason": float("nan")}), "reason must be a string"),
    (Message("bye", ""), "session must be a nonempty string"),
    (Message("bye", float("nan")), "session must be a nonempty string"),
], ids=["dim-nan", "dim-fraction", "dim-bool", "iteration-inf", "iteration-negative",
        "rho-string", "fee-bool", "reason-nan", "session-empty", "session-nan"])
def test_encode_refuses_a_field_the_decoder_would_refuse(msg, message):
    # regression: a NaN dim raised json's bare ValueError, and a dim of 2.5
    # was sent for the peer's decoder to refuse
    with pytest.raises(ParameterError, match=f"^{message}$"):
        encode(msg)
    # the line json would have sent is one the decoder refuses
    doc = {"kind": msg.kind, "session": msg.session, **msg.payload}
    with pytest.raises(ParseError):
        decode(json.dumps(doc).encode())


@pytest.mark.parametrize("iteration", [float("inf"), 2.5, -1, True])
def test_a_bad_iteration_is_refused_before_it_is_sent(toy_supplier, iteration):
    # regression: int(inf) raised OverflowError, and int(2.5) sent 2
    with protocol.served([SupplierAgent(toy_supplier)]) as (remote,):
        with pytest.raises(ParameterError, match="^iteration must be a nonnegative integer$"):
            remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, iteration)
        # nothing was sent, so the session still answers
        got = remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
    want = best_response(SupplierAgent(toy_supplier), np.zeros(2), np.array([10.0, 90.0]), 1.0)
    assert np.array_equal(got, want.plan)


def test_a_bad_dim_is_refused_before_the_session_connects():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    with pytest.raises(ParameterError, match="^dim must be a nonnegative integer$"):
        RemoteAgent(listener.getsockname(), dim=2.5)
    with pytest.raises(TimeoutError):
        listener.accept()
    listener.close()
