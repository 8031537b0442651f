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
from coplan import protocol
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
    if kind == "hello":
        payload = {"dim": dim, "rho": float(rng.uniform(0.1, 10))}
    elif kind == "query":
        payload = {"dim": dim, "prices": vec(), "z": vec()}
    elif kind == "response":
        payload = {"dim": dim, "plan": vec()}
    elif kind == "offer":
        payload = {"dim": dim, "plan": vec(), "fee": float(rng.normal(scale=50))}
    elif kind == "error":
        payload = {"reason": "test-reason"}
    else:
        payload = {}
    iteration = int(rng.integers(0, 10_000)) if kind in ("query", "response") else None
    return Message(kind=kind, session=session, iteration=iteration, payload=payload)


def assert_messages_equal(a, b):
    assert a.kind == b.kind and a.session == b.session and a.iteration == b.iteration
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
    with pytest.raises(ParseError):
        decode(b'{"kind":"hello","session":"s1","dim":2,"rho":NaN}')
    with pytest.raises(ParseError):
        decode(b'{"kind":"bye","session":"s1","stray":1}')
    with pytest.raises(ParseError):
        decode(b'{"kind":"bye"}')


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
    remote = RemoteAgent(toy_supplier_server.address, dim=2, rho=1.0)
    rng = np.random.default_rng(7)
    warm = None
    for it in range(1, 5):
        prices = rng.uniform(-5, 5, size=2)
        z = rng.uniform(0, 80, size=2)
        got = remote.respond(prices, z, 1.0, it)
        want = best_response(agent, prices, z, 1.0, start=warm).plan
        warm = want
        assert np.array_equal(got, want)
    remote.close()


def test_offer_accept_and_decline(toy_supplier, toy_supplier_server):
    remote = RemoteAgent(toy_supplier_server.address, dim=2, rho=1.0)
    # net 1540 - 80 = 1460 >= standalone 1390
    assert remote.offer([10.0, 90.0], 80.0) is True
    remote.close()
    remote = RemoteAgent(toy_supplier_server.address, dim=2, rho=1.0)
    # fee exceeds the supplier's gain at this plan
    assert remote.offer([10.0, 90.0], 151.0) is False
    remote.close()


def test_consensus_over_wire_matches_in_process(toy_retailer, toy_supplier):
    cfg = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, initial_plan=np.array([40.0, 60.0]))
    local = run_consensus([RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)], cfg)

    servers = [AgentServer(RetailerAgent(toy_retailer)).start(),
               AgentServer(SupplierAgent(toy_supplier)).start()]
    remotes = [RemoteAgent(s.address, dim=2, rho=cfg.rho) for s in servers]
    try:
        wire = run_consensus(remotes, cfg)
    finally:
        for r in remotes:
            r.close()
        for s in servers:
            s.stop()

    assert np.array_equal(wire.plan, local.plan)
    assert wire.iterations == local.iterations
    assert np.array_equal(wire.residual_history, local.residual_history)


def test_silent_agent_times_out():
    listener = socket.create_server(("127.0.0.1", 0))

    def mute():
        conn, _ = listener.accept()
        time.sleep(3.0)
        conn.close()

    thread = threading.Thread(target=mute, daemon=True)
    thread.start()
    remote = RemoteAgent(listener.getsockname(), dim=2, rho=1.0, timeout=0.3)
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
        reply = Message("response", query.session, iteration=query.iteration + 1,
                        payload={"dim": 2, "plan": [0.0, 0.0]})
        conn.sendall(encode(reply))
        conn.close()

    thread = threading.Thread(target=bad_echo, daemon=True)
    thread.start()
    remote = RemoteAgent(listener.getsockname(), dim=2, rho=1.0)
    with pytest.raises(ProtocolError, match="echoed iteration"):
        remote.respond(np.zeros(2), np.zeros(2), 1.0, 1)
    listener.close()


def test_dimension_mismatch_session_is_rejected(toy_supplier, toy_supplier_server):
    remote = RemoteAgent(toy_supplier_server.address, dim=3, rho=1.0)
    with pytest.raises(ProtocolError):
        remote.respond(np.zeros(3), np.zeros(3), 1.0, 1)


HELLO = Message("hello", "s1", payload={"dim": 2, "rho": 1.0})


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


def test_offer_of_wrong_dimension_gets_error(toy_supplier_server):
    offer = Message("offer", "s1", payload={"dim": 3, "plan": [1.0, 2.0, 3.0], "fee": 0.0})
    replies = exchange(toy_supplier_server.address, HELLO, offer)
    assert [(r.kind, r.payload) for r in replies] == [("error", {"reason": "dimension-mismatch"})]


def test_offer_with_negative_entry_gets_error(toy_supplier_server):
    remote = RemoteAgent(toy_supplier_server.address, dim=2, rho=1.0)
    try:
        with pytest.raises(ProtocolError, match="nonnegative"):
            remote.offer([-5.0, 10.0], 0.0)
    finally:
        remote.close()


def test_offer_beyond_capacity_is_declined(toy_supplier):
    server = AgentServer(SupplierAgent(toy_supplier)).start()  # reservation -inf
    remote = RemoteAgent(server.address, dim=2, rho=1.0)
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
        remote = RemoteAgent(server.address, dim=2, rho=1.0)
        with pytest.raises(ProtocolError, match="did not converge"):
            remote.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
        remote.close()
        agent.stall = False
        remote = RemoteAgent(server.address, dim=2, rho=1.0)
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
    idle = [RemoteAgent(address, dim=2, rho=1.0) for _ in range(protocol.MAX_SESSIONS - 1)]
    try:
        busy = RemoteAgent(address, dim=2, rho=1.0)
        with pytest.raises(ProtocolError, match="server busy"):
            busy.respond(np.zeros(2), np.array([10.0, 90.0]), 1.0, 1)
        busy.close()
        assert threading.active_count() - threads <= protocol.MAX_SESSIONS
        first.sendall(encode(Message("bye", "s1")))
        assert first.recv(1) == b""  # the server ended that session
        idle.append(RemoteAgent(address, dim=2, rho=1.0))
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
