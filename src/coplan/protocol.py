"""Wire protocol for black-box agent participation.

Agents join coordination runs as servers answering price/proposal queries
with best responses, so a counterparty never has to reveal its utility data:
only plans, prices, fees, and accept/decline decisions cross the wire.

Messages are single lines of JSON with a fixed key order over a reliable
byte stream (the reference harness uses local TCP sockets).  Every vector
payload carries its dimension explicitly.  Floats are serialized with
round-trip-exact precision so a coordination run driven over the protocol
reproduces the in-process trajectory bit for bit.

Canonical examples:

    {"kind":"hello","session":"s1","dim":2}
    {"kind":"query","session":"s1","iteration":3,"dim":2,"rho":1.0,"prices":[0.5,-0.25],"z":[40.0,60.0]}
    {"kind":"response","session":"s1","iteration":3,"dim":2,"plan":[39.5,60.25]}
    {"kind":"offer","session":"s1","dim":2,"plan":[10.0,90.0],"fee":80.0}
    {"kind":"accept","session":"s1"}
    {"kind":"decline","session":"s1"}
    {"kind":"error","session":"s1","reason":"dimension-mismatch"}
    {"kind":"bye","session":"s1"}
"""

import json
import os
import socket
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from .consensus import LocalEndpoint
from .errors import AgentTimeoutError, InfeasibleError, ParameterError, ParseError, ProtocolError
from .mechanism import participates
from .transport import checked

DEFAULT_TIMEOUT = 30.0
LISTEN_ENV_VAR = "COPLAN_LISTEN"
# cap on one buffered line: legal messages of any practical plan dimension
# stay orders of magnitude below it
MAX_LINE_BYTES = 1 << 20
# concurrent sessions per server; a connection past it gets "server busy"
MAX_SESSIONS = 32

KINDS = ("hello", "query", "response", "offer", "accept", "decline", "error", "bye")

# canonical field order per kind, after "kind" and "session"
_FIELDS = {
    "hello": ("dim",),
    "query": ("iteration", "dim", "rho", "prices", "z"),
    "response": ("iteration", "dim", "plan"),
    "offer": ("dim", "plan", "fee"),
    "accept": (),
    "decline": (),
    "error": ("reason",),
    "bye": (),
}
_VECTOR_FIELDS = ("prices", "z", "plan")
# what each other field holds, and its test: decode refuses a field that
# fails it, and encode refuses to send one
_COUNT = ("a nonnegative integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0)
_NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_SCALARS = {"iteration": _COUNT, "dim": _COUNT, "rho": _NUMBER, "fee": _NUMBER,
            "reason": ("a string", lambda v: isinstance(v, str))}
_KEYS = {kind: {"kind", "session", *fields} for kind, fields in _FIELDS.items()}
_NUMBERS = {int, float}


@dataclass(frozen=True)
class Message:
    kind: str
    session: str
    payload: dict = field(default_factory=dict)


def encode(msg):
    """One line of canonical JSON (byte-stable for equal messages).  A field
    that :func:`decode` would refuse for its type raises
    :class:`ParameterError` naming it ("dim must be a nonnegative integer"),
    and so does a NaN or infinite number, as the input rule
    (:func:`~coplan.transport.checked`) words it."""
    if msg.kind not in KINDS:
        raise ProtocolError(f"unknown message kind {msg.kind!r}")
    if not isinstance(msg.session, str) or not msg.session:
        raise ParameterError("session must be a nonempty string")
    doc = {"kind": msg.kind, "session": msg.session}
    for name in _FIELDS[msg.kind]:
        if name not in msg.payload:
            raise ProtocolError(f"{msg.kind} message is missing field {name!r}")
        value = msg.payload[name]
        if name in _VECTOR_FIELDS:
            value = np.asarray(value, dtype=float).tolist()
        elif not _SCALARS[name][1](value):
            raise ParameterError(f"{name} must be {_SCALARS[name][0]}")
        doc[name] = value
    try:
        line = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except ValueError:  # json's "Out of range float values": find the field
        # past the type tests, only these fields hold floats, so one raises
        for name in ("rho", "fee", *_VECTOR_FIELDS):
            if name in doc:
                checked(doc[name], name)
    return line.encode("ascii") + b"\n"


def _reject_constant(token):
    raise ParseError(f"non-finite number {token!r}")


# one decoder for every line: json.loads builds a new one per call when it
# is given a hook
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode(line):
    """Parse one wire line (bytes) into a :class:`Message`; malformed input
    raises :class:`ParseError` with a reason and byte offset."""
    text = line.rstrip(b"\r\n")
    if not text:
        raise ParseError("empty line")
    try:
        text = text.decode("utf-8")
        if text.startswith("\ufeff"):  # json.loads' own check
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        raise ParseError("invalid utf-8", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc.msg}", offset=exc.pos) from exc
    except RecursionError:  # a few thousand nested brackets fit in a line
        raise ParseError("invalid json: nesting too deep") from None
    if not isinstance(doc, dict):
        raise ParseError("message must be a json object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    session = doc.get("session")
    if not isinstance(session, str) or not session:
        raise ParseError("missing or invalid session id")
    expected = _KEYS[kind]
    extra = set(doc) - expected
    if extra:
        raise ParseError(f"unexpected fields {sorted(extra)}")
    missing = expected - set(doc)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)}")

    payload = {}
    try:
        for name in _FIELDS[kind]:
            value = doc[name]
            if name in _VECTOR_FIELDS:
                # json gives numbers as exactly int or float (bool is neither)
                if not isinstance(value, list) or not set(map(type, value)) <= _NUMBERS:
                    raise ParseError(f"{name} must be a list of numbers")
                value = np.array(checked(value, name), dtype=float)
            else:
                what, holds = _SCALARS[name]
                if not holds(value):
                    raise ParseError(f"{name} must be {what}")
                if name in ("rho", "fee"):
                    value = checked(value, name)
            payload[name] = value
    except ParameterError:  # from checked: an integer too large for a float
        raise ParseError(f"non-finite number in {name}") from None
    dim = payload.get("dim")
    if dim is not None:
        for name in _VECTOR_FIELDS:
            if name in payload and payload[name].size != dim:
                raise ParseError(
                    f"dimension-mismatch: {name} has {payload[name].size} entries, dim={dim}")
    return Message(kind=kind, session=session, payload=payload)


class _LineChannel:
    """Newline-delimited messages over a connected socket."""

    def __init__(self, sock):
        self.sock = sock
        # one small message per iteration: latency matters, batching does not
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self._timeout = sock.gettimeout()

    def send(self, msg):
        self.sock.sendall(encode(msg))

    def recv(self, timeout):
        if timeout != self._timeout:  # each settimeout costs system calls
            self.sock.settimeout(timeout)
            self._timeout = timeout
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ParseError(f"line exceeds {MAX_LINE_BYTES} bytes",
                                 offset=len(self._buffer))
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed the stream")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return decode(line)

    def close(self):
        with suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()


def default_listen_address():
    """Host/port from the environment (``COPLAN_LISTEN``), else an ephemeral
    localhost port."""
    raw = os.environ.get(LISTEN_ENV_VAR, "127.0.0.1:0")
    host, _, port = raw.rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ParameterError(f"{LISTEN_ENV_VAR}={raw!r}: port must be an integer in 0-65535")
    return host or "127.0.0.1", int(port)


class AgentServer:
    """Serves one plan agent to coordinator sessions.

    Each connection is one session: a ``hello`` fixes the plan dimension,
    each query is answered with the proximal best response at the query's own
    penalty ``rho`` by a per-session in-process endpoint, which keeps the
    agent's cuts for the session as a :func:`~coplan.consensus.run_consensus`
    run keeps them, so both answer a query sequence bit for bit alike.  A
    plan/fee offer is accepted by :func:`~coplan.mechanism.participates`,
    the settlement's own rule (a plan the agent cannot fill is declined).
    Sessions end on ``bye``, disconnect or ``DEFAULT_TIMEOUT`` seconds of
    silence; malformed input or a query or offer on which the agent raises
    (say, at ``rho <= 0``) gets an ``error`` reply and the session closes, as
    does a connection past ``MAX_SESSIONS`` open sessions, so no session
    thread dies of its agent.  No private data of the agent ever leaves this
    process.  ``COPLAN_LISTEN`` fills in the ``host`` or ``port`` the caller
    leaves out.
    """

    def __init__(self, agent, reservation=-np.inf, host=None, port=None):
        if reservation != reservation:
            # -inf (take any deal) and finite values are reservations; NaN
            # would make every offer fail the participation test
            raise ParameterError("reservation must not be NaN")
        source = ""
        if host is None or port is None:
            env_host, env_port = default_listen_address()
            host, port = host or env_host, env_port if port is None else port
            source = f" (from {LISTEN_ENV_VAR})" if LISTEN_ENV_VAR in os.environ else ""
        self.agent = agent
        self.reservation = reservation
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise ParameterError(f"cannot listen on {host}:{port}{source}: {exc.strerror}") from exc
        self._stop = threading.Event()
        self._thread = None
        self._slots = threading.BoundedSemaphore(MAX_SESSIONS)

    @property
    def address(self):
        return self._listener.getsockname()

    def start(self):
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        with suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # unblocks accept()
        self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            if self._slots.acquire(blocking=False):
                threading.Thread(target=self._run_session, args=(conn,), daemon=True).start()
                continue
            # past the cap: one reply and no thread.  The hello is read first: a close
            # on unread input resets the connection, and the client's next send fails
            with suppress(OSError):
                _refuse(_LineChannel(conn), "unknown", "server busy")
                conn.settimeout(0.1)
                conn.recv(MAX_LINE_BYTES)
            conn.close()

    def _run_session(self, conn):
        try:
            with suppress(OSError):  # a dropped connection just ends the session
                self._serve_session(_LineChannel(conn))
        finally:
            self._slots.release()  # before close: a peer that sees EOF finds the slot free
            conn.close()

    def _serve_session(self, channel):
        try:
            hello = channel.recv(timeout=DEFAULT_TIMEOUT)
        except ParseError as exc:
            return _refuse(channel, "unknown", exc.reason)
        if hello.kind != "hello":
            return _refuse(channel, hello.session, "expected hello")
        session, dim = hello.session, hello.payload["dim"]
        if dim != self.agent.dim:
            return _refuse(channel, session, "dimension-mismatch")
        endpoint = LocalEndpoint(self.agent)
        while True:
            try:
                msg = channel.recv(timeout=DEFAULT_TIMEOUT)
            except ParseError as exc:
                return _refuse(channel, session, exc.reason)
            if msg.session != session:
                return _refuse(channel, session, "unknown session")
            if msg.kind == "bye":
                return
            if msg.kind in ("query", "offer") and msg.payload["dim"] != dim:
                return _refuse(channel, session, "dimension-mismatch")
            if msg.kind == "query":
                q = msg.payload
                try:
                    plan = endpoint.respond(q["prices"], q["z"], q["rho"], q["iteration"])
                except Exception as exc:  # e.g. rho <= 0, or no convergence
                    return _refuse(channel, session, exc)
                channel.send(Message("response", session,
                                     payload={"iteration": q["iteration"], "dim": dim,
                                              "plan": plan}))
            elif msg.kind == "offer":
                try:
                    value = float(self.agent.evaluate(msg.payload["plan"])[0])
                    taking = participates(value, msg.payload["fee"], self.reservation)
                except InfeasibleError:
                    taking = False
                except Exception as exc:  # e.g. a negative entry
                    return _refuse(channel, session, exc)
                channel.send(Message("accept" if taking else "decline", session))
            else:
                return _refuse(channel, session, f"unexpected {msg.kind}")


def _refuse(channel, session, reason):
    """Send the one ``error`` reply that ends a session."""
    channel.send(Message("error", session, payload={"reason": str(reason)}))


@contextmanager
def served(agents, reservation=-np.inf):
    """Serve each agent on its own local :class:`AgentServer` and yield one
    connected :class:`RemoteAgent` session per agent, in agent order.  On exit
    every session says ``bye`` and every server stops."""
    servers, remotes = [], []
    try:
        for agent in agents:
            servers.append(AgentServer(agent, reservation=reservation).start())
            remotes.append(RemoteAgent(servers[-1].address, dim=agent.dim))
        yield remotes
    finally:
        for remote in remotes:
            remote.close()
        for server in servers:
            server.stop()


class RemoteAgent:
    """Client session against one agent server, usable as a consensus
    endpoint (``respond``) and for take-it-or-leave-it offers."""

    _counter = 0

    def __init__(self, address, dim, timeout=DEFAULT_TIMEOUT):
        RemoteAgent._counter += 1
        self.dim = dim
        self.timeout = timeout
        self.agent_id = f"agent-{RemoteAgent._counter}"
        self.session = f"session-{RemoteAgent._counter}"
        hello = Message("hello", self.session, payload={"dim": dim})
        encode(hello)  # a bad dim raises here, before any connection opens
        self._channel = _LineChannel(socket.create_connection(tuple(address), timeout=timeout))
        self._channel.send(hello)

    def respond(self, prices, z, rho, iteration):
        """Best response to one query at penalty ``rho``.  A silent agent raises
        :class:`AgentTimeoutError`; a response echoing the wrong iteration, or
        a connection closed or reset, raises :class:`ProtocolError`."""
        reply = self._exchange(Message("query", self.session, payload={
            "iteration": iteration, "dim": self.dim, "rho": checked(rho, "rho"),
            "prices": prices, "z": z}))
        if reply.kind != "response":
            raise ProtocolError(f"expected response, got {reply.kind}")
        echoed = reply.payload["iteration"]
        if echoed != iteration:
            raise ProtocolError(
                f"agent {self.agent_id} echoed iteration {echoed}, expected {iteration}")
        if reply.payload["dim"] != self.dim:
            raise ProtocolError("response dimension does not match the session")
        return reply.payload["plan"]

    def offer(self, plan, fee):
        reply = self._exchange(Message("offer", self.session, payload={
            "dim": self.dim, "plan": plan, "fee": checked(fee, "fee")}))
        if reply.kind not in ("accept", "decline"):
            raise ProtocolError(f"expected accept/decline, got {reply.kind}")
        return reply.kind == "accept"

    def close(self):
        with suppress(OSError):
            self._channel.send(Message("bye", self.session))
        self._channel.close()

    def _exchange(self, msg):
        """Send ``msg`` and read the reply; an ``error`` reply, or a connection
        closed or reset on either leg, raises :class:`ProtocolError`."""
        try:
            self._channel.send(msg)
            reply = self._channel.recv(timeout=self.timeout)
        except TimeoutError as exc:
            raise AgentTimeoutError(self.agent_id, self.timeout) from exc
        except OSError as exc:  # ConnectionError included: the peer is gone
            raise ProtocolError(f"agent {self.agent_id}: connection lost ({exc})") from exc
        if reply.kind == "error":
            raise ProtocolError(f"agent {self.agent_id}: {reply.payload['reason']}")
        return reply
