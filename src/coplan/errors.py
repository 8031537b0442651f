"""Exception types shared across the package."""


class CoplanError(Exception):
    """Base class for all package errors."""


class DimensionError(CoplanError):
    """Array shapes are mutually inconsistent."""


class ParameterError(CoplanError):
    """A numeric parameter is outside its admissible range."""


class InfeasibleError(CoplanError):
    """A transport problem has no feasible flow."""


class NonConvergenceError(CoplanError):
    """An iterative solver exhausted its iteration budget."""


class SchemaError(CoplanError):
    """A scenario document violates the documented schema."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ParseError(CoplanError):
    """A wire message could not be decoded."""

    def __init__(self, reason, offset=0):
        self.reason = reason
        self.offset = offset
        super().__init__(f"{reason} (offset {offset})")


class ProtocolError(CoplanError):
    """A well-formed message violated the session contract."""


class AgentTimeoutError(ProtocolError):
    """An agent failed to answer a query within the allowed time."""

    def __init__(self, agent_id, timeout):
        self.agent_id = agent_id
        self.timeout = timeout
        super().__init__(f"agent {agent_id!r} did not respond within {timeout} s")
