"""Exception types shared across the runtime."""


class TickslabError(Exception):
    """Base class for all runtime errors."""


class EmptySlab(TickslabError):
    pass


class BranchPanic(TickslabError):
    """Wraps a failure inside one reasoning branch; the branch is dropped."""

    def __init__(self, branch_id: int, cause: BaseException):
        super().__init__(f"branch {branch_id} failed: {cause!r}")
        self.branch_id = branch_id
        self.cause = cause


class NonFiniteState(TickslabError):
    """A readout left the float32 range; the model's numbers have diverged."""


class NoCandidates(TickslabError):
    pass


class NonFiniteMetadata(TickslabError):
    pass


class SchemaViolation(TickslabError):
    """Structural error; ``path`` names the offending field."""

    def __init__(self, path: str, detail: str = ""):
        super().__init__(": ".join(part for part in (path, detail) if part))
        self.path = path
        self.detail = detail


class UnknownTool(TickslabError):
    pass


class TransportClosed(TickslabError):
    pass


class FrameTooLong(TransportClosed):
    """A frame line ran past ``transport.MAX_FRAME_BYTES``; the stream is unusable."""


class TransportTimeout(TickslabError):
    """The stream timed out; the peer may still be there."""


class IdMismatch(TickslabError):
    pass


class WeightFileError(TickslabError):
    pass


class ParseError(TickslabError):
    """Line-oriented parse failure; ``line`` is 1-based."""

    def __init__(self, line: int, detail: str = ""):
        msg = f"line {line}" if not detail else f"line {line}: {detail}"
        super().__init__(msg)
        self.line = line
        self.detail = detail


class ConfigError(TickslabError):
    pass


class EmptyLogs(TickslabError):
    pass
