"""Exception types shared across the runtime."""


class TickslabError(Exception):
    """Base class for all runtime errors."""


class NonFiniteState(TickslabError):
    """A readout left the float32 range; the model's numbers have diverged."""


class NoCandidates(TickslabError):
    pass


class SchemaViolation(TickslabError):
    """An input that does not fit its record: ``path`` names the field, or a
    JSONL file's line as ``line N``, and then ``detail`` is that line's refusal."""

    def __init__(self, path: str, detail: str = ""):
        super().__init__(": ".join(part for part in (path, detail) if part))
        self.path = path
        self.detail = detail


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


class ConfigError(TickslabError):
    pass


class EmptyLogs(TickslabError):
    pass
