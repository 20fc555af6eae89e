"""Exception types shared across the package."""


class PolyemoError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PolyemoError):
    """A file or config is missing required columns or fields."""


class DataError(PolyemoError):
    """A value inside an otherwise well-formed file violates the data contract."""


class FormatError(PolyemoError, ValueError):
    """A file does not follow its declared serialization format.

    Like ``json.JSONDecodeError``, it is also a ``ValueError``, which is what
    numpy raises for the malformed or pickled members it refuses.
    """


class AlignmentError(PolyemoError):
    """Rows of an external file cannot be aligned to the expected document ids."""


class ConfigError(PolyemoError):
    """An option combination or parameter value is invalid."""


class ShapeError(PolyemoError):
    """Matrix dimensions do not match what a fitted model expects."""


class ResolutionError(PolyemoError):
    """A language could not be mapped to a supported one."""


class TransportError(PolyemoError):
    """The remote chat-completion backend could not be reached."""
