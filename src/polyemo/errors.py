"""Exception types shared across the package, and the guarded open of input files."""

from contextlib import contextmanager


class PolyemoError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PolyemoError):
    """A file or config is missing required columns or fields."""


class DataError(PolyemoError):
    """An input file cannot be opened, or a value inside it violates the data contract."""


class FormatError(PolyemoError, ValueError):
    """A file does not follow its declared serialization format.

    Like ``json.JSONDecodeError``, it is also a ``ValueError``, which is what
    numpy's own loaders raise for the malformed or pickled arrays they refuse.
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


def _first_undecodable_line(path) -> int:
    """The number of the first line of ``path`` that is not UTF-8, or 0 if every line is."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


@contextmanager
def open_input(path, **open_kwargs):
    """Open an input text file as UTF-8, dropping one leading byte-order mark; what goes wrong names the file.

    An OSError while opening it is a DataError naming ``path``, and text that
    is not UTF-8, met while the block reads it, is a FormatError naming the
    line. Any other error leaves the block as it came.
    """
    try:
        fh = open(path, encoding="utf-8-sig", **open_kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            lineno = _first_undecodable_line(path)
            raise FormatError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})") from exc
