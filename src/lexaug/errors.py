"""Exception types shared across the package.

Every error raised by lexaug subclasses LexAugError so callers (notably the
CLI) can catch one type and map it to a nonzero exit status.
"""


class LexAugError(Exception):
    """Base class for all lexaug errors."""


class FormatError(LexAugError):
    """An input file line could not be parsed; the message names the path
    and the 1-based line when they are known."""

    def __init__(self, message: str, path: str | None = None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line_no is not None else f"{path}: "
        if line_no is not None:
            prefix += f"line {line_no}: "
        super().__init__(prefix + message)


class CorpusFormatError(FormatError):
    """A corpus line could not be parsed or violated a record invariant."""


class LexiconFormatError(FormatError):
    """A lexicon TSV line could not be parsed."""


class NoCandidateError(LexAugError):
    """No translation candidate survives the requested language scope."""


class EmptyInputError(LexAugError):
    """An operation that needs at least one token got an empty sentence."""


class SentinelCollisionError(LexAugError):
    """A control token appeared verbatim inside natural corpus text."""


class ScheduleError(LexAugError):
    """Mixture configuration is inconsistent (missing stream, bad weights)."""


class FitError(LexAugError):
    """A fit failed on the values it was given."""


class SingularMatrixError(FitError):
    """Design matrix is rank deficient; names the dependent column."""

    def __init__(self, message: str, column: int | str | None = None):
        self.column = column
        super().__init__(message)


class InsufficientDataError(LexAugError):
    """Too few rows to run the requested fit."""
