"""Exception types shared across the package."""


class InfoGainError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(InfoGainError):
    """A variable name does not resolve against the schema, or the schema is inconsistent."""


class ValidationError(InfoGainError):
    """Input (schema document, dataset file, result document) failed validation.

    The message always names the locus of the failure (field path, or row and
    column for tabular input).
    """

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message)
        self.path = path


class EstimationError(InfoGainError):
    """The joint distribution could not be estimated: its smoothed total weight overflows the float range."""


class ProductSpaceError(InfoGainError):
    """A population joint extended with agent columns would exceed its cell limit."""


class ShapleyCeilingError(InfoGainError):
    """Exact Shapley enumeration was requested above the subset ceiling."""


class OracleError(InfoGainError):
    """The brute-force oracle refuses inputs outside its dense-space budget."""


class ReportError(InfoGainError):
    """Results passed to the plotting layer are inconsistent with each other."""


class WorkerError(InfoGainError):
    """A bootstrap worker process ended without sending its blocks' samples, or raised an error it could not send.

    The message names the worker and how it ended: its exit status, or the signal that killed it.
    """
