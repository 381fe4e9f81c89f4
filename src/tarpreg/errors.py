"""Exception types shared across the package."""


class TarpError(Exception):
    """Base class for all package errors."""


class IngestionError(TarpError):
    """Raised when input data cannot be accepted (non-finite, non-numeric, ragged)."""


class DimensionError(TarpError):
    """Raised on shape/length mismatches or insufficient sample size."""


class ParameterError(TarpError):
    """Raised when a tuning parameter is outside its valid range."""


class ReplicateError(TarpError):
    """A single ensemble replicate failed; carries the replicate index and seed."""

    def __init__(self, index: int, seed: int, cause: BaseException):
        self.index = index
        self.seed = seed
        super().__init__(f"replicate {index} (seed {seed}) failed: {cause!r}")

    def __reduce__(self):
        # rebuilt without __init__, so a pool worker can send it back: the cause may not pickle
        return BaseException.__new__, (type(self), *self.args), self.__dict__
