"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError and ValidationError exit
with 2, NumericalAbort with 3.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad shapes, non-finite values,
    unparseable files, unknown names)."""


class ValidationError(InputError):
    """Input parsed fine but violates a domain invariant (duplicate edges,
    missing classes, inconsistent state)."""


class NumericalAbort(RuntimeError):
    """The sampler reached a numerically invalid state that rejection
    guards could not prevent; carries a diagnostic payload."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
