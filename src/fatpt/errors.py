"""Exception types shared across the package.

The CLI maps these onto process exit codes: InputError -> 2,
InfeasibleError -> 1, ConjectureViolation -> 3.
"""


class InputError(ValueError):
    """Malformed or out-of-contract user input."""


class InfeasibleError(RuntimeError):
    """A computation was refused or abandoned because it exceeds a size or
    retry ceiling. The message reports the offending dimensions."""


class ConjectureViolation(AssertionError):
    """A computed value contradicts a conjecturally exact prediction.

    Raised instead of returning a result so that a genuine counterexample can
    never be mistaken for a clean run.
    """


class DegenerateConfiguration(RuntimeError):
    """A point configuration is in special position for a syzygy count:
    ``exactla.min_syzygy_degree`` raises it, with the reason, when the
    syzygy nullities read off the points fit no curve of the given degree.
    Nothing in the package catches it."""
