"""Exception types shared across the package.

The CLI (``cli.run``) maps each onto a process exit code and prints its
message to stderr:

- InputError -> 2: the input is malformed or outside the contract.
- InfeasibleError -> 1: the computation is past a size or retry ceiling.
- ConjectureViolation -> 3: a computed value contradicts a prediction.
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
