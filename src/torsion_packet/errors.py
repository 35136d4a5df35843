"""Shared exception types."""


class ArithmeticInconsistencyError(RuntimeError):
    """An exact computation produced a structurally impossible result.

    Raised when an internal consistency check fails, e.g. a Galois-orbit
    product with a non-rational coefficient, or an interval refinement
    that cannot separate a provably nonzero value from zero.  This always
    indicates a bug, never a property of the input; callers must not
    catch it to hide the result.
    """


class UsageError(ValueError):
    """A bad argument, environment setting or input file.

    The command-line layer raises it after checking what the caller
    supplied, and it alone (with I/O errors) maps to exit code 2.  A
    ``ValueError`` raised anywhere else is a bug and exits 3.  It is a
    ``ValueError`` so that callers of the ``cmd_*`` functions that catch
    one keep working.
    """
