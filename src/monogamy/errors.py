"""Error types shared across the package, and the one memory budget.

All of them subclass ValueError so plain ``except ValueError`` keeps working;
the CLI maps any of these to exit code 1.
"""

# Bytes one call may hold in its largest arrays at the same time.  Every
# routine whose memory grows with its inputs predicts that figure from the
# inputs alone and passes it to `require_bytes` before it allocates.
MEMORY_BUDGET = 2**31


class DimensionError(ValueError):
    """Matrix or subsystem dimensions do not match what an operation requires."""


class NotPsdError(ValueError):
    """An operator expected to be positive semi-definite has a negative eigenvalue
    below the tolerance floor."""


class ValidationError(ValueError):
    """A structured object (POVM, density matrix, permutation set, fixture, ...)
    violates one of its invariants."""


class DomainError(ValueError):
    """A scalar parameter lies outside the domain an operation is defined on."""


class CapacityError(ValueError):
    """A request exceeds a fixed capacity: the bytes it would allocate exceed
    `MEMORY_BUDGET` (raised by `require_bytes` before anything is
    allocated), or a device supports no more rounds."""


def require_bytes(nbytes: int, what: str) -> None:
    """Refuse, with a CapacityError naming `what`, a call predicted to hold
    more than `MEMORY_BUDGET` bytes at once.  The budget is read at call
    time; `nbytes` should be a Python int, which cannot overflow."""
    nbytes = int(nbytes)
    if nbytes > MEMORY_BUDGET:
        size = f"{nbytes:,} bytes" if nbytes.bit_length() <= 64 else "over 2^64 bytes"
        raise CapacityError(f"{what} needs {size}, over the memory budget of "
                            f"{MEMORY_BUDGET:,} bytes")
