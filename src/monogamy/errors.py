"""Error types shared across the package, the one memory budget, and the
one argument check.

All of them subclass ValueError so plain ``except ValueError`` keeps working;
the CLI maps any of these to exit code 1.  Every count, dimension and seed
an entry point takes passes through :func:`whole`, and every probability,
fraction, overlap, tolerance and target through :func:`within`, so nan, inf
and 2.5 are refused in one place rather than truncated or let through.
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
    allocated)."""


def require_bytes(nbytes: int, what: str) -> None:
    """Refuse, with a CapacityError naming `what`, a call predicted to hold
    more than `MEMORY_BUDGET` bytes at once.  The budget is read at call
    time; `nbytes` should be a Python int, which cannot overflow."""
    nbytes = int(nbytes)
    if nbytes > MEMORY_BUDGET:
        size = f"{nbytes:,} bytes" if nbytes.bit_length() <= 64 else "over 2^64 bytes"
        raise CapacityError(f"{what} needs {size}, over the memory budget of "
                            f"{MEMORY_BUDGET:,} bytes")


def capped_power(base: int, exponent: int) -> int:
    """base**exponent for non-negative ints, or 2**65, over every budget,
    once it could pass 2**64: a tensor power's size, never written out."""
    return 2**65 if base > 1 and exponent * (base.bit_length() - 1) > 64 else base**exponent


def whole(n, name: str = "n", minimum: int | None = 1, error: type = DomainError) -> int:
    """n as a Python int, once it is an integer of any numeric type and at
    least `minimum` (None: any integer); else `error`.  2.5, nan and inf are
    refused, never truncated."""
    try:
        value = int(n)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != n or minimum is not None and value < minimum <= 1:
        kind = {None: "an", 0: "a non-negative"}.get(minimum, "a positive")
        raise error(f"{name} must be {kind} integer")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be at least {minimum}")
    return value


def within(x, name: str, lo: float, hi: float, lo_open: bool = False,
           hi_open: bool = False) -> float:
    """x as a float, once it is a real number of any numeric type and lies
    between lo and hi, each end included unless it is open; else
    DomainError.  A string is refused, never parsed, and nan lies in no
    interval."""
    try:
        value = None if isinstance(x, (str, bytes)) else float(x)
    except (TypeError, OverflowError):
        value = None
    if value is None:
        raise DomainError(f"{name} must be a real number, got {x!r}")
    x = value
    if not lo <= x <= hi or (lo_open and x == lo) or (hi_open and x == hi):
        raise DomainError(f"{name} must lie in {'[('[lo_open]}{lo:g}, {hi:g}{'])'[hi_open]}, "
                          f"got {x}")
    return x
