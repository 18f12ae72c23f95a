"""Time units.

The simulator clock is an integer count of microseconds.  Integer time makes
event ordering exact and runs reproducible: there is no floating-point drift,
and ties are broken by a deterministic sequence number.
"""


def us(value: float) -> int:
    """Convert microseconds to simulator ticks (identity, rounded)."""
    return int(round(value))


def ms(value: float) -> int:
    """Convert milliseconds to simulator ticks."""
    return int(round(value * 1_000))


def sec(value: float) -> int:
    """Convert seconds to simulator ticks."""
    return int(round(value * 1_000_000))


def to_ms(ticks: int) -> float:
    """Convert simulator ticks to (float) milliseconds."""
    return ticks / 1_000.0


def to_sec(ticks: int) -> float:
    """Convert simulator ticks to (float) seconds."""
    return ticks / 1_000_000.0
