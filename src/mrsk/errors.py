"""Shared exception types."""


class CapacityError(RuntimeError):
    """Raised when a requested computation exceeds a configured cap.

    The message names both the violated cap, a module constant, and the
    size the request would have needed, so callers can shrink the
    request or fall back to a simulation path.
    """
