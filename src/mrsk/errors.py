"""Shared exception types, and the one rule that refuses a request past a size cap."""


class CapacityError(RuntimeError):
    """Raised when a requested computation exceeds a configured cap.

    Its one line, ``<what> exceeds NAME = <cap>; <advice>``, names the cap, a
    module constant, and the size the request needed (see :func:`check_cap`).
    """


def check_cap(need: float, name: str, cap: int, what: str, advice: str) -> None:
    """Refuse ``need`` above ``cap``, NaN included, with :class:`CapacityError`.

    A power 2^e is passed as ``1 << min(e, cap.bit_length())``: above a positive
    integer cap exactly when 2^e is, and never built past 2 * cap.
    """
    if not need <= cap:
        raise CapacityError(f"{what} exceeds {name} = {cap}; {advice}")
