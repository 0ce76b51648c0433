"""The one reader for numeric ``REPRO_*`` environment knobs."""

from __future__ import annotations

import os
from typing import Callable, Optional, Type


def env_number(
    name: str,
    default,
    cast: Callable = int,
    *,
    error: Type[Exception],
    minimum: Optional[float] = None,
    above: Optional[float] = None,
    maximum: Optional[float] = None,
):
    """``cast(os.environ[name])``, or ``default`` when unset or empty.

    The value must be ``>= minimum``, ``> above`` and ``<= maximum``
    (each bound optional); a value that does not parse or breaks a bound
    raises ``error`` with a message naming the knob and the raw value.
    NaN fails every bound.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        value = cast(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise error(f"{name} must be {kind}, got {raw!r}") from None
    if not (
        (minimum is None or value >= minimum)
        and (above is None or value > above)
        and (maximum is None or value <= maximum)
    ):
        bounds = " and ".join(
            f"{op} {limit:g}"
            for op, limit in ((">=", minimum), (">", above), ("<=", maximum))
            if limit is not None
        )
        raise error(f"{name} must be {bounds}, got {raw!r}")
    return value
