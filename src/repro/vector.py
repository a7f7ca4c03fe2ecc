"""Process-wide switch for the vectorized event-cohort fast path.

:class:`repro.simtime.core.Simulator` consults this flag for cohort
dispatch: events that are ready at the same simulated instant are drained
from the heap as one batch instead of one heap transaction per event.

The scalar event loop remains the oracle: both are locked byte-identical by
the differential test battery (tests/simtime/test_cohort.py,
tests/integration/test_vector_oracle.py), so flipping the flag may change
wall-clock speed but never a simulated result.

The default comes from the ``REPRO_VECTOR`` environment variable (``1``,
``true``, ``yes``, ``on`` enable it) so whole sweeps — including forked
warm-pool workers, which inherit the parent's flag — can be switched
without threading a parameter through every constructor.  Constructors
accept an explicit override for targeted tests.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["enabled", "set_enabled", "forced"]

_TRUE = frozenset({"1", "true", "yes", "on"})


def _from_env() -> bool:
    return os.environ.get("REPRO_VECTOR", "").strip().lower() in _TRUE


#: process-wide default; ``None`` means "re-read the environment".
_override: Optional[bool] = None


def enabled() -> bool:
    """Current process-wide default for the vectorized fast path."""
    if _override is not None:
        return _override
    return _from_env()


def set_enabled(value: Optional[bool]) -> None:
    """Set the process-wide default (``None`` restores the env lookup)."""
    global _override
    _override = value


@contextmanager
def forced(value: bool) -> Iterator[None]:
    """Temporarily force the flag (tests; restores the prior override)."""
    global _override
    prior = _override
    _override = value
    try:
        yield
    finally:
        _override = prior
