"""Exception types shared across the package, and the one overflow guard.

Contract violations inside numerical routines raise plain ``ValueError``
with a descriptive message.  The three classes below exist so that the
command-line layer can map failures to distinct exit codes:

* configuration problems (bad config file, contradictory options),
* data problems (unreadable / malformed input files, shape mismatches
  discovered while loading), and
* numerical aborts (divergence, non-finite values mid-optimisation).

``overflow_aborts`` turns float64 overflow inside a block into a
``NumericalAbort``; it is how finite input whose arithmetic leaves
float64 is reported.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np


class ConfigError(Exception):
    """Raised when a configuration file or option set is invalid."""


class DataError(Exception):
    """Raised when an input file is missing, truncated, or malformed."""


class NumericalAbort(RuntimeError):
    """Raised when an iterative routine detects divergence or non-finite
    values and cannot continue."""


@contextmanager
def overflow_aborts(what: str) -> Iterator[None]:
    """Run the block with float64 overflow and invalid operations raised,
    and re-raise them as ``NumericalAbort(f"{what} ({exc})")``.

    Only what numpy reports is caught: an einsum, for one, overflows to
    ``inf`` without raising, so a caller that needs finite results still
    checks them.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalAbort(f"{what} ({exc})") from exc
