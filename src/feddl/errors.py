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
float64 is reported.  ``_available_memory`` is what the memory guards
(``pipeline``'s before any compute, ``clustering``'s before its dense
fallback) compare their estimates with.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
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


def _available_memory(
    meminfo: str = "/proc/meminfo", cgroup_max: str = "/sys/fs/cgroup/memory.max"
) -> int | None:
    """Bytes a run may allocate: ``MemAvailable`` of ``meminfo``, or the
    cgroup's ``memory.max`` when that is lower; None when neither reads."""
    limits = []
    try:
        with open(meminfo) as f:
            kib = [line.split()[1] for line in f if line.startswith("MemAvailable:")]
        limits += [int(v) * 1024 for v in kib]
    except (OSError, ValueError, IndexError):
        pass
    try:
        raw = Path(cgroup_max).read_text().strip()
        if raw != "max":
            limits.append(int(raw))
    except (OSError, ValueError):
        pass
    return min(limits, default=None)
